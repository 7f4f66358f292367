"""Secure multicast design by semidefinite relaxation.

The multicast problem (one waveform serving K receivers, each with its own
SINR floor, under one energy cap) is a non-convex QCQP in x = sqrt(E) s.
Lifting to X = x x^H and dropping the rank-1 constraint yields a convex
trace-form SDP whose optimum lower-bounds the QCQP; a (near) rank-1 solution
is extracted directly, otherwise Gaussian randomization with constraint-
activating rescaling recovers a feasible waveform.  The relaxations of a
stack of instances are solved as one stacked SDP (``solve_relaxation``),
and each waveform is then recovered on its own.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import NoTransmitError, SdpInfeasibleError, ValidationError
from .kernel import hermitian_eig, phase_normalize
from .p2p import _CAP_SLACK, P2pProblem, WaveformDesign, design_p2p
from .sdp import SdpProblem, solve_sdp
from .util import batch_of_one, complex_normal

__all__ = ["MulticastProblem", "build_lifted_sdp", "solve_relaxation", "extract_rank1",
           "gaussian_randomization", "multicast_design", "sum_sinr_design"]

# A relaxed solution is rank-1 when lambda_2 <= _RANK_TOL * lambda_1.
_RANK_TOL = 1e-6
# Samples drawn by Gaussian randomization (relaxed solutions above rank 1).
_RANDOMIZATION_SAMPLES = 1000


@dataclass
class MulticastProblem:
    """K-receiver secure multicast instance.

    ``q_eve``, when set, makes Eve's SINR the objective, else it is the
    energy (unknown eavesdropper).  A stack of T instances holds (T, L, L)
    Q matrices, ``gammas`` as (T, K) or (K,) and ``e_max`` as a scalar or
    one value per trial.
    """

    q_bobs: tuple
    gammas: np.ndarray
    e_max: float
    q_eve: Optional[np.ndarray] = None

    def __post_init__(self):
        mats = tuple(np.asarray(q, dtype=complex) for q in self.q_bobs)
        if len(mats) < 1:
            raise ValidationError("need at least one intended receiver")
        dim = mats[0].shape[-1]
        if any(m.shape[-1] != dim for m in mats):
            raise ValidationError("receiver Q matrices must share one dimension")
        gammas = np.atleast_1d(np.asarray(self.gammas, dtype=float))
        if gammas.shape[-1] != len(mats):
            raise ValidationError(
                f"{gammas.shape[-1]} SINR targets for {len(mats)} receivers"
            )
        if np.any(gammas <= 0) or not np.all(np.isfinite(gammas)):
            raise ValidationError("SINR targets must be positive and finite")
        gammas = np.broadcast_to(gammas, mats[0].shape[:-2] + gammas.shape[-1:])
        if not np.all((np.asarray(self.e_max) > 0) & np.isfinite(self.e_max)):
            raise ValidationError(f"e_max must be positive, got {self.e_max}")
        self.q_bobs = mats
        self.gammas = gammas
        if self.q_eve is not None:
            self.q_eve = np.asarray(self.q_eve, dtype=complex)
            if self.q_eve.shape[-1] != dim:
                raise ValidationError("eavesdropper Q dimension mismatch")

    @property
    def dim(self):
        return self.q_bobs[0].shape[-1]


def build_lifted_sdp(problem):
    """Lift the multicast QCQP to its trace-form SDP relaxation.

    The objective is Tr(Q_e X), Eve's SINR, when ``problem.q_eve`` is set,
    and Tr(X), the energy, otherwise; X is L x L with L = ``problem.dim``.
    """
    objective = problem.q_eve
    if objective is None:
        objective = np.broadcast_to(np.eye(problem.dim, dtype=complex), problem.q_bobs[0].shape)
    return SdpProblem(
        objective=objective,
        constraints=tuple(zip(problem.q_bobs, np.moveaxis(problem.gammas, -1, 0))),
        trace_cap=problem.e_max,
    )


def solve_relaxation(problem):
    """The SDP relaxation of a stack of multicast instances (see
    ``build_lifted_sdp``), solved as one stack: a stacked SdpSolution whose
    ``errors`` give an infeasible trial NoTransmitError, caused by its
    SdpInfeasibleError."""
    solution = solve_sdp(build_lifted_sdp(problem))
    for t, error in enumerate(solution.errors):
        if isinstance(error, SdpInfeasibleError):
            solution.errors[t] = NoTransmitError(f"multicast targets are infeasible: {error}")
            solution.errors[t].__cause__ = error
    return solution


def extract_rank1(solution):
    """(E, s) from a numerically rank-1 SDP solution, else None.

    Succeeds when the second eigenvalue is at most ``_RANK_TOL`` (1e-6) times
    the first; then E is the top eigenvalue and s its (phase-normalized) unit
    eigenvector.
    """
    values, vectors = hermitian_eig(solution.matrix)
    top = float(values[-1])
    if top <= 0:
        return None
    if len(values) > 1 and values[-2] > _RANK_TOL * top:
        return None
    return top, vectors[:, -1].copy()


def _quad_forms(samples, q):
    """Row-wise x^H Q x for a (N, L) sample matrix."""
    return np.einsum("ij,jk,ik->i", samples.conj(), q, samples).real


def gaussian_randomization(solution, problem, rng):
    """Recover a feasible (E, s) from a higher-rank relaxed solution.

    Draws ``_RANDOMIZATION_SAMPLES`` zero-mean complex Gaussians with
    covariance X', rescales each sample so its tightest SINR constraint is
    exactly active (scaling by the square root of
    max_k gamma_k / (x^H Q_k x), the quadratic constraints being order-2 in
    x), discards rescaled samples breaching the energy cap, and among the
    survivors returns the one with the best objective: the lowest
    eavesdropper SINR when ``problem.q_eve`` is set, else the lowest
    energy.  Returns ``(energy, s)``, or None when no sample survives.
    """
    if rng is None:
        raise ValidationError("gaussian_randomization needs an explicit rng")
    values, vectors = hermitian_eig(solution.matrix)
    # Columns from the top eigenpair down, the order the draws map onto.
    root = vectors[:, ::-1] * np.sqrt(np.maximum(values[::-1], 0.0))
    draws = complex_normal(rng, (_RANDOMIZATION_SAMPLES, problem.dim)) @ root.T

    forms = np.stack([_quad_forms(draws, q) for q in problem.q_bobs])
    valid = np.all(forms > 0, axis=0)
    ratios = np.where(forms > 0, problem.gammas[:, None] / forms, np.inf)
    scale = np.sqrt(np.max(ratios, axis=0, initial=0.0))
    energies = scale**2 * np.sum(np.abs(draws) ** 2, axis=1)
    feasible = valid & (energies <= problem.e_max * (1.0 + _CAP_SLACK))
    if not np.any(feasible):
        return None

    if problem.q_eve is not None:
        objective = scale**2 * _quad_forms(draws, problem.q_eve)
    else:
        objective = energies
    objective = np.where(feasible, objective, np.inf)
    best = int(np.argmin(objective))
    x = scale[best] * draws[best]
    energy = float(np.real(x.conj() @ x))
    return energy, phase_normalize(x / np.linalg.norm(x))


def _design_from_candidate(problem, candidate, cap):
    """Candidate (E, s) with E raised until every SINR floor holds, or None
    when there is no candidate or that E exceeds ``cap``."""
    if candidate is None:
        return None
    energy, s = candidate
    levels = np.array([energy * np.real(s.conj() @ q @ s) for q in problem.q_bobs])
    worst = float(np.max(problem.gammas / levels))
    if worst > 1.0:
        energy = energy * worst
    return None if energy > cap else (energy, s)


def multicast_design(problem, rng, solution=None):
    """Full SDR pipeline; returns (WaveformDesign, relaxation lower bound).

    The objective follows ``problem.q_eve`` (see ``build_lifted_sdp``).  A
    rank-1 solution is extracted, else randomized; method "least-energy"
    marks the least-energy program's matrix, or its design when no waveform
    for Eve's SINR fits the cap.  The second return value is the certified
    lower bound ``SdpSolution.bound``.  Infeasible instances and energy
    designs with no waveform within the cap raise NoTransmitError.
    ``solution``, when given, is the relaxation already solved: the
    problem's trial of a stacked ``solve_relaxation`` that succeeded.
    """
    if solution is None:
        solution = batch_of_one(solve_relaxation(replace(
            problem, q_bobs=tuple(q[None] for q in problem.q_bobs),
            q_eve=None if problem.q_eve is None else problem.q_eve[None])))

    cap = problem.e_max * (1.0 + _CAP_SLACK)
    method = "extraction"
    candidate = _design_from_candidate(problem, extract_rank1(solution), cap)
    if candidate is None:
        method = "randomization"
        drawn = gaussian_randomization(solution, problem, rng=rng)
        candidate = _design_from_candidate(problem, drawn, cap)
    if candidate is None and problem.q_eve is None:
        values, vectors = hermitian_eig(solution.matrix)
        need, _ = _design_from_candidate(problem, (float(values[-1]), vectors[:, -1]), np.inf)
        raise NoTransmitError(
            f"no waveform within the cap e_max(1 + slack) = {cap:.12e}: the rank-1 "
            f"candidate needs energy {need:.12e}, and no randomization sample fits",
            diagnostics={"candidate_energy": need, "energy_cap": cap})
    if candidate is None:
        fallback, _ = multicast_design(replace(problem, q_eve=None), rng)
        method, candidate = "least-energy", (fallback.energy, fallback.waveform)
    energy, s = candidate
    design = WaveformDesign(
        waveform=s, energy=energy, branch="sdr",
        info={"method": "least-energy" if solution.least_energy else method},
    )
    return design, solution.bound


def sum_sinr_design(q_bobs, q_eve, gamma, e_max):
    """Aggregate-SINR shortcut: known-CSI design on Q_b-tilde = sum_k Q_b,k."""
    total = sum(np.asarray(q, dtype=complex) for q in q_bobs)
    problem = P2pProblem(q_bob=total, q_eve=q_eve, gamma=gamma, e_max=e_max)
    return design_p2p(problem)
