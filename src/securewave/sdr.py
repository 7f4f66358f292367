"""Secure multicast design by semidefinite relaxation.

The multicast problem (one waveform serving K receivers, each with its own
SINR floor, under one energy cap) is a non-convex QCQP in x = sqrt(E) s.
Lifting to X = x x^H and dropping the rank-1 constraint yields a convex
trace-form SDP whose optimum lower-bounds the QCQP; a (near) rank-1 solution
is extracted directly, otherwise Gaussian randomization with constraint-
activating rescaling recovers a feasible waveform.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .channel import q_matrix
from .errors import NoTransmitError, SdpInfeasibleError, ValidationError
from .kernel import hermitian_eig, phase_normalize
from .p2p import P2pProblem, WaveformDesign, design_p2p
from .sdp import SdpProblem, solve_sdp
from .util import complex_normal

__all__ = ["MulticastProblem", "build_lifted_sdp", "extract_rank1",
           "gaussian_randomization", "multicast_design", "sum_sinr_design"]

OBJECTIVES = ("min-eve", "min-energy")
# Energy-cap slack allowed on returned designs (roundoff headroom only).
_CAP_SLACK = 1e-9


@dataclass
class MulticastProblem:
    """K-receiver secure multicast instance.

    ``q_eve`` may be None in min-energy mode (unknown eavesdropper);
    ``samples`` is the Gaussian randomization budget used when the relaxed
    solution is not rank-1.
    """

    q_bobs: tuple
    gammas: np.ndarray
    e_max: float
    q_eve: Optional[np.ndarray] = None
    samples: int = 1000

    def __post_init__(self):
        mats = tuple(q_matrix(q) for q in self.q_bobs)
        if len(mats) < 1:
            raise ValidationError("need at least one intended receiver")
        dim = mats[0].shape[0]
        if any(m.shape[0] != dim for m in mats):
            raise ValidationError("receiver Q matrices must share one dimension")
        gammas = np.atleast_1d(np.asarray(self.gammas, dtype=float))
        if gammas.shape[0] != len(mats):
            raise ValidationError(
                f"{gammas.shape[0]} SINR targets for {len(mats)} receivers"
            )
        if np.any(gammas <= 0) or not np.all(np.isfinite(gammas)):
            raise ValidationError("SINR targets must be positive and finite")
        if not (self.e_max > 0 and np.isfinite(self.e_max)):
            raise ValidationError(f"e_max must be positive, got {self.e_max}")
        if self.samples < 1:
            raise ValidationError(f"samples must be >= 1, got {self.samples}")
        self.q_bobs = mats
        self.gammas = gammas
        if self.q_eve is not None:
            self.q_eve = q_matrix(self.q_eve)
            if self.q_eve.shape[0] != dim:
                raise ValidationError("eavesdropper Q dimension mismatch")

    @property
    def dim(self):
        return self.q_bobs[0].shape[0]

    @property
    def receivers(self):
        return len(self.q_bobs)


def build_lifted_sdp(problem, mode):
    """Lift the multicast QCQP to its trace-form SDP relaxation."""
    if mode not in OBJECTIVES:
        raise ValidationError(f"SDR objective must be one of {OBJECTIVES}, got {mode!r}")
    if mode == "min-eve":
        if problem.q_eve is None:
            raise ValidationError("min-eve mode requires the eavesdropper's Q")
        objective = problem.q_eve
    else:
        objective = np.eye(problem.dim, dtype=complex)
    constraints = tuple(
        (q, float(g)) for q, g in zip(problem.q_bobs, problem.gammas)
    )
    return SdpProblem(
        objective=objective, constraints=constraints,
        trace_cap=float(problem.e_max), dim=problem.dim,
    )


def extract_rank1(solution, rank_tol=1e-6):
    """(E, s) from a numerically rank-1 SDP solution, else None.

    Succeeds when the second eigenvalue is at most ``rank_tol`` times the
    first; then E is the top eigenvalue and s its (phase-normalized) unit
    eigenvector.
    """
    pairs = hermitian_eig(solution.matrix)
    top = float(pairs.values[0])
    if top <= 0:
        return None
    if pairs.dim > 1 and pairs.values[1] > rank_tol * top:
        return None
    return top, pairs.vectors[:, 0].copy()


def _quad_forms(samples, q):
    """Row-wise x^H Q x for a (N, L) sample matrix."""
    return np.einsum("ij,jk,ik->i", samples.conj(), q, samples).real


def gaussian_randomization(solution, problem, n_samples=None, rng=None):
    """Recover a feasible (E, s) from a higher-rank relaxed solution.

    Draws zero-mean complex Gaussians with covariance X', rescales each
    sample so its tightest SINR constraint is exactly active (scaling by the
    square root of max_k gamma_k / (x^H Q_k x), the quadratic constraints
    being order-2 in x), discards rescaled samples breaching the energy cap,
    and among survivors returns the best objective (eavesdropper SINR in
    min-eve context, energy otherwise is identical to the cap test).
    Returns None when no sample survives.
    """
    if rng is None:
        raise ValidationError("gaussian_randomization needs an explicit rng")
    if n_samples is None:
        n_samples = problem.samples
    pairs = hermitian_eig(solution.matrix)
    root = pairs.vectors * np.sqrt(np.maximum(pairs.values, 0.0))
    draws = complex_normal(rng, (n_samples, problem.dim)) @ root.T

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


def _design_from_candidate(problem, energy, s):
    """Nudge a candidate so every SINR floor holds, then wrap it up."""
    levels = np.array([energy * np.real(s.conj() @ q @ s) for q in problem.q_bobs])
    worst = float(np.max(problem.gammas / levels))
    if worst > 1.0:
        energy = energy * worst
    if energy > problem.e_max * (1.0 + _CAP_SLACK):
        return None
    return energy, s


def multicast_design(problem, mode, rng=None, tol=1e-8, rank_tol=1e-6):
    """Full SDR pipeline; returns (WaveformDesign, relaxation lower bound).

    The second return value is the SDP optimum, a certified lower bound on
    the true QCQP optimum of the requested mode.  Infeasible instances and
    randomization failures raise NoTransmitError.
    """
    sdp_problem = build_lifted_sdp(problem, mode)
    try:
        solution = solve_sdp(sdp_problem, tol=tol)
    except SdpInfeasibleError as exc:
        raise NoTransmitError(f"multicast targets are infeasible: {exc}") from exc

    method = "extraction"
    candidate = extract_rank1(solution, rank_tol=rank_tol)
    if candidate is not None:
        candidate = _design_from_candidate(problem, *candidate)
    if candidate is None:
        method = "randomization"
        drawn = gaussian_randomization(solution, problem, rng=rng)
        if drawn is not None:
            drawn = _design_from_candidate(problem, *drawn)
        if drawn is None:
            raise NoTransmitError(
                "Gaussian randomization produced no feasible waveform "
                f"({problem.samples} samples); raise the sample budget or "
                "declare no-transmit"
            )
        candidate = drawn
    energy, s = candidate
    design = WaveformDesign(
        waveform=s, energy=energy, branch="sdr",
        info={"mode": mode, "method": method, "bound": solution.objective,
              "duality_gap": solution.duality_gap,
              "sdp_iterations": solution.iterations},
    )
    return design, solution.objective


def sum_sinr_design(q_bobs, q_eve, gamma, e_max, epsilon=1e-8):
    """Aggregate-SINR shortcut: known-CSI design on Q_b-tilde = sum_k Q_b,k."""
    mats = [q_matrix(q) for q in q_bobs]
    total = np.zeros_like(mats[0])
    for m in mats:
        total = total + m
    problem = P2pProblem(q_bob=total, q_eve=q_matrix(q_eve), gamma=gamma,
                         e_max=e_max, epsilon=epsilon)
    return design_p2p(problem)
