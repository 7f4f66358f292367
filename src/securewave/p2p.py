"""Waveform and energy design against a known eavesdropper channel.

Given the effective matrices Q_b and Q_e of the intended receiver and the
eavesdropper, pick the unit-norm waveform s and bit energy E that minimize
the eavesdropper's post-filter SINR subject to E s^H Q_b s >= gamma and
E <= E_max.  Two branches: when the energy cap is slack the minimizer is the
smallest generalized eigenvector of (Q_e, Q_b); when the cap binds, the
optimum satisfies a shifted eigen condition, solved by a safeguarded
Newton root-find on the shift over a pencil reduced once per design, each
step's derivative coming from the eigenpairs that step computes.
Both branches run on a stack of problems, the root-find stepping every
cap-active trial at once, and return each trial's error (see
``WaveformDesign``); an unstacked call is the stack of one.
"""

from dataclasses import dataclass, field, replace
from functools import wraps
from typing import Optional

import numpy as np

from .errors import NoTransmitError, NumericalError, ValidationError, DimensionError
from .kernel import (cholesky_reduce, generalized_eigh, hermitian_part, phase_normalize,
                     quadratic_form)
from .util import batch_of_one, first_errors

__all__ = ["WaveformDesign", "P2pProblem", "check_feasibility", "eigen_design",
           "kkt_bisection", "design_p2p"]

# Eigenvalues closer than this (relative) are treated as one eigenspace.
_TIE_RTOL = 1e-10
_BISECTION_MAX_ITER = 200
# Largest |s^H Q_b s - gamma/e_max| of a returned cap-active design.
_BISECTION_EPSILON = 1e-8
# Upper end of the bracket on mu_tilde = mu / (1 + mu), i.e. mu = 1e9.
_MU_TILDE_MAX = 1.0 - 1e-9
# Largest stationarity residual ||(Q_e + mu I)s - beta Q_b s|| of a returned
# cap-active design; its roundoff grows with mu, past ~1e8 no design meets it.
# A design above it gets one refinement step (``_refine``) before it is refused.
_KKT_RESID_TOL = 1e-8
# Relative energy over the cap a design may carry (roundoff headroom only).
_CAP_SLACK = 1e-9


@dataclass
class WaveformDesign:
    """A designed transmission: unit-norm waveform, bit energy, and branch.

    A stacked design's ``errors`` holds per trial None or the error that its
    unstacked call raises; that trial's energy is NaN, a fill, and its
    waveform unchecked.  A stacked ``design_p2p`` design whose trials took both
    branches gives ``branch`` one string per trial, and ``info`` one value
    per trial for every key of either branch, NaN where the trial's branch
    has none (``mu``, ``beta``, ``mu_tilde``, ``target_gap`` and
    ``iterations`` on eigen-branch trials).
    """

    waveform: np.ndarray
    energy: float
    branch: str
    info: dict = field(default_factory=dict)
    errors: Optional[np.ndarray] = None

    def __post_init__(self):
        s = np.asarray(self.waveform, dtype=complex)
        energy = np.asarray(self.energy, dtype=float)
        checked = ~np.isnan(energy) if energy.ndim else True
        norm = np.linalg.norm(s, axis=-1)
        if np.any(checked & (abs(norm - 1.0) > 1e-10)):
            raise ValidationError(f"waveform norm {norm} deviates from 1 beyond 1e-10")
        if np.any(checked & ~((energy > 0) & np.isfinite(energy))):
            raise ValidationError(f"energy must be positive and finite, got {energy}")
        self.waveform = s
        self.energy = float(energy) if energy.ndim == 0 else energy


@dataclass
class P2pProblem:
    """Single-receiver secure design instance.

    ``gamma`` is the intended receiver's SINR requirement in linear scale and
    ``e_max`` the per-bit energy cap; the cap-active root-find stops within
    ``_BISECTION_EPSILON`` of |s^H Q_b s - gamma/e_max|.  A stacked problem
    takes ``gamma`` and ``e_max`` as scalars or one value per trial.
    """

    q_bob: np.ndarray
    q_eve: np.ndarray
    gamma: float
    e_max: float

    def __post_init__(self):
        qb = np.asarray(self.q_bob, dtype=complex)
        qe = np.asarray(self.q_eve, dtype=complex)
        if qb.shape != qe.shape:
            raise DimensionError(f"Q dims differ: {qb.shape} vs {qe.shape}")
        # gamma and e_max may hold one value per trial of a stacked problem.
        for name, value in (("gamma", self.gamma), ("e_max", self.e_max)):
            if not np.all((np.asarray(value) > 0) & np.isfinite(value)):
                raise ValidationError(f"{name} must be positive and finite, got {value}")
        self.q_bob = qb
        self.q_eve = qe

    @property
    def dim(self):
        return self.q_bob.shape[-1]


def _batch_of_one(design_stack):
    """Give a design of stacked problems its unstacked call, the stack of one:
    it raises the trial's error, or gives None for a trial left open."""
    @wraps(design_stack)
    def design(problem):
        if problem.q_bob.ndim > 2:
            return design_stack(problem)
        one = batch_of_one(design_stack(replace(problem, q_bob=problem.q_bob[None],
                                                q_eve=problem.q_eve[None])))
        return None if np.isnan(one.energy) else one
    return design


def check_feasibility(problem):
    """True iff the SINR target is attainable: lambda_max(Q_b) >= gamma/e_max
    (one flag per trial of a stacked problem)."""
    return np.linalg.eigvalsh(problem.q_bob)[..., -1] >= problem.gamma / problem.e_max


def _tied_with_min(values):
    """Mask of the eigenvalues that tie with the smallest one; ``values`` is
    sorted ascending along its last axis."""
    first, last = values[..., :1], values[..., -1:]
    spread = np.maximum(np.maximum(np.abs(first), np.abs(last)), 1.0)
    return np.abs(values - first) <= _TIE_RTOL * spread


def _max_qb_direction(vectors, q_bob):
    """Unit direction maximizing s^H Q_b s in the span of ``vectors``,
    via a secondary eigendecomposition on an orthonormal basis of it."""
    basis, _ = np.linalg.qr(vectors)
    _, y = np.linalg.eigh(hermitian_part(basis.conj().T @ q_bob @ basis))
    s = basis @ y[:, -1]
    return phase_normalize(s / np.linalg.norm(s))


def _smallest_pair(values, vectors, q_bob):
    """Smallest eigenvalue and its unit eigenvector of each of a (stack of)
    pencils, from ascending eigenpairs.  Inside an eigenspace tied with the
    smallest value, the direction maximizing s^H Q_b s is taken: the
    least-energy member (all give Eve one SINR) and the limit of the
    cap-active map as mu_tilde -> 0+, so both branches agree."""
    s = vectors[..., 0].copy()
    tied = _tied_with_min(values)
    for index in map(tuple, np.argwhere(np.count_nonzero(tied, axis=-1) > 1)):
        s[index] = _max_qb_direction(vectors[index][:, tied[index]], q_bob[index])
    return values[..., 0], s


def _squares(s):
    """||s||^2 for each vector of a stack, rounded as ``np.linalg.norm``
    rounds one vector alone (two real dot products)."""
    re, im = s.real[..., None, :], s.imag[..., None, :]
    return (re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2))[..., 0, 0]


def _waveform(z):
    """The phase-normalized unit waveform along each direction of a stack."""
    return phase_normalize(z / np.sqrt(_squares(z))[..., None])


@_batch_of_one
def eigen_design(problem):
    """Unconstrained-cap branch: smallest generalized eigenvector of (Q_e, Q_b).

    Returns the design with E = gamma / (s^H Q_b s) when that energy fits the
    cap, or None to signal that the cap binds and the bisection branch is
    required.  Raises NoTransmitError on infeasible problems.  Inside a
    degenerate eigenspace the member maximizing s^H Q_b s is taken.  A
    stacked problem gets one stacked design, each trial's bit for bit the
    unstacked call's; a trial whose cap binds gets NaN energy and no error.
    """
    feasible = check_feasibility(problem)
    ratio_cap = np.broadcast_to(problem.gamma / problem.e_max, feasible.shape)
    values, vectors, unreduced = generalized_eigh(problem.q_eve, problem.q_bob)
    errors = first_errors((~feasible, lambda t: NoTransmitError(
        "SINR target is unattainable within the energy budget "
        f"(gamma/e_max = {ratio_cap[t]:.6g})")), unreduced)
    ratio, s = _smallest_pair(values, vectors, problem.q_bob)
    energy = problem.gamma / quadratic_form(problem.q_bob, s)
    energy = np.where(np.equal(errors, None) & (energy <= problem.e_max), energy, np.nan)
    return WaveformDesign(waveform=s, energy=energy, branch="eigen",
                          info={"eve_bob_ratio": ratio}, errors=errors)


def _cap_active_map(problem):
    """Reduce the cap-active pencil once; return the map
    ``mu_tilde -> (beta, z, g, g')`` and the reduction's errors, one per
    trial (an unstacked failure raises).

    With Q_b = L L^H, A = L^-1 Q_e L^-H and B = L^-1 L^-H, the pencil
    ((1-u)Q_e + uI, (1-u)Q_b) has the eigenvalues of (1-u)A + uB divided by
    1-u and the eigenvectors L^-H y, so each evaluation is one L x L eigh.
    The map keeps a flat trial axis, of length one for an unstacked
    problem, and ``mu_tilde`` broadcasts against it, so one call steps many
    trials or sweeps a grid over one.
    """
    linv, a, errors = cholesky_reduce(problem.q_eve, problem.q_bob)
    b = hermitian_part(linv @ np.swapaxes(linv, -1, -2).conj())
    shape = (-1,) + a.shape[-2:]
    matrices = (m.reshape(shape) for m in (a, b, linv.conj(), problem.q_bob))
    return _CapActiveMap(*matrices), np.reshape(errors, -1)


class _CapActiveMap:
    """``_cap_active_map``'s map on the reduced matrices of a trial axis."""

    def __init__(self, a, b, linv_conj, q_bob):
        self.matrices = a, b, linv_conj, q_bob

    def __call__(self, mu_tilde):
        """The smallest eigenvalue beta of the pencil at each ``mu_tilde``,
        a direction z of its eigenvector (``_waveform(z)`` is the design's
        s), g = s^H Q_b s and its derivative g' in mu_tilde.

        For the smallest unit eigenvector y_0 of (1-u)A + uB, z = L^-H y_0
        and g = 1/||z||^2.  From the step's other eigenpairs (lambda_j, y_j),
        y_0' = sum_j y_j y_j^H (B - A) y_0 / (lambda_0 - lambda_j), and
        y_j^H A y_0 = -u/(1-u) y_j^H B y_0, so
        g' = -2 g^2 Re(y_0'^H B y_0) = 2 g^2 / (1-u) sum_j |y_j^H B y_0|^2
        / (lambda_j - lambda_0).  Where the smallest eigenvalue is tied, z is
        the unit direction maximizing s^H Q_b s in the tied eigenspace (as in
        ``_smallest_pair``), g its s^H Q_b s and g' NaN.
        """
        a, b, linv_conj, q_bob = self.matrices
        u = np.asarray(mu_tilde, dtype=float)[..., None]
        w, y = np.linalg.eigh((1.0 - u[..., None]) * a + u[..., None] * b)
        back = np.swapaxes(linv_conj, -1, -2)
        z = (back @ y[..., :, :1])[..., 0]
        g = 1.0 / _squares(z)
        d = (np.swapaxes(b @ y[..., :, :1], -1, -2).conj() @ y)[..., 0, 1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.sum(np.square(np.abs(d)) / (w[..., 1:] - w[..., :1]), axis=-1)
        slope *= 2.0 * g * g / (1.0 - u[..., 0])
        values = w / (1.0 - u)
        spread = np.maximum(np.maximum(np.abs(values[..., 0]), np.abs(values[..., -1])), 1.0)
        tied = values[..., 1:2] - values[..., :1] <= _TIE_RTOL * spread[..., None]
        for index in map(tuple, np.argwhere(tied)[:, :-1]):
            q = np.broadcast_to(q_bob, y.shape)[index]
            members = y[index][:, _tied_with_min(values[index])]
            z[index] = _max_qb_direction(np.broadcast_to(back, y.shape)[index] @ members, q)
            g[index], slope[index] = quadratic_form(q, z[index]), np.nan
        return values[..., 0], z, g, slope

    def take(self, trials):
        """The map on the trials ``trials`` selects along the trial axis."""
        return _CapActiveMap(*(m[trials] for m in self.matrices))


def _stationarity_residual(q_eve, q_bob, mu, beta, s):
    """||(Q_e + mu I)s - beta Q_b s|| of a (stack of) cap-active pairs."""
    shifted = q_eve + np.asarray(mu)[..., None, None] * np.eye(q_eve.shape[-1])
    r = shifted @ s[..., None] - np.asarray(beta)[..., None, None] * (q_bob @ s[..., None])
    return np.linalg.norm(r[..., 0], axis=-1)


def _refine(q_eve, q_bob, mu, beta, s):
    """One inverse-iteration step on the pencil (Q_e + mu I, Q_b) in the
    original space, from one trial's pair (beta, s): the unit direction of
    (Q_e + mu I - beta Q_b)^-1 Q_b s and its Rayleigh quotient.  The pair
    comes back unchanged if that shifted matrix is exactly singular."""
    shifted = q_eve + mu * np.eye(len(s))
    try:
        x = np.linalg.solve(shifted - beta * q_bob, q_bob @ s)
    except np.linalg.LinAlgError:
        return beta, s
    s = phase_normalize(x / np.linalg.norm(x))
    return quadratic_form(shifted, s) / quadratic_form(q_bob, s), s


@_batch_of_one
def kkt_bisection(problem):
    """Cap-active branch: safeguarded Newton root-find on the shifted-pencil parameter.

    Preconditions: the problem is feasible and the plain eigen design
    violates s^H Q_b s >= gamma/e_max.  The map
    g: mu_tilde -> s(mu_tilde)^H Q_b s(mu_tilde) is monotone increasing on
    [0, 1), and a safeguarded Newton iteration (Numerical Recipes' rtsafe)
    on the bracket [0, 1 - 1e-9] drives it to the cap-active value
    gamma/e_max.  Each step is one L x L Hermitian eigendecomposition of the
    pencil reduced once per call, from whose eigenpairs g' also comes
    (``_cap_active_map``).  Starting from the lower end, a step takes the
    Newton point unless it leaves the open bracket, g' is not available (a
    tied smallest eigenvalue), or it would move more than half the step
    before the last one; then it takes the bracket's midpoint.

    The returned design carries the stationarity multipliers (mu, beta) in
    ``info`` (mu = 0 when the eigen solution at the cap already meets the
    target to tolerance), the pencil evaluations after the two bracket ends
    as ``iterations``, and uses E = min(e_max, gamma / s^H Q_b s) so the
    SINR constraint is active to roundoff; s is formed, and s^H Q_b s taken,
    once, from the best iterate.  A design whose stationarity residual
    exceeds 1e-8, or whose s^H Q_b s misses the target by more than the
    stopping tolerance (the reduced pencil's g is noisy when Q_b is ill
    conditioned), takes one refinement step (``_refine``), then, if it still
    misses the target, one chord step on mu_tilde and a refinement there;
    the refined design is kept if it meets both tolerances.  A design that
    fails the stationarity check raises NumericalError.

    A stacked problem runs the root-find of all its trials in lockstep:
    each step is one batched eigh over the trials still open, every trial
    with its own bracket, step lengths, stopping test and best iterate, so
    each trial's design and error, one value per trial in every field and
    ``info`` entry, are bit for bit its unstacked call's.
    """
    feasible = check_feasibility(problem).reshape(-1)
    reduced, unreduced = _cap_active_map(problem)
    q_bob, q_eve = (q.reshape((-1,) + q.shape[-2:]) for q in (problem.q_bob, problem.q_eve))
    count = len(q_bob)
    gamma, e_max = (np.broadcast_to(np.asarray(x, dtype=float), count)
                    for x in (problem.gamma, problem.e_max))
    target = gamma / e_max
    # Stop within _BISECTION_EPSILON AND tight in relative terms: the floor
    # keeps E * s^H Q_b s = gamma to ~1e-12 when the cap is active.
    tol = np.minimum(_BISECTION_EPSILON, 1e-12 * target + np.finfo(float).eps
                     * np.trace(q_bob, axis1=-2, axis2=-1).real)
    lo, hi = np.zeros(count), np.full(count, _MU_TILDE_MAX)
    beta, z, g_lo, slope_lo = reduced(lo)
    best_x, best_beta, best_z = lo.copy(), beta, z
    g_hi = reduced(hi)[2]
    f_lo = g_lo - target
    eigen_meets = f_lo > tol
    unbracketed = g_hi < target
    bracketed = feasible & np.equal(unreduced, None) & ~eigen_meets & ~unbracketed
    iterations = np.zeros(count, dtype=int)
    # The loop's state covers the trials still open, ``trials``, and
    # shrinks as they stop; a stopped trial's best iterate and count are
    # written back.  Every open trial has taken each of the ``step`` steps.
    # f_lo within tol: the eigen solution at the cap meets the target (mu = 0).
    trials = np.flatnonzero(bracketed & (f_lo < -tol))
    pencil = reduced.take(trials)
    lo, hi, f, slope, goal, close = (v[trials] for v in (lo, hi, f_lo, slope_lo, target, tol))
    x_best, beta_best, z_best, g_best = (v[trials] for v in (best_x, best_beta, best_z, g_lo))
    # The iterate x starts at the lower end, and the last step and the one
    # before it as the bracket's width.
    x, last, before = lo.copy(), hi - lo, hi - lo
    step = 0
    while trials.size:
        step += 1
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - f / slope
        take = (lo < newton) & (newton < hi) & (np.abs(2.0 * f) <= np.abs(before * slope))
        x_new = np.where(take, newton, lo + 0.5 * (hi - lo))
        before, last, x = last, np.abs(x_new - x), x_new
        beta, z, g, slope = pencil(x)
        better = np.abs(g - goal) < np.abs(g_best - goal)
        x_best[better], beta_best[better] = x[better], beta[better]
        z_best[better], g_best[better] = z[better], g[better]
        f = g - goal
        below = f < 0
        lo[below], hi[~below] = x[below], x[~below]
        mid = lo + 0.5 * (hi - lo)
        go = (np.abs(f) > close) & (lo < mid) & (mid < hi) & (step < _BISECTION_MAX_ITER)
        if not go.all():
            stop = ~go
            done = trials[stop]
            best_x[done], best_beta[done] = x_best[stop], beta_best[stop]
            best_z[done], iterations[done] = z_best[stop], step
            trials, lo, hi, x, f, slope, last, before, goal, close = (
                v[go] for v in (trials, lo, hi, x, f, slope, last, before, goal, close))
            x_best, beta_best, z_best, g_best = (v[go] for v in (x_best, beta_best, z_best, g_best))
            pencil = pencil.take(go)
    best_s = _waveform(best_z)
    best_g = quadratic_form(q_bob, best_s)
    mu = best_x / (1.0 - best_x)
    gap = np.abs(best_g - target)
    reached = bracketed & (gap <= _BISECTION_EPSILON)
    resid = _stationarity_residual(q_eve, q_bob, mu, best_beta, best_s)
    for t in np.flatnonzero(reached & ((resid > _KKT_RESID_TOL) | (gap > tol))):
        x, (beta, s) = best_x[t], _refine(q_eve[t], q_bob[t], mu[t], best_beta[t], best_s[t])
        g = quadratic_form(q_bob[t], s)
        if abs(g - target[t]) > tol[t]:
            # The refined g is exact to roundoff where the reduced pencil's is
            # not: one chord step on mu_tilde, at the pencil's g', and a
            # refinement there bring the design onto the target.
            x_new = x + (target[t] - g) / reduced.take([t])(x)[3][0]
            if 0.0 <= x_new <= _MU_TILDE_MAX:
                beta_new, s_new = _refine(q_eve[t], q_bob[t], x_new / (1.0 - x_new), beta, s)
                g_new = quadratic_form(q_bob[t], s_new)
                if abs(g_new - target[t]) < abs(g - target[t]):
                    x, beta, s, g = x_new, beta_new, s_new, g_new
        r = _stationarity_residual(q_eve[t], q_bob[t], x / (1.0 - x), beta, s)
        if r <= _KKT_RESID_TOL and abs(g - target[t]) <= _BISECTION_EPSILON:
            best_x[t], mu[t], best_beta[t], best_s[t] = x, x / (1.0 - x), beta, s
            best_g[t], gap[t], resid[t] = g, abs(g - target[t]), r
    solved = reached & (resid <= _KKT_RESID_TOL)
    energy = np.where(solved, np.minimum(e_max, gamma / best_g), np.nan)
    info = {"mu": mu, "beta": best_beta, "mu_tilde": best_x, "target_gap": gap,
            "iterations": iterations}
    # Each trial's first failed check, in the order its unstacked call meets them.
    errors = first_errors(
        (~feasible, lambda t: NoTransmitError("bisection requires a feasible problem")),
        unreduced,
        (eigen_meets, lambda t: ValidationError(
            "eigen design already satisfies the cap constraint; "
            "the bisection branch does not apply")),
        (unbracketed, lambda t: NumericalError(
            "bisection bracket failed: s^H Q_b s below target at mu_tilde -> 1",
            diagnostics={"g_lo": g_lo[t].item(), "g_hi": g_hi[t].item(),
                         "target": target[t].item()})),
        (~reached, lambda t: NumericalError(
            "bisection did not reach the cap-active target",
            diagnostics={"gap": gap[t].item(), "epsilon": _BISECTION_EPSILON,
                         "mu_tilde": best_x[t].item(), "iterations": iterations[t].item()})),
        (~solved, lambda t: NumericalError(
            "cap-active design fails the stationarity check",
            diagnostics={"residual": resid[t].item(), "mu": mu[t].item(),
                         "beta": best_beta[t].item(), "mu_tilde": best_x[t].item(),
                         "iterations": iterations[t].item()})))
    return WaveformDesign(waveform=best_s, energy=energy, branch="bisection", info=info,
                          errors=errors)


@_batch_of_one
def design_p2p(problem):
    """Full known-CSI pipeline: feasibility gate, eigen branch, else bisection.

    Every returned design satisfies E * s^H Q_b s = gamma to ~1e-12 relative
    and E <= e_max; infeasible problems raise NoTransmitError.  The trials
    of a stacked problem whose cap binds in ``eigen_design`` go to one
    stacked ``kkt_bisection``; the design then gives each trial's branch,
    ``info`` and error (see ``WaveformDesign``).
    """
    design = eigen_design(problem)
    capped = np.isnan(design.energy) & np.equal(design.errors, None)
    if capped.any():
        gamma, e_max = (np.broadcast_to(x, capped.shape)[capped]
                        for x in (problem.gamma, problem.e_max))
        bisected = kkt_bisection(replace(problem, q_bob=problem.q_bob[capped],
                                         q_eve=problem.q_eve[capped], gamma=gamma, e_max=e_max))
        for name in ("waveform", "energy", "errors"):
            getattr(design, name)[capped] = getattr(bisected, name)
        design.branch = np.where(capped, "bisection", "eigen")
        for key, value in bisected.info.items():
            design.info.setdefault(key, np.full(capped.shape, np.nan))[capped] = value
    return design
