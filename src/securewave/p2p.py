"""Waveform and energy design against a known eavesdropper channel.

Given the effective matrices Q_b and Q_e of the intended receiver and the
eavesdropper, pick the unit-norm waveform s and bit energy E that minimize
the eavesdropper's post-filter SINR subject to E s^H Q_b s >= gamma and
E <= E_max.  Two branches: when the energy cap is slack the minimizer is the
smallest generalized eigenvector of (Q_e, Q_b); when the cap binds, the
optimum satisfies a shifted eigen condition, solved by a safeguarded
root-find on the shift over a pencil reduced once per design.
The eigen branch also runs on a stack of problems, leaving infeasible and
cap-active trials open with NaN energy (see ``eigen_design``).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NoTransmitError, NumericalError, ValidationError, DimensionError
from .kernel import (cholesky_reduce, generalized_eigh, hermitian_part, phase_normalize,
                     quadratic_form)

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
_KKT_RESID_TOL = 1e-8


@dataclass
class WaveformDesign:
    """A designed transmission: unit-norm waveform, bit energy, and branch.

    Stacked, a NaN energy marks a trial left open; its waveform is unchecked.
    """

    waveform: np.ndarray
    energy: float
    branch: str
    info: dict = field(default_factory=dict)

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
    ``e_max`` the per-bit energy cap; the cap-active bisection stops within
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


def _min_qb_direction(vectors, q_bob):
    """Unit direction minimizing s^H Q_b s in the span of ``vectors``,
    via a secondary eigendecomposition on an orthonormal basis of it."""
    basis, _ = np.linalg.qr(vectors)
    _, y = np.linalg.eigh(hermitian_part(basis.conj().T @ q_bob @ basis))
    s = basis @ y[:, 0]
    return phase_normalize(s / np.linalg.norm(s))


def eigen_design(problem):
    """Unconstrained-cap branch: smallest generalized eigenvector of (Q_e, Q_b).

    Returns the design with E = gamma / (s^H Q_b s) when that energy fits the
    cap, or None to signal that the cap binds and the bisection branch is
    required.  Raises NoTransmitError on infeasible problems.  Inside a
    degenerate eigenspace the direction minimizing s^H Q_b s is taken.  A
    stacked problem gets one stacked design, each trial's bit for bit the
    unstacked call's; the trials an unstacked call would raise on or send
    to the bisection get NaN energy.
    """
    feasible = check_feasibility(problem)
    if feasible.ndim == 0 and not feasible:
        raise NoTransmitError(
            "SINR target is unattainable within the energy budget "
            f"(gamma/e_max = {problem.gamma / problem.e_max:.6g})"
        )
    values, vectors = generalized_eigh(problem.q_eve, problem.q_bob)
    ratio, s = values[..., 0], vectors[..., 0].copy()
    tied = _tied_with_min(values)
    ties = np.count_nonzero(tied, axis=-1) > 1
    if ties.any():
        for index in map(tuple, np.argwhere(ties)):
            members = np.flatnonzero(tied[index])
            s[index] = _min_qb_direction(vectors[index][:, members], problem.q_bob[index])
    s_qb_s = quadratic_form(problem.q_bob, s)
    energy = problem.gamma / s_qb_s
    if s.ndim == 1 and energy > problem.e_max:
        return None
    energy = np.where(~feasible | (energy > problem.e_max), np.nan, energy)
    return WaveformDesign(
        waveform=s, energy=energy, branch="eigen",
        info={"eve_bob_ratio": ratio, "s_qb_s": s_qb_s},
    )


def _cap_active_map(problem):
    """Reduce the cap-active pencil once; return u -> (beta, s, s^H Q_b s).

    With Q_b = L L^H, A = L^-1 Q_e L^-H and B = L^-1 L^-H, the pencil
    ((1-u)Q_e + uI, (1-u)Q_b) has the eigenvalues of (1-u)A + uB divided by
    1-u and the eigenvectors L^-H y, so each evaluation is one L x L eigh.
    """
    linv, a, _ = cholesky_reduce(problem.q_eve, problem.q_bob)
    linv_h = linv.conj().T
    b = hermitian_part(linv @ linv_h)
    q_bob = problem.q_bob

    def smallest_pair(mu_tilde):
        w, y = np.linalg.eigh((1.0 - mu_tilde) * a + mu_tilde * b)
        values = w / (1.0 - mu_tilde)
        members = np.flatnonzero(_tied_with_min(values))
        if members.shape[0] == 1:
            s = linv_h @ y[:, 0]
            s = phase_normalize(s / np.linalg.norm(s))
        else:
            s = _min_qb_direction(linv_h @ y[:, members], q_bob)
        return float(values[0]), s, float(np.real(s.conj() @ q_bob @ s))

    return smallest_pair


def _regula_falsi_scale(f_new, f_replaced):
    """Anderson-Bjorck factor for the value of the bracket end kept twice."""
    m = 1.0 - f_new / f_replaced
    return m if m > 0.0 else 0.5


def kkt_bisection(problem):
    """Cap-active branch: safeguarded root-find on the shifted-pencil parameter.

    Preconditions: the problem is feasible and the plain eigen design
    violates s^H Q_b s >= gamma/e_max.  The map
    mu_tilde -> s(mu_tilde)^H Q_b s(mu_tilde) is monotone increasing on
    [0, 1), so a safeguarded regula falsi on the bracket [0, 1 - 1e-9]
    drives it to the cap-active value gamma/e_max.  The secant steps use the
    Illinois-type Anderson-Bjorck scaling; a midpoint step is taken while
    the upper end is still 1 - 1e-9, and whenever the secant step leaves the
    bracket or the last three steps together failed to halve it.  Q_b is
    validated and Cholesky-factored once per design, and each step is one
    L x L Hermitian eigendecomposition.

    The returned design carries the stationarity multipliers (mu, beta) in
    ``info`` (mu = 0 when the eigen solution at the cap already meets the
    target to tolerance), the pencil evaluations after the two bracket ends
    as ``iterations``, and uses E = min(e_max, gamma / s^H Q_b s) so the
    SINR constraint is active to roundoff.  A design whose stationarity
    residual exceeds 1e-8 raises NumericalError instead.
    """
    if not check_feasibility(problem):
        raise NoTransmitError("bisection requires a feasible problem")
    target = problem.gamma / problem.e_max
    # Stop within _BISECTION_EPSILON AND tight in relative terms: the floor
    # keeps E * s^H Q_b s = gamma to ~1e-12 when the cap is active.
    tol = min(_BISECTION_EPSILON, 1e-12 * target + np.finfo(float).eps * np.trace(problem.q_bob).real)
    pencil = _cap_active_map(problem)
    lo, hi = 0.0, _MU_TILDE_MAX
    best = (lo,) + pencil(lo)
    f_lo = best[3] - target
    if f_lo > tol:
        raise ValidationError(
            "eigen design already satisfies the cap constraint; "
            "the bisection branch does not apply"
        )
    _, _, g_hi = pencil(hi)
    if g_hi < target:
        raise NumericalError(
            "bisection bracket failed: s^H Q_b s below target at mu_tilde -> 1",
            diagnostics={"g_lo": best[3], "g_hi": g_hi, "target": target},
        )
    f_hi = g_hi - target
    kept = 0  # bracket end the last step kept: -1 low, +1 high
    widths = [hi - lo] * 3  # bracket widths before the last three steps
    iterations = 0
    # f_lo within tol: the eigen solution at the cap meets the target (mu = 0).
    while f_lo < -tol and iterations < _BISECTION_MAX_ITER:
        iterations += 1
        x = lo + 0.5 * (hi - lo)
        # The upper end stands for mu -> infinity, where s^H Q_b s flattens
        # out at lambda_max(Q_b): a secant step against it lands at a
        # multiplier near 1e9 whenever the target is that close to
        # lambda_max, while midpoint steps stop near the smallest multiplier
        # that meets it.  So secant steps start once an interior point has
        # replaced that end, and only while every three steps halve the
        # bracket.
        if hi < _MU_TILDE_MAX and hi - lo <= 0.5 * widths[-3]:
            secant = lo - f_lo * (hi - lo) / (f_hi - f_lo)
            if lo < secant < hi:
                x = secant
        widths.append(hi - lo)
        beta, s, g = pencil(x)
        if abs(g - target) < abs(best[3] - target):
            best = (x, beta, s, g)
        f = g - target
        if abs(f) <= tol:
            break
        # When one end is kept twice, scale its value down (Anderson-Bjorck,
        # falling back to Illinois's 1/2) so the secant point cannot creep in
        # from the other side.
        if f < 0:
            if kept == 1:
                f_hi *= _regula_falsi_scale(f, f_lo)
            lo, f_lo, kept = x, f, 1
        else:
            if kept == -1:
                f_lo *= _regula_falsi_scale(f, f_hi)
            hi, f_hi, kept = x, f, -1
        if not lo < lo + 0.5 * (hi - lo) < hi:
            break
    mu_tilde, beta, s, g = best
    if abs(g - target) > _BISECTION_EPSILON:
        raise NumericalError(
            "bisection did not reach the cap-active target",
            diagnostics={"gap": abs(g - target), "epsilon": _BISECTION_EPSILON,
                         "mu_tilde": mu_tilde, "iterations": iterations},
        )
    mu = mu_tilde / (1.0 - mu_tilde)
    resid = float(np.linalg.norm(
        (problem.q_eve + mu * np.eye(problem.dim)) @ s - beta * (problem.q_bob @ s)))
    if resid > _KKT_RESID_TOL:
        raise NumericalError(
            "cap-active design fails the stationarity check",
            diagnostics={"residual": resid, "mu": mu, "beta": beta,
                         "mu_tilde": mu_tilde, "iterations": iterations},
        )
    energy = min(problem.e_max, problem.gamma / g)
    return WaveformDesign(
        waveform=s, energy=energy, branch="bisection",
        info={"mu": mu, "beta": beta, "mu_tilde": mu_tilde,
              "target_gap": abs(g - target), "iterations": iterations,
              "s_qb_s": g},
    )


def design_p2p(problem):
    """Full known-CSI pipeline: feasibility gate, eigen branch, else bisection.

    Every returned design satisfies E * s^H Q_b s = gamma to ~1e-12 relative
    and E <= e_max; infeasible problems raise NoTransmitError.
    """
    design = eigen_design(problem)
    if design is None:
        design = kkt_bisection(problem)
    return design
