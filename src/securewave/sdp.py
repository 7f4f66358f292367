"""Self-contained dense SDP solver for small Hermitian trace-form programs.

Template (complex domain, dimension L):

    minimize    Tr(C X)
    subject to  Tr(A_k X) >= b_k,   k = 1..K
                Tr(X) <= c
                X >= 0  (Hermitian PSD)

solved natively on L x L Hermitian matrices by an infeasible-start
primal-dual predictor-corrector interior-point method with Nesterov-Todd
scaling.  The NT scaling comes from two Cholesky factors and one SVD (Todd,
Toh & Tutuncu, SIAM J. Optim. 1998, the scheme of SDPT3): with
Y = L_y L_y^H, S = L_s L_s^H and L_s^H L_y = U Sigma V^H, the matrix
G = L_y V Sigma^-1/2 maps both iterates to the diagonal Sigma
(G^-1 Y G^-H = G^H S G = Sigma).  The Lyapunov solve of the Newton system is
then elementwise, and step lengths are eigenvalues of
Sigma^-1/2 dM Sigma^-1/2 in the scaled space.

The inner product is 2 Re Tr(A B), the barrier degree is 2L + m (m linear
constraints) and the bounds are doubled: these are the values of the real
symmetric embedding X -> [[Re X, -Im X], [Im X, Re X]], so the iteration
follows that formulation's central path and stopping tests, while every
reported quantity is in the complex domain.  Dimensions are tiny (L <= 32,
K+1 linear constraints), so each iteration uses direct dense factorizations.

A stack of T programs of one shape is solved in lockstep: each iteration
runs every trial still going through one stacked call per factorization
(the NT Cholesky factors and SVD, the Schur factor and its solves, the
step-length eigenvalues), and a trial leaves the stack at the iteration
where its own solve stops.  The state is kept as per-trial arrays: one
dict of the trials still going, compacted as they leave, and one of each
trial's last recorded state, written each iteration.  Every stacked call
computes a trial's slice bit for bit as the call on that trial alone, and
the scalars of the iteration (step lengths, centring) come from elementwise
ufuncs, which round each trial's entry alone, so a trial's result (matrix,
objective, bound, iterations and error) does not depend on the stack it
sits in; an unstacked problem is the stack of one.

Every bound reported is the dual-iterate bound of Jansson, Chaykin & Keil
(SIAM J. Numer. Anal. 46, 2007), ``_dual_bound``, at the cap c (1 + _CAP_SLACK)
a design may use.  A failed solve is classified by the least energy meeting
every constraint (the same rows under objective I without the cap row,
strictly feasible when every A_k is PD), solved for a stack's failed trials
as a second stack: its bound above the cap certifies infeasibility, and
else its solution answers any objective.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import (
    DimensionError,
    NumericalError,
    SdpInfeasibleError,
    ValidationError,
)
from .kernel import hermitian_part, per_matrix, validate_hermitian
from .p2p import _CAP_SLACK
from .util import batch_of_one, take

__all__ = ["SdpProblem", "SdpSolution", "solve_sdp"]

_TOL = 1e-8
_MAX_ITERATIONS = 200
_STEP_DAMPING = 0.98
_MIN_STEP = 1e-10
# Iterates this many times the data scale have diverged (the dual of an
# infeasible program runs off geometrically); at that size roundoff alone
# exceeds every stopping tolerance, so the solve is over.
_DIVERGED = 1e20


@dataclass
class SdpProblem:
    """Trace-form Hermitian SDP instance (see module docstring); ``dim`` = L.

    A stack of T programs holds (T, L, L) matrices, and each bound and the
    cap as a scalar or one value per trial.
    """

    objective: np.ndarray
    constraints: tuple
    trace_cap: float

    def __post_init__(self):
        c = validate_hermitian(self.objective, "SDP objective")
        if len(self.constraints) < 1:
            raise ValidationError("at least one SINR constraint is required")
        checked = []
        for i, (a, b) in enumerate(self.constraints):
            a = validate_hermitian(a, f"constraint matrix {i}")
            if a.shape[-1] != c.shape[-1]:
                raise DimensionError(
                    f"constraint {i} dim {a.shape[-1]} != problem dim {c.shape[-1]}"
                )
            b = np.asarray(b, dtype=float)
            if not np.all((b > 0) & np.isfinite(b)):
                raise ValidationError(f"constraint bound {i} must be positive, got {b}")
            checked.append((a, float(b) if b.ndim == 0 else b))
        if not np.all((np.asarray(self.trace_cap) > 0) & np.isfinite(self.trace_cap)):
            raise ValidationError(f"trace cap must be positive, got {self.trace_cap}")
        self.objective = c
        self.constraints = tuple(checked)

    @property
    def dim(self):
        return self.objective.shape[-1]


@dataclass
class SdpSolution:
    """Certified solution: primal matrix, feasibility/gap certificates and a
    lower ``bound`` on Tr(C X) for Tr(X) <= trace_cap (1 + p2p._CAP_SLACK).
    ``least_energy`` marks a matrix (and gap) of the least-energy program.

    A stacked solution holds every field per trial, ``errors`` included:
    None, or the error that the trial's unstacked solve raises (its numbers
    are then NaN).  ``iterations`` is a plain int, summed over a stack.
    """

    matrix: np.ndarray
    objective: float
    bound: float
    duality_gap: float
    max_violation: float
    trial_iterations: int
    least_energy: bool = False
    errors: Optional[np.ndarray] = None

    @property
    def iterations(self):
        """Interior-point iterations of every program solved, over the stack."""
        return int(np.sum(self.trial_iterations))


def _inner(a, b):
    """2 Re Tr(A B) per trial of stacked Hermitian A, B."""
    return 2.0 * np.vecdot(b.reshape(len(b), -1), a.reshape(len(a), -1)).real


def _inner_stack(f_real, a):
    """(2 Re Tr(F_j A))_j per trial, with the stacks F given as their real
    view (T, m, 2n^2)."""
    return 2.0 * (f_real @ a.reshape(len(a), -1).view(float)[..., None])[..., 0]


def _combine(coef, f_mats):
    """sum_j coef_j F_j per trial: ``coef`` (..., m), ``f_mats`` (..., m, n, n)."""
    n = f_mats.shape[-1]
    flat = f_mats.reshape(f_mats.shape[:-2] + (n * n,))
    return (coef[..., None, :] @ flat)[..., 0, :].reshape(coef.shape[:-1] + (n, n))


def _diag(v):
    """The diagonal matrices of a stack of vectors, zero off the diagonal."""
    out = np.zeros(v.shape + v.shape[-1:])
    np.einsum("...ii->...i", out)[...] = v
    return out


def _nt_scaling(y, s):
    """Nesterov-Todd scaling of the Hermitian PD pairs (Y, S).

    Returns (G, sigma, failed) with G^-1 Y G^-H = G^H S G = diag(sigma);
    the NT point W = G G^H satisfies W S W = Y.  ``failed`` marks the pairs
    whose Cholesky factors or SVD fail (``per_matrix``).
    """
    l_y, y_failed = per_matrix(np.linalg.cholesky, y)
    l_s, s_failed = per_matrix(np.linalg.cholesky, s)
    (_, sigma, vh), svd_failed = per_matrix(np.linalg.svd, np.swapaxes(l_s.conj(), -1, -2) @ l_y)
    g = (l_y @ np.swapaxes(vh.conj(), -1, -2)) / np.sqrt(sigma)[..., None, :]
    return g, sigma, y_failed | s_failed | svd_failed


def _max_steps_scaled(inv_root, *directions):
    """Per direction d, the largest alpha with diag(sigma) + alpha * d PSD,
    given the matrices inv_root_ij = (sigma_i sigma_j)^-1/2, then the mask of
    the trials whose eigvalsh fails on some direction; one eigvalsh call for
    all of them."""
    values, failed = per_matrix(np.linalg.eigvalsh,
                                np.concatenate([d * inv_root for d in directions]))
    lo = values[:, 0]
    steps = np.divide(-1.0, lo, out=np.full(lo.shape, np.inf), where=~(lo >= 0))
    return *steps.reshape(len(directions), -1), failed.reshape(len(directions), -1).any(axis=0)


def _cho_solve(factor, b):
    """Solve A x = b per trial from the lower Cholesky factor of A (A = L L^T)."""
    lower = np.linalg.solve(factor, b[..., None])
    return np.linalg.solve(np.swapaxes(factor, -1, -2), lower)[..., 0]


def _schur_factor(kkt):
    """Cholesky factors of the Schur matrices, and the mask of those that
    fail: a matrix whose factor fails gets one retry with 1e-14 of its trace
    on the diagonal, and fails when that fails too."""
    factor, failed = per_matrix(np.linalg.cholesky, kkt)
    if failed.any():
        retry = kkt[failed]
        shift = 1e-14 * np.trace(retry, axis1=-2, axis2=-1)
        factor[failed], failed[failed] = per_matrix(
            np.linalg.cholesky, retry + shift[:, None, None] * np.eye(kkt.shape[-1]))
    return factor, failed


def _max_step_lp(x, dx):
    neg = dx < 0
    return np.divide(-x, dx, out=np.full(x.shape, np.inf), where=neg).min(axis=-1)


def _newton_step(live, degree):
    """One predictor-corrector step of every trial in the stack ``live``, a
    dict of per-trial iterates, residuals and mu, whose iterates it steps.

    Returns (failed, stalled): ``failed`` marks the trials whose
    factorization fails, as it does alone, and ``stalled`` those whose
    corrector steps both fall below ``_MIN_STEP``.  Their step is void: the
    caller retires them, and the identity fill keeps their iterates finite.
    """
    f_mats, y_mat, s_mat, t, z, rp, rd, rz, mu = (
        live[key] for key in ("F", "Y", "S", "t", "z", "rp", "rd", "rz", "mu"))
    trials, m, n = f_mats.shape[:3]
    f_real = f_mats.reshape(trials, m, -1).view(float)
    eye = np.eye(n)
    # Nesterov-Todd scaling: both iterates become diag(sigma), and the
    # scaled data F~_j = G^H F_j G = (F_j G)^H G give the Schur complement
    # in one GEMM.
    g, sigma, failed = _nt_scaling(y_mat, s_mat)
    g_h = np.swapaxes(g.conj(), -1, -2)
    f_g = (f_mats.reshape(trials, m * n, n) @ g).reshape(trials, m, n, n)
    f_sc = np.swapaxes(f_g.conj(), -1, -2).reshape(trials, m * n, n) @ g
    f_sc = f_sc.reshape(trials, m, n, n)
    f_sc_real = f_sc.reshape(trials, m, -1).view(float)
    kkt = 2.0 * (f_sc_real @ np.swapaxes(f_sc_real, -1, -2))
    kkt.reshape(trials, m * m)[:, :: m + 1] += t / z
    kkt_factor, schur_failed = _schur_factor(kkt)
    rd_sc = g_h @ rd @ g
    denom = sigma[:, :, None] + sigma[:, None, :]
    inv_root = 1.0 / np.sqrt(sigma[:, :, None] * sigma[:, None, :])

    def newton(rhs_psd, rhs_lp):
        """NT direction in the scaled space: (dY~, dS~, Z, dt, dy, dz)."""
        z_sc = 2.0 * rhs_psd / denom
        schur_rhs = rp - _inner_stack(f_sc_real, z_sc - rd_sc)
        schur_rhs += (rhs_lp - t * rz) / z
        dy = _cho_solve(kkt_factor, schur_rhs)
        ds_sc = rd_sc - _combine(dy, f_sc)
        dz = dy + rz
        dt = (rhs_lp - t * dz) / z
        return z_sc - ds_sc, ds_sc, z_sc, dt, dy, dz

    # Predictor (affine scaling) step, then Mehrotra corrector.
    dy_aff, ds_aff, _, dt_aff, _, dz_aff = newton(-_diag(sigma**2), -t * z)
    psd_p, psd_d, aff_failed = _max_steps_scaled(inv_root, dy_aff, ds_aff)
    ap = np.minimum(1.0, np.minimum(psd_p, _max_step_lp(t, dt_aff)))
    ad = np.minimum(1.0, np.minimum(psd_d, _max_step_lp(z, dz_aff)))
    gap_aff = _inner(_diag(sigma) + ap[:, None, None] * dy_aff,
                     _diag(sigma) + ad[:, None, None] * ds_aff)
    gap_aff += np.vecdot(t + ap[:, None] * dt_aff, z + ad[:, None] * dz_aff)
    mu_aff = np.maximum(gap_aff, 0.0) / degree
    # float_power runs libm's pow per element, as Python's ** does; np.power's SIMD loop differs.
    sigma_c = np.clip(np.float_power(mu_aff / mu, 3), 1e-10, 1.0 - 1e-10)

    centre = sigma_c * mu
    rhs_psd = centre[:, None, None] * eye - _diag(sigma**2) - hermitian_part(dy_aff @ ds_aff)
    rhs_lp = centre[:, None] - t * z - dt_aff * dz_aff
    dy_sc, ds_sc, z_sc, dt, dy, dz = newton(rhs_psd, rhs_lp)

    psd_p, psd_d, step_failed = _max_steps_scaled(inv_root, dy_sc, ds_sc)
    ap = np.minimum(1.0, _STEP_DAMPING * np.minimum(psd_p, _max_step_lp(t, dt)))
    ad = np.minimum(1.0, _STEP_DAMPING * np.minimum(psd_d, _max_step_lp(z, dz)))
    stalled = np.maximum(ap, ad) < _MIN_STEP
    # Both directions are formed in the original space, dY = G Z G^H -
    # W dS W with W = G G^H, and one step of iterative refinement
    # re-imposes the primal equations <F_j,dY> - dt_j = rp_j there: near
    # the optimum the Schur complement is ill-conditioned, and without
    # it the primal residual grows about tenfold per iteration.
    ds = rd - _combine(dy, f_mats)
    w = g @ g_h
    dy_mat = g @ z_sc @ g_h - w @ ds @ w
    fix = _cho_solve(kkt_factor, rp - _inner_stack(f_real, dy_mat) + dt)
    f_fix = _combine(fix, f_mats)
    dy_mat += w @ f_fix @ w
    ds -= f_fix
    dy += fix
    dz += fix
    dt -= t * fix / z
    # The refined LP directions can carry the full step out of t, z > 0,
    # where a negative t.z passes the gap test; damp only such a step.
    leaving = (t + ap[:, None] * dt <= 0).any(axis=-1)
    if leaving.any():
        ap = np.where(leaving, _STEP_DAMPING * _max_step_lp(t, dt), ap)
    leaving = (z + ad[:, None] * dz <= 0).any(axis=-1)
    if leaving.any():
        ad = np.where(leaving, _STEP_DAMPING * _max_step_lp(z, dz), ad)
    live["Y"] = hermitian_part(y_mat + ap[:, None, None] * dy_mat)
    live["t"] = t + ap[:, None] * dt
    live["y"] = live["y"] + ad[:, None] * dy
    live["S"] = hermitian_part(s_mat + ad[:, None, None] * ds)
    live["z"] = z + ad[:, None] * dz
    return failed | schur_failed | aff_failed | step_failed, stalled


def _retire(live, done):
    """The stack ``live`` without the trials in ``done``."""
    return {key: value[~done] for key, value in live.items()} if done.any() else live


def _solve_trace_form(f_mats, f_vals, c_mat):
    """Core IPM on a stack of T programs, each
    min <C,Y> s.t. <F_j,Y> - t_j = f_j, Y PSD, t >= 0.

    ``f_mats`` is a (T, m, n, n) stack of Hermitian matrices, ``f_vals``
    (T, m), ``c_mat`` (T, n, n), and <A,B> = 2 Re Tr(AB).  The trials step in
    lockstep, and each leaves the stack where its solve alone stops: at
    convergence, divergence, or a failed factorization or stalled step,
    each marked per trial by ``_newton_step``.  ``live`` holds the trials
    still going, compacted as they leave, and each iteration writes their
    state into ``out``, which is returned: per-trial arrays of the state
    last recorded (``Y``, ``t``, ``z``, ``y``, ``pobj``, ``gap``, ``pres``,
    ``dres``), ``iterations``, ``converged`` (every stopping test at ``_TOL``
    met) and ``duals`` (T, iterations, m), a stopped trial's last y repeated.
    """
    trials, m, n = f_mats.shape[:3]
    degree = 2 * n + m
    f_vals = np.asarray(f_vals, dtype=float)
    f_scale = np.maximum(1.0, np.max(np.abs(f_vals), axis=-1))
    c_norm = np.sqrt(_inner(c_mat, c_mat))
    c_scale = np.maximum(1.0, c_norm)
    start = np.maximum(1.0, f_scale / (2 * n))
    eye = np.eye(n)
    live = {
        "trial": np.arange(trials), "F": f_mats, "f": f_vals, "C": c_mat, "c_norm": c_norm,
        "diverged": _DIVERGED * np.maximum(f_scale, c_scale),
        "Y": eye * start[:, None, None] + 0j, "S": eye * c_scale[:, None, None] + 0j,
        "t": np.repeat(start[:, None], m, axis=1), "z": np.repeat(c_scale[:, None], m, axis=1),
        "y": np.zeros((trials, m)),
    }
    out = {"Y": np.zeros((trials, n, n), dtype=complex),
           **{key: np.zeros((trials, m)) for key in ("t", "z", "y")},
           **{key: np.zeros(trials) for key in ("pobj", "gap", "pres", "dres")},
           "iterations": np.zeros(trials, dtype=int), "converged": np.zeros(trials, dtype=bool)}
    duals = []
    for iterations in range(1, _MAX_ITERATIONS + 1):
        out["iterations"][live["trial"]] = iterations
        size = np.max([np.abs(live[key]).reshape(len(live[key]), -1).max(axis=1)
                       for key in ("Y", "S", "t", "z", "y")], axis=0)
        # Diverging iterates (typical of infeasible instances): the caller
        # classifies the failure from the last finite state recorded.
        live = _retire(live, ~(size < live["diverged"]))
        if not len(live["trial"]):
            break
        f_mats, f_vals, c_mat, y_mat, s_mat, t, z, y_dual = (
            live[key] for key in ("F", "f", "C", "Y", "S", "t", "z", "y"))
        live["rp"] = f_vals - (_inner_stack(f_mats.reshape(len(t), m, -1).view(float), y_mat) - t)
        live["rd"] = c_mat - _combine(y_dual, f_mats) - s_mat
        live["rz"] = y_dual - z
        pobj = _inner(c_mat, y_mat)
        state = {
            "Y": y_mat, "t": t, "z": z, "y": y_dual, "pobj": pobj,
            "gap": _inner(y_mat, s_mat) + np.vecdot(t, z),
            "pres": np.max(np.abs(live["rp"]), axis=-1),
            "dres": np.sqrt(_inner(live["rd"], live["rd"])) / (1.0 + live["c_norm"]),
        }
        for key, value in state.items():
            out[key][live["trial"]] = value
        duals.append(out["y"].copy())
        live["mu"] = state["gap"] / degree
        obj_scale = 1.0 + np.abs(pobj)
        converged = (
            (state["pres"] <= 2.0 * _TOL)
            & (np.max(np.abs(live["rz"]), axis=-1) <= 2.0 * _TOL)
            & (state["dres"] <= _TOL)
            & (state["gap"] <= _TOL * obj_scale)
            & (np.abs(pobj - np.vecdot(f_vals, y_dual)) <= _TOL * obj_scale)
        )
        out["converged"][live["trial"]] = converged
        live = _retire(live, converged)
        if not len(live["trial"]):
            break
        failed, stalled = _newton_step(live, degree)
        live = _retire(live, failed | stalled)
        if not len(live["trial"]):
            break
    out["duals"] = np.stack(duals, axis=1)
    return out


def _dual_bound(y, f_mats, f_vals, c_mat, cap):
    """Lower bound on Tr(C X) over every X >= 0 with Tr(X) <= cap that meets
    the rows <F_j, X> >= f_j (a cap row with f_j = -2 cap): with y+ = max(y, 0)
    the clipped dual iterate and S = C - sum_j y+_j F_j, Tr(C X) = Tr(S X) +
    1/2 sum_j y+_j <F_j, X> >= min(0, lambda_min(S)) cap + 1/2 f.y+.
    Every argument may carry leading stack axes."""
    y = np.maximum(y, 0.0)
    slack = np.linalg.eigvalsh(c_mat - _combine(y, f_mats))[..., 0]
    return 0.5 * np.vecdot(f_vals, y) + np.minimum(slack, 0.0) * cap


def _classify(main, least, f_mats, rows, bound_rows, c_mat, cap):
    """A failed main solve's error, or None and its bound when the
    least-energy program's solution ``least`` answers it; ``main`` and
    ``least`` are one trial of ``_solve_trace_form``'s result each."""
    if not least["converged"]:
        return NumericalError(
            "least-energy program did not converge",
            diagnostics={k: least[k] for k in ("pres", "dres", "gap")}
            | {"iterations": int(least["iterations"])},
        ), np.nan
    eye = np.eye(c_mat.shape[-1])
    diagnostics = {
        "energy_bound": float(_dual_bound(least["y"], f_mats[:-1], rows, eye, cap)),
        "energy_trace": 0.5 * least["pobj"],
        "trace_cap": cap,
        "main_pres": main["pres"],
        "main_gap": main["gap"],
        "iterations": int(main["iterations"]),
    }
    if diagnostics["energy_bound"] > cap:
        return SdpInfeasibleError(
            "SDP has no feasible point (least energy >= "
            f"{diagnostics['energy_bound']:.6e} > trace cap {cap:.6e})",
            diagnostics=diagnostics,
        ), np.nan
    # Its solution answers the problem when it fits the cap: its rows hold
    # to _TOL and Y is PD, so only the cap can break the violation contract.
    if diagnostics["energy_trace"] > cap + _TOL:
        return NumericalError(
            f"trace cap {cap:.12e} lies in the least-energy program's precision band "
            "[{energy_bound:.12e}, {energy_trace:.12e}]".format(**diagnostics),
            diagnostics=diagnostics,
        ), np.nan
    # Every dual iterate bounds the program, and the last one of a failed
    # solve can be far weaker than an earlier one: take the best of them and
    # of the least-energy program's.
    design_cap = cap * (1.0 + _CAP_SLACK)
    iterates = _dual_bound(main["duals"], f_mats, bound_rows, c_mat, design_cap)
    return None, max([*iterates, _dual_bound(least["y"], f_mats[:-1], rows, c_mat, design_cap)])


def solve_sdp(problem):
    """Solve the trace-form Hermitian SDP, or a stack of them, to certified
    tolerance.

    Returns an SdpSolution whose feasibility violations (on each constraint,
    on the trace cap, and on lambda_min(X)) are at most ``_TOL`` (1e-8)
    absolute and whose duality gap is at most ``_TOL * (1 + |objective|)``,
    within ``_MAX_ITERATIONS`` (200) interior-point iterations per program.
    A failed solve returns the least-energy program's matrix when its trace
    fits the cap (``least_energy``), with the largest bound of the main
    program's dual iterates and the least-energy program's.  Fails with
    SdpInfeasibleError (``energy_bound`` > ``trace_cap``) without a feasible
    point, and NumericalError when the least-energy program fails or the cap
    lies in its precision band, bound to trace: an unstacked solve raises
    the error, and a stack returns each trial's in ``errors``.
    """
    if not isinstance(problem, SdpProblem):
        raise ValidationError("solve_sdp expects an SdpProblem")
    if problem.objective.ndim == 2:
        return batch_of_one(solve_sdp(replace(
            problem, objective=problem.objective[None],
            constraints=tuple((a[None], b) for a, b in problem.constraints))))
    c_mat = problem.objective
    trials, dim = c_mat.shape[:2]
    cap = np.broadcast_to(np.asarray(problem.trace_cap, dtype=float), (trials,))
    design_cap = cap * (1.0 + _CAP_SLACK)
    f_mats = np.stack([a for a, _ in problem.constraints]
                      + [np.broadcast_to(-np.eye(dim), c_mat.shape)], axis=1)
    rows = np.stack([np.broadcast_to(2.0 * np.asarray(b), (trials,))
                     for _, b in problem.constraints], axis=-1)
    main = _solve_trace_form(f_mats, np.column_stack([rows, -2.0 * cap]), c_mat)
    bound_rows = np.column_stack([rows, -2.0 * design_cap])
    bound = _dual_bound(main["y"], f_mats, bound_rows, c_mat, design_cap)

    least_energy = ~main["converged"]
    errors = np.full(trials, None)
    x, gap, iterations = (main[key].copy() for key in ("Y", "gap", "iterations"))
    failed = np.flatnonzero(least_energy)
    if len(failed):
        # Classify the failures with the capless least-energy program, the
        # failed trials solved as one more stack.
        eye = np.repeat(np.eye(dim)[None], len(failed), axis=0)
        least = _solve_trace_form(f_mats[failed, :-1], rows[failed], eye)
        for k, trial in enumerate(failed):
            errors[trial], bound[trial] = _classify(
                take(main, trial), take(least, k), f_mats[trial], rows[trial],
                bound_rows[trial], c_mat[trial], float(cap[trial]))
        x[failed], gap[failed] = least["Y"], least["gap"]
        iterations[failed] += least["iterations"]

    ok = np.equal(errors, None)
    x = hermitian_part(np.where(ok[:, None, None], x, 0.0))

    def trace(a):
        return np.trace(a, axis1=-2, axis2=-1).real

    violations = [np.maximum(b - trace(a @ x), 0.0) for a, b in problem.constraints]
    violations.append(np.maximum(trace(x) - cap, 0.0))
    violations.append(np.maximum(-np.linalg.eigvalsh(x)[:, 0], 0.0))
    x[~ok] = np.nan

    def numbers(values):
        return np.where(ok, values, np.nan)

    return SdpSolution(
        matrix=x,
        objective=numbers(trace(c_mat @ x)),
        bound=numbers(bound),
        duality_gap=numbers(0.5 * gap),
        max_violation=numbers(np.max(violations, axis=0)),
        trial_iterations=iterations,
        least_energy=least_energy & ok,
        errors=errors,
    )
