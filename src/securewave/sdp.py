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

Every bound reported is the dual-iterate bound of Jansson, Chaykin & Keil
(SIAM J. Numer. Anal. 46, 2007), ``_dual_bound``, at the cap c (1 + _CAP_SLACK)
a design may use.  A failed solve is classified by the least energy meeting
every constraint (the same rows under objective I without the cap row,
strictly feasible when every A_k is PD): its bound above the cap certifies
infeasibility, and else its solution answers any objective.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    NumericalError,
    SdpInfeasibleError,
    ValidationError,
)
from .kernel import hermitian_part, validate_hermitian
from .p2p import _CAP_SLACK

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
    """Trace-form Hermitian SDP instance (see module docstring); ``dim`` = L."""

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
            if a.shape[0] != c.shape[0]:
                raise DimensionError(
                    f"constraint {i} dim {a.shape[0]} != problem dim {c.shape[0]}"
                )
            if not (b > 0 and np.isfinite(b)):
                raise ValidationError(f"constraint bound {i} must be positive, got {b}")
            checked.append((a, float(b)))
        if not (self.trace_cap > 0 and np.isfinite(self.trace_cap)):
            raise ValidationError(f"trace cap must be positive, got {self.trace_cap}")
        self.objective = c
        self.constraints = tuple(checked)

    @property
    def dim(self):
        return self.objective.shape[0]


@dataclass
class SdpSolution:
    """Certified solution: primal matrix, feasibility/gap certificates and a
    lower ``bound`` on Tr(C X) for Tr(X) <= trace_cap (1 + p2p._CAP_SLACK).
    ``least_energy`` marks a matrix (and gap) of the least-energy program."""

    matrix: np.ndarray
    objective: float
    bound: float
    duality_gap: float
    max_violation: float
    iterations: int
    least_energy: bool = False


def _inner(a, b):
    """2 Re Tr(A B) for Hermitian A, B."""
    return 2.0 * float(np.vdot(b, a).real)


def _inner_stack(f_real, a):
    """(2 Re Tr(F_j A))_j, with the stack F given as its real view (m, 2n^2)."""
    return 2.0 * (f_real @ a.reshape(-1).view(float))


def _combine(coef, f_stack):
    """sum_j coef_j F_j for an (m, n, n) stack."""
    return (coef @ f_stack.reshape(len(coef), -1)).reshape(f_stack.shape[1:])


def _nt_scaling(y, s):
    """Nesterov-Todd scaling of the Hermitian PD pair (Y, S).

    Returns (G, sigma) with G^-1 Y G^-H = G^H S G = diag(sigma); the NT point
    W = G G^H satisfies W S W = Y.
    """
    l_y = np.linalg.cholesky(y)
    l_s = np.linalg.cholesky(s)
    _, sigma, vh = np.linalg.svd(l_s.conj().T @ l_y)
    return (l_y @ vh.conj().T) / np.sqrt(sigma), sigma


def _max_step_scaled(inv_root, d):
    """Largest alpha with diag(sigma) + alpha * d PSD, given the matrix
    inv_root_ij = (sigma_i sigma_j)^-1/2."""
    lo = np.linalg.eigvalsh(d * inv_root)[0]
    if lo >= 0:
        return np.inf
    return -1.0 / lo


def _cho_solve(factor, b):
    """Solve A x = b from the lower Cholesky factor of A (A = L L^T)."""
    return np.linalg.solve(factor.T, np.linalg.solve(factor, b))


def _max_step_lp(x, dx):
    neg = dx < 0
    return float(np.min(-x[neg] / dx[neg], initial=np.inf))


def _solve_trace_form(f_mats, f_vals, c_mat):
    """Core IPM on: min <C,Y> s.t. <F_j,Y> - t_j = f_j, Y PSD, t >= 0.

    ``f_mats`` is an (m, n, n) stack of Hermitian matrices and
    <A,B> = 2 Re Tr(AB).  Returns the final state dict; ``converged``
    signals whether every stopping test at ``_TOL`` was met, and ``duals``
    lists the dual iterate y of every state reached.
    """
    m, n = f_mats.shape[:2]
    degree = 2 * n + m
    f_real = f_mats.reshape(m, -1).view(float)
    f_vals = np.asarray(f_vals, dtype=float)

    f_scale = max(1.0, float(np.max(np.abs(f_vals))))
    c_norm = np.sqrt(_inner(c_mat, c_mat))
    c_scale = max(1.0, c_norm)
    diverged = _DIVERGED * max(f_scale, c_scale)
    eye = np.eye(n)
    y_mat = eye * max(1.0, f_scale / (2 * n)) + 0j
    s_mat = eye * c_scale + 0j
    t = np.full(m, max(1.0, f_scale / (2 * n)))
    z = np.full(m, c_scale)
    y_dual = np.zeros(m)

    state, duals = {}, []
    converged = False
    iterations = 0
    for iterations in range(1, _MAX_ITERATIONS + 1):
        size = np.max([np.max(np.abs(a)) for a in (y_mat, s_mat, t, z, y_dual)])
        if not size < diverged:
            # diverging iterates (typical of infeasible instances): hand the
            # last finite state to the caller, which classifies the failure
            break
        rp = f_vals - (_inner_stack(f_real, y_mat) - t)
        rd = c_mat - _combine(y_dual, f_mats) - s_mat
        rz = y_dual - z

        pobj = _inner(c_mat, y_mat)
        dobj = float(f_vals @ y_dual)
        gap = _inner(y_mat, s_mat) + float(t @ z)
        mu = gap / degree

        pres = float(np.max(np.abs(rp)))
        dres = np.sqrt(_inner(rd, rd)) / (1.0 + c_norm)
        zres = float(np.max(np.abs(rz)))
        obj_scale = 1.0 + abs(pobj)
        state = {
            "Y": y_mat, "S": s_mat, "t": t, "z": z, "y": y_dual,
            "pobj": pobj, "dobj": dobj, "gap": gap,
            "pres": pres, "dres": dres, "zres": zres,
        }
        duals.append(y_dual)
        if (
            pres <= 2.0 * _TOL
            and zres <= 2.0 * _TOL
            and dres <= _TOL
            and gap <= _TOL * obj_scale
            and abs(pobj - dobj) <= _TOL * obj_scale
        ):
            converged = True
            break

        # Nesterov-Todd scaling: both iterates become diag(sigma), and the
        # scaled data F~_j = G^H F_j G = (F_j G)^H G give the Schur complement
        # in one GEMM.
        try:
            g, sigma = _nt_scaling(y_mat, s_mat)
        except (np.linalg.LinAlgError, ValueError):
            break
        g_h = g.conj().T
        f_g = (f_mats.reshape(m * n, n) @ g).reshape(m, n, n)
        f_sc = (f_g.conj().transpose(0, 2, 1).reshape(m * n, n) @ g).reshape(m, n, n)
        f_sc_real = f_sc.reshape(m, -1).view(float)
        kkt = 2.0 * (f_sc_real @ f_sc_real.T)
        kkt[np.diag_indices(m)] += t / z
        try:
            kkt_factor = np.linalg.cholesky(kkt)
        except np.linalg.LinAlgError:
            try:
                kkt_factor = np.linalg.cholesky(kkt + (1e-14 * np.trace(kkt)) * np.eye(m))
            except np.linalg.LinAlgError:
                break
        rd_sc = g_h @ rd @ g
        denom = sigma[:, None] + sigma[None, :]
        inv_root = 1.0 / np.sqrt(np.outer(sigma, sigma))

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
        try:
            dy_aff, ds_aff, _, dt_aff, _, dz_aff = newton(-np.diag(sigma**2), -t * z)
            ap = min(1.0, _max_step_scaled(inv_root, dy_aff), _max_step_lp(t, dt_aff))
            ad = min(1.0, _max_step_scaled(inv_root, ds_aff), _max_step_lp(z, dz_aff))
            gap_aff = _inner(np.diag(sigma) + ap * dy_aff, np.diag(sigma) + ad * ds_aff)
            gap_aff += float((t + ap * dt_aff) @ (z + ad * dz_aff))
            mu_aff = max(gap_aff, 0.0) / degree
            sigma_c = float(np.clip((mu_aff / mu) ** 3, 1e-10, 1.0 - 1e-10))

            rhs_psd = (sigma_c * mu) * eye - np.diag(sigma**2) - hermitian_part(dy_aff @ ds_aff)
            rhs_lp = sigma_c * mu - t * z - dt_aff * dz_aff
            dy_sc, ds_sc, z_sc, dt, dy, dz = newton(rhs_psd, rhs_lp)

            ap = min(1.0, _STEP_DAMPING * min(_max_step_scaled(inv_root, dy_sc),
                                              _max_step_lp(t, dt)))
            ad = min(1.0, _STEP_DAMPING * min(_max_step_scaled(inv_root, ds_sc),
                                              _max_step_lp(z, dz)))
        except (np.linalg.LinAlgError, ValueError):
            break
        if max(ap, ad) < _MIN_STEP:
            break
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
        y_mat = hermitian_part(y_mat + ap * dy_mat)
        t = t + ap * dt
        y_dual = y_dual + ad * dy
        s_mat = hermitian_part(s_mat + ad * ds)
        z = z + ad * dz

    state["iterations"] = iterations
    state["converged"] = converged
    state["duals"] = duals
    return state


def _dual_bound(y, f_mats, f_vals, c_mat, cap):
    """Lower bound on Tr(C X) over every X >= 0 with Tr(X) <= cap that meets
    the rows <F_j, X> >= f_j (a cap row with f_j = -2 cap): with y+ = max(y, 0)
    the clipped dual iterate and S = C - sum_j y+_j F_j, Tr(C X) = Tr(S X) +
    1/2 sum_j y+_j <F_j, X> >= min(0, lambda_min(S)) cap + 1/2 f.y+."""
    y = np.maximum(y, 0.0)
    slack = np.linalg.eigvalsh(c_mat - _combine(y, f_mats))[0]
    return 0.5 * float(f_vals @ y) + min(0.0, float(slack)) * cap


def solve_sdp(problem):
    """Solve the trace-form Hermitian SDP to certified tolerance.

    Returns an SdpSolution whose feasibility violations (on each constraint,
    on the trace cap, and on lambda_min(X)) are at most ``_TOL`` (1e-8)
    absolute and whose duality gap is at most ``_TOL * (1 + |objective|)``,
    within ``_MAX_ITERATIONS`` (200) interior-point iterations per program.
    A failed solve returns the least-energy program's matrix when its trace
    fits the cap (``least_energy``), with the largest bound of the main
    program's dual iterates and the least-energy program's.  Raises
    SdpInfeasibleError (``energy_bound`` > ``trace_cap``) without a feasible
    point, and NumericalError when the least-energy program fails or the cap
    lies in its precision band, bound to trace.
    """
    if not isinstance(problem, SdpProblem):
        raise ValidationError("solve_sdp expects an SdpProblem")
    c_mat, cap = problem.objective, problem.trace_cap
    design_cap = cap * (1.0 + _CAP_SLACK)
    f_mats = np.stack([a for a, _ in problem.constraints] + [-np.eye(problem.dim)])
    rows = np.array([2.0 * b for _, b in problem.constraints])
    state = _solve_trace_form(f_mats, np.append(rows, -2.0 * cap), c_mat)
    bound_rows = np.append(rows, -2.0 * design_cap)
    bound = _dual_bound(state["y"], f_mats, bound_rows, c_mat, design_cap)

    least_energy = not state["converged"]
    if least_energy:
        # Classify the failure with the capless least-energy program.
        eye = np.eye(problem.dim)
        least = _solve_trace_form(f_mats[:-1], rows, eye)
        if not least["converged"]:
            raise NumericalError(
                "least-energy program did not converge",
                diagnostics={k: least[k] for k in ("pres", "dres", "gap", "iterations")},
            )
        diagnostics = {
            "energy_bound": _dual_bound(least["y"], f_mats[:-1], rows, eye, cap),
            "energy_trace": 0.5 * least["pobj"],
            "trace_cap": cap,
            "main_pres": state["pres"],
            "main_gap": state["gap"],
            "iterations": state["iterations"],
        }
        if diagnostics["energy_bound"] > cap:
            raise SdpInfeasibleError(
                "SDP has no feasible point (least energy >= "
                f"{diagnostics['energy_bound']:.6e} > trace cap {cap:.6e})",
                diagnostics=diagnostics,
            )
        # Its solution answers the problem when it fits the cap: its rows
        # hold to _TOL and Y is PD, so only the cap can break the violation
        # contract.
        if diagnostics["energy_trace"] > cap + _TOL:
            raise NumericalError(
                f"trace cap {cap:.12e} lies in the least-energy program's precision band "
                "[{energy_bound:.12e}, {energy_trace:.12e}]".format(**diagnostics),
                diagnostics=diagnostics,
            )
        # Every dual iterate bounds the program, and the last one of a failed
        # solve can be far weaker than an earlier one: take the best of them
        # and of the least-energy program's.
        bound = max([_dual_bound(y, f_mats, bound_rows, c_mat, design_cap)
                     for y in state["duals"]]
                    + [_dual_bound(least["y"], f_mats[:-1], rows, c_mat, design_cap)])
        least["iterations"] += state["iterations"]
        state = least

    x = hermitian_part(state["Y"])
    violations = [
        max(0.0, b - float(np.real(np.trace(a @ x))))
        for a, b in problem.constraints
    ]
    violations.append(max(0.0, float(np.real(np.trace(x))) - cap))
    violations.append(max(0.0, -float(np.linalg.eigvalsh(x)[0])))
    return SdpSolution(
        matrix=x,
        objective=float(np.real(np.trace(c_mat @ x))),
        bound=bound,
        duality_gap=0.5 * state["gap"],
        max_violation=float(max(violations)),
        iterations=state["iterations"],
        least_energy=least_energy,
    )
