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

Strict-feasibility detection: when the main solve stalls, a phase-1 program
(maximize the minimum constraint slack, posed in the same template via two
extra diagonal entries encoding a free scalar) certifies infeasibility or
genuine numerical failure.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import (
    DimensionError,
    NumericalError,
    SdpInfeasibleError,
    ValidationError,
)
from .kernel import validate_hermitian

__all__ = ["SdpProblem", "SdpSolution", "solve_sdp"]

_STEP_DAMPING = 0.98
_MIN_STEP = 1e-10
# Iterates this many times the data scale have diverged (the dual of an
# infeasible program runs off geometrically); at that size roundoff alone
# exceeds every stopping tolerance, so the solve is over.
_DIVERGED = 1e20


@dataclass
class SdpProblem:
    """Trace-form Hermitian SDP instance (see module docstring)."""

    objective: np.ndarray
    constraints: tuple
    trace_cap: float
    dim: int

    def __post_init__(self):
        c = validate_hermitian(self.objective, "SDP objective")
        if c.shape[0] != self.dim:
            raise DimensionError(
                f"objective dim {c.shape[0]} does not match declared dim {self.dim}"
            )
        if len(self.constraints) < 1:
            raise ValidationError("at least one SINR constraint is required")
        checked = []
        for i, (a, b) in enumerate(self.constraints):
            a = validate_hermitian(a, f"constraint matrix {i}")
            if a.shape[0] != self.dim:
                raise DimensionError(
                    f"constraint {i} dim {a.shape[0]} != problem dim {self.dim}"
                )
            if not (b > 0 and np.isfinite(b)):
                raise ValidationError(f"constraint bound {i} must be positive, got {b}")
            checked.append((a, float(b)))
        if not (self.trace_cap > 0 and np.isfinite(self.trace_cap)):
            raise ValidationError(f"trace cap must be positive, got {self.trace_cap}")
        self.objective = c
        self.constraints = tuple(checked)


@dataclass
class SdpSolution:
    """Certified solution: primal matrix plus feasibility/gap certificates."""

    matrix: np.ndarray
    objective: float
    duality_gap: float
    max_violation: float
    iterations: int


def _herm(a):
    return 0.5 * (a + a.conj().T)


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


def _max_step_lp(x, dx):
    neg = dx < 0
    return float(np.min(-x[neg] / dx[neg], initial=np.inf))


def _solve_trace_form(f_mats, f_vals, c_mat, tol_feas, tol_gap, max_iterations):
    """Core IPM on: min <C,Y> s.t. <F_j,Y> - t_j = f_j, Y PSD, t >= 0.

    ``f_mats`` is an (m, n, n) stack of Hermitian matrices and
    <A,B> = 2 Re Tr(AB).  Returns the final state dict; ``converged``
    signals whether every stopping criterion was met.
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

    state = {}
    converged = False
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        size = np.max([np.max(np.abs(a)) for a in (y_mat, s_mat, t, z, y_dual)])
        if not size < diverged:
            # diverging iterates (typical of infeasible instances): hand the
            # last finite state to the phase-1 certification path
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
            "iterations": iterations - 1,
        }
        if (
            pres <= tol_feas
            and zres <= tol_feas
            and dres <= tol_gap
            and gap <= tol_gap * obj_scale
            and abs(pobj - dobj) <= tol_gap * obj_scale
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
        kkt_factor, info = dpotrf(kkt, lower=1)
        if info != 0:
            kkt_factor, info = dpotrf(kkt + (1e-14 * np.trace(kkt)) * np.eye(m), lower=1)
            if info != 0:
                break
        rd_sc = g_h @ rd @ g
        denom = sigma[:, None] + sigma[None, :]
        inv_root = 1.0 / np.sqrt(np.outer(sigma, sigma))

        def newton(rhs_psd, rhs_lp):
            """NT direction in the scaled space: (dY~, dS~, Z, dt, dy, dz)."""
            z_sc = 2.0 * rhs_psd / denom
            schur_rhs = rp - _inner_stack(f_sc_real, z_sc - rd_sc)
            schur_rhs += (rhs_lp - t * rz) / z
            dy = dpotrs(kkt_factor, schur_rhs, lower=1)[0]
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

            rhs_psd = (sigma_c * mu) * eye - np.diag(sigma**2) - _herm(dy_aff @ ds_aff)
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
        fix = dpotrs(kkt_factor, rp - _inner_stack(f_real, dy_mat) + dt, lower=1)[0]
        f_fix = _combine(fix, f_mats)
        dy_mat += w @ f_fix @ w
        ds -= f_fix
        dy += fix
        dz += fix
        dt -= t * fix / z
        y_mat = _herm(y_mat + ap * dy_mat)
        t = t + ap * dt
        y_dual = y_dual + ad * dy
        s_mat = _herm(s_mat + ad * ds)
        z = z + ad * dz

    state["iterations"] = iterations
    state["converged"] = converged
    return state


def _phase1_bounds(problem, tol, max_iterations):
    """Solve max-min-slack and return (lower, upper) bounds on the optimum.

    The free slack scalar theta is encoded as the difference of two extra
    diagonal PSD entries, which keeps the program inside the solver's own
    template: maximize theta s.t. Tr(A_k X) - theta >= b_k and
    Tr(X) + theta <= c.
    """
    dim, k = problem.dim, len(problem.constraints)
    f_mats = np.zeros((k + 2, dim + 2, dim + 2), dtype=complex)
    f_mats[:k, :dim, :dim] = [a for a, _ in problem.constraints]
    f_mats[k, :dim, :dim] = -np.eye(dim)
    f_mats[:k + 1, -2, -2] = -1.0
    f_mats[:k + 1, -1, -1] = 1.0
    cap = 2.0 * (problem.trace_cap + max(b for _, b in problem.constraints)) + 1.0
    f_mats[k + 1] = -np.eye(dim + 2)
    f_vals = [2.0 * b for _, b in problem.constraints]
    f_vals += [-2.0 * problem.trace_cap, -2.0 * cap]
    c_mat = np.zeros((dim + 2, dim + 2), dtype=complex)
    c_mat[-2, -2], c_mat[-1, -1] = -1.0, 1.0

    state = _solve_trace_form(f_mats, f_vals, c_mat, 2.0 * tol, tol, max_iterations)
    if not state["converged"]:
        raise NumericalError(
            "phase-1 feasibility program did not converge",
            diagnostics={k: state[k] for k in ("pres", "dres", "gap", "iterations")},
        )
    theta_lower = -0.5 * state["pobj"]
    theta_upper = -0.5 * state["dobj"] + tol
    return theta_lower, theta_upper


def solve_sdp(problem, tol=1e-8, max_iterations=200):
    """Solve the trace-form Hermitian SDP to certified tolerance.

    Returns an SdpSolution whose feasibility violations (on each constraint,
    on the trace cap, and on lambda_min(X)) are at most ``tol`` absolute and
    whose duality gap is at most ``tol * (1 + |objective|)``.  Raises
    SdpInfeasibleError with a phase-1 report when no strictly feasible point
    exists, and NumericalError when the iteration stalls on a feasible
    problem.
    """
    if not isinstance(problem, SdpProblem):
        raise ValidationError("solve_sdp expects an SdpProblem")
    f_mats = np.stack([a for a, _ in problem.constraints] + [-np.eye(problem.dim)])
    f_vals = [2.0 * b for _, b in problem.constraints] + [-2.0 * problem.trace_cap]
    state = _solve_trace_form(f_mats, f_vals, problem.objective,
                              2.0 * tol, tol, max_iterations)

    if not state["converged"]:
        theta_lower, theta_upper = _phase1_bounds(problem, tol, max_iterations)
        report = {
            "theta_lower": theta_lower,
            "theta_upper": theta_upper,
            "main_pres": state["pres"],
            "main_gap": state["gap"],
            "iterations": state["iterations"],
        }
        if theta_upper < tol:
            raise SdpInfeasibleError(
                "SDP has no strictly feasible point "
                f"(max min-slack <= {theta_upper:.3e})",
                report=report,
            )
        raise NumericalError(
            "SDP solve stalled on a feasible problem", diagnostics=report
        )

    x = _herm(state["Y"])
    objective = float(np.real(np.trace(problem.objective @ x)))
    violations = [
        max(0.0, b - float(np.real(np.trace(a @ x))))
        for a, b in problem.constraints
    ]
    violations.append(max(0.0, float(np.real(np.trace(x))) - problem.trace_cap))
    violations.append(max(0.0, -float(np.linalg.eigvalsh(x)[0])))
    return SdpSolution(
        matrix=x,
        objective=objective,
        duality_gap=0.5 * state["gap"],
        max_violation=float(max(violations)),
        iterations=state["iterations"],
    )
