"""SDP solver tests: analytic optima, certificates, infeasibility detection."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import securewave.channel as ch
import securewave.sdp as sdp
from securewave.errors import NumericalError, SdpInfeasibleError, ValidationError
from securewave.p2p import P2pProblem, check_feasibility, design_p2p
from securewave.sdp import SdpProblem, _schur_factor, solve_sdp
from securewave.sdr import MulticastProblem, build_lifted_sdp, multicast_design


def hermitian(rng, dim, floor=0.1):
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    return g @ g.conj().T + floor * np.eye(dim)


def wiretap_qs(seed, chips=8):
    cfg = ch.ScenarioConfig(chips=chips, paths=3)
    trial = ch.draw_wiretap_trial(cfg, np.random.default_rng(seed))
    return trial.bobs[0].q, trial.eve.q


class TestAnalyticOptima:
    def test_min_energy_diagonal(self):
        # objective Tr(X) with Tr(diag(4,1) X) >= 8: optimum X = 2 e1 e1^H
        problem = SdpProblem(objective=np.eye(2, dtype=complex),
                             constraints=((np.diag([4.0 + 0j, 1.0]), 8.0),),
                             trace_cap=100.0)
        sol = solve_sdp(problem)
        npt.assert_allclose(sol.objective, 2.0, rtol=1e-7)
        npt.assert_allclose(sol.matrix[0, 0].real, 2.0, rtol=1e-6)
        assert abs(sol.matrix[1, 1]) <= 1e-6

    def test_matches_top_eigenvalue_rule(self):
        rng = np.random.default_rng(0)
        q = hermitian(rng, 5)
        gamma = 3.0
        problem = SdpProblem(objective=np.eye(5, dtype=complex),
                             constraints=((q, gamma),), trace_cap=1e3)
        sol = solve_sdp(problem)
        expected = gamma / np.linalg.eigvalsh(q)[-1]
        npt.assert_allclose(sol.objective, expected, rtol=1e-7)

    def test_two_diagonal_constraints(self):
        # min x11 + x22 s.t. 4 x11 >= 4 and 2 x22 >= 2: optimum diag(1, 1)
        problem = SdpProblem(
            objective=np.eye(2, dtype=complex),
            constraints=((np.diag([4.0 + 0j, 0.0]), 4.0), (np.diag([0.0 + 0j, 2.0]), 2.0)),
            trace_cap=10.0)
        sol = solve_sdp(problem)
        npt.assert_allclose(sol.objective, 2.0, rtol=1e-7)
        npt.assert_allclose(np.diag(sol.matrix).real, [1.0, 1.0], rtol=1e-6)


class TestAgainstDesignP2p:
    def test_k1_objective_agreement(self):
        checked = 0
        for seed in range(25):
            q_bob, q_eve = wiretap_qs(seed)
            gamma = float(10 ** np.random.default_rng(seed).uniform(0, 1))
            p2p = P2pProblem(q_bob=q_bob, q_eve=q_eve, gamma=gamma, e_max=100.0)
            if not check_feasibility(p2p):
                continue
            design = design_p2p(p2p)
            reference = design.energy * np.real(
                design.waveform.conj() @ q_eve @ design.waveform
            )
            problem = SdpProblem(objective=q_eve, constraints=((q_bob, gamma),),
                                 trace_cap=100.0)
            sol = solve_sdp(problem)
            assert abs(sol.objective - reference) / reference <= 1e-6
            checked += 1
        assert checked >= 20

    def test_cap_active_instance_agreement(self):
        from securewave.kernel import generalized_eigh

        q_bob, q_eve = wiretap_qs(21, chips=4)
        gamma = 2.0
        s_eigen = generalized_eigh(q_eve, q_bob)[1][:, 0]
        g_eigen = float(np.real(s_eigen.conj() @ q_bob @ s_eigen))
        lam_max = float(np.linalg.eigvalsh(q_bob)[-1])
        p = P2pProblem(q_bob=q_bob, q_eve=q_eve, gamma=gamma,
                       e_max=float(gamma / np.sqrt(g_eigen * lam_max)))
        design = design_p2p(p)
        reference = design.energy * np.real(design.waveform.conj() @ p.q_eve @ design.waveform)
        problem = SdpProblem(objective=p.q_eve, constraints=((p.q_bob, p.gamma),),
                             trace_cap=p.e_max)
        sol = solve_sdp(problem)
        assert abs(sol.objective - reference) / reference <= 1e-6


class TestCertificates:
    def test_feasibility_within_tolerance(self):
        rng = np.random.default_rng(5)
        qs = [hermitian(rng, 6) for _ in range(3)]
        problem = SdpProblem(objective=hermitian(rng, 6),
                             constraints=tuple((q, 1.0 + i) for i, q in enumerate(qs)),
                             trace_cap=50.0)
        sol = solve_sdp(problem)
        assert sol.max_violation <= 1e-8
        x = sol.matrix
        assert np.linalg.eigvalsh(x)[0] >= -1e-8 * np.trace(x).real
        for q, b in problem.constraints:
            assert np.real(np.trace(q @ x)) >= b - 1e-8
        assert np.real(np.trace(x)) <= 50.0 + 1e-8

    def test_duality_gap_certificate(self):
        rng = np.random.default_rng(6)
        problem = SdpProblem(objective=hermitian(rng, 5),
                             constraints=((hermitian(rng, 5), 2.0),),
                             trace_cap=30.0)
        sol = solve_sdp(problem)
        assert sol.duality_gap <= 1e-8 * (1.0 + abs(sol.objective))

    def test_hermitian_solution(self):
        rng = np.random.default_rng(7)
        problem = SdpProblem(objective=hermitian(rng, 4),
                             constraints=((hermitian(rng, 4), 1.0),),
                             trace_cap=20.0)
        sol = solve_sdp(problem)
        npt.assert_allclose(sol.matrix, sol.matrix.conj().T, atol=1e-14)


class TestInfeasibility:
    def test_target_beyond_cap_certified(self):
        # Tr(Q X) <= lambda_max(Q) Tr(X) <= 4 c < b: infeasible
        problem = SdpProblem(objective=np.eye(2, dtype=complex),
                             constraints=((np.diag([4.0 + 0j, 1.0]), 1000.0),),
                             trace_cap=1.0)
        with pytest.raises(SdpInfeasibleError) as excinfo:
            solve_sdp(problem)
        diagnostics = excinfo.value.diagnostics
        assert diagnostics["energy_bound"] > diagnostics["trace_cap"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_conflicting_multicast_targets(self):
        rng = np.random.default_rng(8)
        qs = [hermitian(rng, 4, floor=0.01) for _ in range(3)]
        problem = SdpProblem(objective=np.eye(4, dtype=complex),
                             constraints=tuple((q, 500.0) for q in qs),
                             trace_cap=2.0)
        with pytest.raises(SdpInfeasibleError) as excinfo:
            solve_sdp(problem)
        diagnostics = excinfo.value.diagnostics
        assert diagnostics["energy_bound"] > diagnostics["trace_cap"]


class TestValidation:
    def test_rejects_non_hermitian(self):
        bad = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
        with pytest.raises(ValidationError):
            SdpProblem(objective=bad, constraints=((np.eye(2, dtype=complex), 1.0),),
                       trace_cap=1.0)

    def test_rejects_nonpositive_bounds(self):
        eye = np.eye(2, dtype=complex)
        with pytest.raises(ValidationError):
            SdpProblem(objective=eye, constraints=((eye, 0.0),), trace_cap=1.0)
        with pytest.raises(ValidationError):
            SdpProblem(objective=eye, constraints=((eye, 1.0),), trace_cap=0.0)

    def test_rejects_empty_constraints(self):
        with pytest.raises(ValidationError):
            SdpProblem(objective=np.eye(2, dtype=complex), constraints=(),
                       trace_cap=1.0)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValidationError):
            SdpProblem(objective=np.eye(2, dtype=complex),
                       constraints=((np.eye(3, dtype=complex), 1.0),),
                       trace_cap=1.0)

    def test_solve_requires_problem_type(self):
        with pytest.raises(ValidationError):
            solve_sdp("not a problem")


def test_schur_factor_retries_a_failed_matrix_with_a_trace_shift():
    # Singular but PSD: 1e-14 of its trace on the diagonal makes it PD.
    # Indefinite with zero trace: the shift is zero and it fails again.
    rng = np.random.default_rng(6)
    good = hermitian(rng, 3).real
    singular, indefinite = np.diag([2.0, 1.0, 0.0]), np.diag([1.0, -1.0, 0.0])
    factor, failed = _schur_factor(np.stack([good, singular, indefinite, good]))
    assert failed.tolist() == [False, False, True, False]
    npt.assert_array_equal(factor[0], np.linalg.cholesky(good))
    npt.assert_array_equal(factor[1], np.linalg.cholesky(singular + 3e-14 * np.eye(3)))
    npt.assert_array_equal(factor[2], np.eye(3))


def test_a_least_energy_program_that_does_not_converge_is_a_numerical_error(monkeypatch):
    # Three iterations stop the main solve and the least-energy program
    # alike, short of convergence.
    monkeypatch.setattr(sdp, "_MAX_ITERATIONS", 3)
    problem = SdpProblem(objective=np.eye(2, dtype=complex),
                         constraints=((np.diag([4.0 + 0j, 1.0]), 8.0),), trace_cap=10.0)
    with pytest.raises(NumericalError) as excinfo:
        solve_sdp(problem)
    assert str(excinfo.value) == "least-energy program did not converge"
    diagnostics = excinfo.value.diagnostics
    assert list(diagnostics) == ["pres", "dres", "gap", "iterations"]
    assert type(diagnostics["iterations"]) is int and diagnostics["iterations"] == 3
    assert all(type(diagnostics[key]) is np.float64 for key in ("pres", "dres", "gap"))
    assert diagnostics["gap"] > 1e-8


def test_float_power_cubes_as_python_floats_do():
    # The centring cube (mu_aff / mu)^3 of the Newton step relies on
    # np.float_power rounding every element as Python's float power does.
    rng = np.random.default_rng(7)
    ratios = np.concatenate([[0.0, 1.0, 5e-324], rng.uniform(0.0, 10.0, 90_000),
                             10.0 ** rng.uniform(-320.0, -1.0, 10_000)])
    expected = np.array([ratio ** 3 for ratio in ratios.tolist()])
    assert np.float_power(ratios, 3).tobytes() == expected.tobytes()


def test_complex_structure_preserved():
    """A genuinely complex instance: optimum must beat the real-restricted one."""
    a = np.array([[2.0, 1j], [-1j, 2.0]])
    c = np.array([[1.0, 0.5j], [-0.5j, 1.0]])
    problem = SdpProblem(objective=c, constraints=((a, 3.0),), trace_cap=10.0)
    sol = solve_sdp(problem)
    x = sol.matrix
    assert np.real(np.trace(a @ x)) >= 3.0 - 1e-8
    # rank-1 complex optimum: bottom generalized eigvec of (C, A) scaled to meet
    # the constraint; verify against a fine sweep over complex unit vectors
    rng = np.random.default_rng(9)
    candidates = rng.standard_normal((200_000, 2)) + 1j * rng.standard_normal((200_000, 2))
    num = np.einsum("ij,jk,ik->i", candidates.conj(), c, candidates).real
    den = np.einsum("ij,jk,ik->i", candidates.conj(), a, candidates).real
    best = 3.0 * np.min(num / den)
    assert sol.objective <= best + 1e-6


def real_embedding(a):
    """Hermitian L x L -> real symmetric 2L x 2L, [[Re A, -Im A], [Im A, Re A]]."""
    return np.block([[a.real, -a.imag], [a.imag, a.real]])


class TestRealEmbedding:
    """The solver works on Hermitian matrices, and a real symmetric matrix is
    one: the embedded program has the same optimum, doubled (Tr of the
    embedded product is 2 Re Tr(C X); bounds and cap double with it)."""

    @pytest.mark.parametrize("receivers", [1, 3, 5])
    @pytest.mark.parametrize("dim", [4, 8])
    def test_embedded_optimum_is_twice_the_complex_one(self, receivers, dim):
        rng = np.random.default_rng(100 * receivers + dim)
        objective = hermitian(rng, dim)
        constraints = tuple((hermitian(rng, dim), 1.0 + k) for k in range(receivers))
        complex_sol = solve_sdp(SdpProblem(objective=objective, constraints=constraints,
                                           trace_cap=50.0))
        embedded = SdpProblem(
            objective=real_embedding(objective),
            constraints=tuple((real_embedding(a), 2.0 * b) for a, b in constraints),
            trace_cap=100.0)
        real_sol = solve_sdp(embedded)
        npt.assert_allclose(real_sol.objective, 2.0 * complex_sol.objective, rtol=1e-7)


def _psd_with_condition(rng, dim, log_cond):
    """Random Hermitian PD matrix, largest eigenvalue 1, condition 10^log_cond."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    spectrum = 10.0 ** (-log_cond * rng.uniform(size=dim))
    spectrum[0] = 1.0
    return (u * spectrum) @ u.conj().T


@st.composite
def multicast_instances(draw):
    """Strictly feasible multicast SDRs: K in 1..5, L in 2..16, receiver Q
    matrices with condition number up to 1e8 (near-singular), and SINR
    targets at up to 95% of what the isotropic X = (E/L) I delivers."""
    dim = draw(st.integers(2, 16))
    receivers = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    log_cond = draw(st.sampled_from([0.0, 2.0, 5.0, 8.0]))
    q_bobs = tuple(draw(st.floats(0.1, 10.0)) * _psd_with_condition(rng, dim, log_cond)
                   for _ in range(receivers))
    g_eve = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q_eve = (g_eve @ g_eve.conj().T) / dim + 1e-3 * np.eye(dim)
    e_max = draw(st.floats(1.0, 100.0))
    fractions = np.array([draw(st.floats(0.01, 0.95)) for _ in range(receivers)])
    gammas = fractions * e_max * np.array([np.trace(q).real for q in q_bobs]) / dim
    # Without Q_e the relaxation minimizes energy instead of Eve's SINR.
    objective = draw(st.sampled_from(["min-eve", "min-energy"]))
    return MulticastProblem(q_bobs=q_bobs, gammas=gammas, e_max=e_max,
                            q_eve=q_eve if objective == "min-eve" else None)


class TestSolverProperties:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(multicast_instances())
    def test_certificates_and_relaxation_bound(self, problem):
        tol = 1e-8
        sol = solve_sdp(build_lifted_sdp(problem))
        assert sol.max_violation <= tol
        assert sol.duality_gap <= tol * (1.0 + abs(sol.objective))
        x = sol.matrix
        npt.assert_array_equal(x, x.conj().T)
        assert np.linalg.eigvalsh(x)[0] >= -tol
        # the dual bound lower-bounds the QCQP, so it sits at or below the
        # objective of the feasible waveform the pipeline returns, with no
        # tolerance
        design, bound = multicast_design(problem, rng=np.random.default_rng(0))
        assert bound == sol.bound
        if problem.q_eve is not None:
            achieved = design.energy * np.real(
                design.waveform.conj() @ problem.q_eve @ design.waveform)
        else:
            achieved = design.energy
        assert bound <= achieved
