"""Known-eavesdropper design tests: feasibility, eigen branch, KKT bisection."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import securewave.channel as ch
from securewave.errors import NoTransmitError, NumericalError, ValidationError
from securewave.harness import trial_rng
from securewave.kernel import generalized_eigh, quadratic_form
from securewave.p2p import (
    _BISECTION_EPSILON,
    _BISECTION_MAX_ITER,
    P2pProblem,
    check_feasibility,
    design_p2p,
    eigen_design,
    kkt_bisection,
)
from securewave.util import take


def scenario(chips=8):
    return ch.ScenarioConfig(chips=chips, paths=3)


def draw_qs(seed, chips=8):
    trial = ch.draw_wiretap_trial(scenario(chips), np.random.default_rng(seed))
    return trial.bobs[0].q, trial.eve.q


def random_unit_waveforms(rng, count, dim):
    s = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return s / np.linalg.norm(s, axis=1, keepdims=True)


def quad(samples, q):
    return np.einsum("ij,jk,ik->i", samples.conj(), q, samples).real


def bisection_fixture(seed, chips=4):
    """Feasible instance whose eigen solution violates the cap constraint."""
    q_bob, q_eve = draw_qs(seed, chips)
    gamma = 2.0
    s_eigen = generalized_eigh(q_eve, q_bob)[1][:, 0]
    g_eigen = float(np.real(s_eigen.conj() @ q_bob @ s_eigen))
    lam_max = float(np.linalg.eigvalsh(q_bob)[-1])
    # cap between the eigen branch threshold and the feasibility limit
    e_max = gamma / np.sqrt(g_eigen * lam_max)
    return P2pProblem(q_bob=q_bob, q_eve=q_eve, gamma=gamma, e_max=float(e_max))


class TestCheckFeasibility:
    def test_boundary_equality_is_feasible(self):
        p = P2pProblem(q_bob=np.eye(2, dtype=complex), q_eve=np.eye(2, dtype=complex),
                       gamma=1.0, e_max=1.0)
        assert check_feasibility(p)

    def test_infeasible(self):
        p = P2pProblem(q_bob=np.eye(2, dtype=complex), q_eve=np.eye(2, dtype=complex),
                       gamma=2.0, e_max=1.0)
        assert not check_feasibility(p)

    def test_matches_direct_eigenvalue(self):
        q_bob, q_eve = draw_qs(0)
        lam = np.linalg.eigvalsh(q_bob)[-1]
        for gamma in (0.5 * lam, lam, 2.0 * lam):
            p = P2pProblem(q_bob=q_bob, q_eve=q_eve, gamma=float(gamma), e_max=1.0)
            assert check_feasibility(p) == (lam >= gamma)


class TestEigenDesign:
    def test_identical_channels(self):
        q = np.diag([2.0 + 0j, 1.0])
        p = P2pProblem(q_bob=q, q_eve=q, gamma=1.0, e_max=100.0)
        d = eigen_design(p)
        ratio = np.real(d.waveform.conj() @ q @ d.waveform)
        npt.assert_allclose(d.energy * ratio, 1.0, rtol=1e-12)
        npt.assert_allclose(d.info["eve_bob_ratio"], 1.0, atol=1e-10)

    def test_diagonal_fixture(self):
        p = P2pProblem(q_bob=np.diag([4.0 + 0j, 1.0]), q_eve=np.eye(2, dtype=complex),
                       gamma=4.0, e_max=100.0)
        d = eigen_design(p)
        npt.assert_allclose(np.abs(d.waveform), [1.0, 0.0], atol=1e-10)
        npt.assert_allclose(d.energy, 1.0, rtol=1e-12)
        npt.assert_allclose(d.info["eve_bob_ratio"], 0.25, atol=1e-12)

    def test_ratio_beats_random_sampling_oracle(self):
        q_bob, q_eve = draw_qs(1, chips=4)
        p = P2pProblem(q_bob=q_bob, q_eve=q_eve, gamma=1.0, e_max=1e6)
        d = eigen_design(p)
        attained = d.info["eve_bob_ratio"]
        rng = np.random.default_rng(2)
        samples = random_unit_waveforms(rng, 1_000_000, 4)
        ratios = quad(samples, q_eve) / quad(samples, q_bob)
        assert attained <= ratios.min() + 1e-12

    def test_infeasible_raises(self):
        p = P2pProblem(q_bob=np.eye(2, dtype=complex), q_eve=np.eye(2, dtype=complex),
                       gamma=10.0, e_max=1.0)
        with pytest.raises(NoTransmitError):
            eigen_design(p)

    def test_signals_bisection_branch(self):
        p = bisection_fixture(3)
        assert eigen_design(p) is None


class TestKktBisection:
    def test_refuses_when_eigen_branch_valid(self):
        q_bob, q_eve = draw_qs(4)
        p = P2pProblem(q_bob=q_bob, q_eve=q_eve, gamma=1.0, e_max=1e6)
        with pytest.raises(ValidationError):
            kkt_bisection(p)

    @pytest.mark.parametrize("mu_tilde", [0.0, 0.5, 0.99, 1.0 - 1e-6, 1.0 - 1e-9])
    def test_reduced_pencil_matches_kernel(self, mu_tilde):
        # the pencil reduced once per design against a fresh kernel solve of
        # ((1-u)Q_e + uI, (1-u)Q_b); at u = 0 that is exactly (Q_e, Q_b)
        from securewave.p2p import _cap_active_map, _waveform

        q_bob, q_eve = draw_qs(5)
        p = P2pProblem(q_bob=q_bob, q_eve=q_eve, gamma=1.0, e_max=1e6)
        beta, z, g, _ = (x[0] for x in _cap_active_map(p)[0](mu_tilde))
        s = _waveform(z)
        values, vectors = generalized_eigh((1.0 - mu_tilde) * q_eve + mu_tilde * np.eye(p.dim),
                                           (1.0 - mu_tilde) * q_bob)
        lam, vec = values[0], vectors[:, 0]
        npt.assert_allclose(beta, lam, rtol=1e-9)
        phase = np.vdot(s, vec) / abs(np.vdot(s, vec))
        npt.assert_allclose(s * phase, vec, atol=1e-8)
        npt.assert_allclose(g, np.real(vec.conj() @ q_bob @ vec), rtol=1e-10)
        npt.assert_allclose(g, np.real(s.conj() @ q_bob @ s), rtol=1e-15)

    def test_slope_matches_central_difference(self):
        # g' from the step's eigenpairs against a central difference of g
        from securewave.p2p import _cap_active_map

        q_bob, q_eve = draw_qs(5)
        pencil = _cap_active_map(P2pProblem(q_bob=q_bob, q_eve=q_eve, gamma=1.0, e_max=1.0))[0]
        x, h = np.array([0.0, 0.1, 0.5, 0.9, 0.999]), 1e-6
        slope = pencil(x)[3]
        g_up, g_down = pencil(x + h)[2], pencil(np.maximum(x - h, 0.0))[2]
        npt.assert_allclose(slope, (g_up - g_down) / (x + h - np.maximum(x - h, 0.0)), rtol=1e-4)
        assert np.all(slope > 0)

    def test_reduced_pencil_tie_break(self):
        # Q_e = c Q_b ties every eigenvalue of the pencil at u = 0; the
        # tie-break must return the unit direction maximizing s^H Q_b s, the
        # top eigenvector of Q_b, as the kernel path does
        from securewave.p2p import _cap_active_map, _waveform

        q_bob, _ = draw_qs(6)
        p = P2pProblem(q_bob=q_bob, q_eve=3.0 * q_bob, gamma=1.0, e_max=1e6)
        beta, z, g, _ = (x[0] for x in _cap_active_map(p)[0](0.0))
        s = _waveform(z)
        npt.assert_allclose(beta, 3.0, rtol=1e-10)
        npt.assert_allclose(np.linalg.norm(s), 1.0, atol=1e-12)
        w, v = np.linalg.eigh(q_bob)
        npt.assert_allclose(g, w[-1], rtol=1e-10)
        npt.assert_allclose(abs(np.vdot(v[:, -1], s)), 1.0, atol=1e-8)
        npt.assert_allclose(abs(np.vdot(eigen_design(p).waveform, s)), 1.0, atol=1e-8)

    def test_kkt_conditions_hold(self):
        for seed in range(8):
            p = bisection_fixture(seed)
            d = kkt_bisection(p)
            mu, beta = d.info["mu"], d.info["beta"]
            assert mu > 0 and beta > 0
            s = d.waveform
            resid = np.linalg.norm((p.q_eve + mu * np.eye(p.dim)) @ s - beta * (p.q_bob @ s))
            assert resid <= 1e-8
            assert abs(np.real(s.conj() @ p.q_bob @ s) - p.gamma / p.e_max) < _BISECTION_EPSILON
            npt.assert_allclose(np.linalg.norm(s), 1.0, atol=1e-12)
            assert d.energy <= p.e_max * (1 + 1e-12)

    def test_ill_conditioned_design_is_refined(self):
        # cond(Q_b) = 10^7.5: the eigenvector of the reduced pencil misses
        # the stationarity tolerance, and one inverse-iteration step in the
        # original space meets it.
        rng = np.random.default_rng(60)
        spectrum = 10.0 ** (-7.5 * np.sort(rng.uniform(size=5)))
        spectrum[0] = 1.0
        u = _unitary(rng, 5)
        q_bob = (u * spectrum) @ u.conj().T
        g_eve = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        q_eve = (g_eve @ g_eve.conj().T) / 5
        s_eigen = generalized_eigh(q_eve, q_bob)[1][:, 0]
        g0 = float(np.real(s_eigen.conj() @ q_bob @ s_eigen))
        p = P2pProblem(q_bob=q_bob, q_eve=q_eve, gamma=g0 + 0.9 * (1.0 - g0), e_max=1.0)
        d = kkt_bisection(p)
        mu, beta, s = d.info["mu"], d.info["beta"], d.waveform

        def resid(beta, s):
            return np.linalg.norm((q_eve + mu * np.eye(5)) @ s - beta * (q_bob @ s))

        from securewave.p2p import _cap_active_map, _waveform

        beta0, z0, _, _ = (x[0] for x in _cap_active_map(p)[0](d.info["mu_tilde"]))
        s0 = _waveform(z0)
        assert resid(beta0, s0) > 1e-8
        assert resid(beta, s) <= 1e-8
        assert abs(np.real(s.conj() @ q_bob @ s) - p.gamma) < _BISECTION_EPSILON
        npt.assert_allclose(d.energy * np.real(s.conj() @ q_bob @ s), p.gamma, rtol=1e-12)

    def test_noisy_pencil_designs_meet_the_target(self):
        # At cond(Q_b) = 10^7.5 the reduced pencil's g is noisy at ~1e-10,
        # so the root-find can stop where the exact g is below the target;
        # the refined pair, moved onto the target, keeps E s^H Q_b s = gamma.
        for seed in range(60):
            rng = np.random.default_rng(seed)
            spectrum = 10.0 ** (-7.5 * np.sort(rng.uniform(size=5)))
            spectrum[0] = 1.0
            u = _unitary(rng, 5)
            q_bob = (u * spectrum) @ u.conj().T
            g_eve = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            q_eve = (g_eve @ g_eve.conj().T) / 5
            s_eigen = generalized_eigh(q_eve, q_bob)[1][:, 0]
            g0 = float(np.real(s_eigen.conj() @ q_bob @ s_eigen))
            p = P2pProblem(q_bob=q_bob, q_eve=q_eve, gamma=g0 + 0.9 * (1.0 - g0), e_max=1.0)
            d = kkt_bisection(p)
            npt.assert_allclose(d.energy * quadratic_form(q_bob, d.waveform), p.gamma,
                                rtol=1e-12, err_msg=f"seed {seed}")

    def test_evaluation_count(self):
        # pencil evaluations after the two bracket ends; plain bisection
        # needs about 40 on these fixtures
        for seed in range(8):
            assert kkt_bisection(bisection_fixture(seed)).info["iterations"] <= 25

    def test_objective_matches_grid_search(self):
        from securewave.p2p import _cap_active_map, _waveform

        p = bisection_fixture(11)
        d = kkt_bisection(p)
        target = p.gamma / p.e_max
        _, z, g, _ = _cap_active_map(p)[0](np.linspace(0.0, 0.999, 2000))
        s = _waveform(z)
        best = np.min(p.e_max * quadratic_form(p.q_eve, s[g >= target]), initial=np.inf)
        achieved = d.energy * np.real(d.waveform.conj() @ p.q_eve @ d.waveform)
        assert achieved <= best * (1 + 1e-4)

    def test_monotone_cap_map(self):
        from securewave.p2p import _cap_active_map

        for seed in range(50):
            q_bob, q_eve = draw_qs(seed + 100, chips=4)
            p = P2pProblem(q_bob=q_bob, q_eve=q_eve, gamma=1.0, e_max=1.0)
            values = _cap_active_map(p)[0](np.linspace(0.0, 0.99, 100))[2]
            assert np.all(np.diff(values) >= -1e-10)


def _unitary(rng, dim):
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def cap_active_problems(draw):
    """Cap-active instances at the edges of the bracket: Q_b with condition
    number up to 1e8, and gamma/e_max generic, within 1e-6 relative below
    lambda_max(Q_b), or just above g(0), the eigen design's s^H Q_b s."""
    dim = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam_max = draw(st.floats(0.1, 10.0))
    log_cond = draw(st.floats(0.0, 8.0))
    spectrum = lam_max * 10.0 ** (-log_cond * np.sort(rng.uniform(size=dim)))
    spectrum[0] = lam_max
    u = _unitary(rng, dim)
    q_bob = (u * spectrum) @ u.conj().T
    g_eve = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q_eve = draw(st.floats(0.01, 10.0)) * (g_eve @ g_eve.conj().T) / dim
    s_eigen = generalized_eigh(q_eve, q_bob)[1][:, 0]
    g0 = float(np.real(s_eigen.conj() @ q_bob @ s_eigen))
    edge = draw(st.sampled_from(["interior", "near-top", "near-g0"]))
    offset = 10.0 ** draw(st.floats(-12.0, -6.0))
    if edge == "interior":
        target = g0 + draw(st.floats(0.01, 0.99)) * (lam_max - g0)
    elif edge == "near-top":
        target = lam_max * (1.0 - offset)
    else:
        target = g0 * (1.0 + offset)
    e_max = draw(st.floats(0.1, 100.0))
    return P2pProblem(q_bob=q_bob, q_eve=q_eve, gamma=target * e_max, e_max=e_max)


class TestKktBisectionProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(cap_active_problems())
    def test_kkt_or_classified_failure(self, p):
        # a design meets the KKT conditions and the cap; anything else is a
        # classified failure, never another exception
        target = p.gamma / p.e_max
        try:
            d = kkt_bisection(p)
        except (NumericalError, NoTransmitError):
            return
        except ValidationError:
            # only when the eigen design already meets the target
            assert eigen_design(p) is not None
            return
        s, mu, beta = d.waveform, d.info["mu"], d.info["beta"]
        resid = np.linalg.norm((p.q_eve + mu * np.eye(p.dim)) @ s - beta * (p.q_bob @ s))
        assert resid <= 1e-8
        assert abs(np.real(s.conj() @ p.q_bob @ s) - target) < _BISECTION_EPSILON
        assert d.energy <= p.e_max * (1 + 1e-12)
        assert d.info["iterations"] < _BISECTION_MAX_ITER


def tied_pencil(kind):
    """A problem whose smallest generalized eigenvalue is degenerate, with
    gamma/e_max strictly between the smallest and largest s^H Q_b s of the
    tied members: ``"all"`` is Q_e = 3 Q_b, every eigenvalue tied; ``"two"``
    ties the bottom two."""
    cfg = ch.ScenarioConfig(chips=8, seed=1)
    q_bob = ch.draw_wiretap_trial(cfg, trial_rng(1, 0, 0)).bobs[0].q
    if kind == "all":
        return P2pProblem(q_bob=q_bob, q_eve=3.0 * q_bob, gamma=13.27, e_max=10.0)
    chol = np.linalg.cholesky(q_bob)
    y = _unitary(np.random.default_rng(8), 8)
    q_eve = chol @ (y * [1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]) @ y.conj().T @ chol.conj().T
    basis, _ = np.linalg.qr(np.linalg.solve(chol.conj().T, y[:, :2]))
    low, high = np.linalg.eigvalsh(basis.conj().T @ q_bob @ basis)
    return P2pProblem(q_bob=q_bob, q_eve=0.5 * (q_eve + q_eve.conj().T),
                      gamma=5.0 * (low + high), e_max=10.0)


class TestDesignP2p:
    @pytest.mark.parametrize("kind", ["all", "two"])
    def test_tied_pencil_takes_the_least_energy_member(self, kind):
        # Every tied member gives Eve the same SINR; the one maximizing
        # s^H Q_b s meets the target within the cap, and the root-find's
        # limit as mu_tilde -> 0+ is that same member, so no root-find runs.
        p = tied_pencil(kind)
        d = design_p2p(p)
        assert d.branch == "eigen" and d.energy <= p.e_max
        npt.assert_allclose(d.energy * quadratic_form(p.q_bob, d.waveform), p.gamma, rtol=1e-12)
        if kind == "all":
            npt.assert_allclose(d.energy, p.gamma / np.linalg.eigvalsh(p.q_bob)[-1], rtol=1e-12)
        # Inside a stack beside ordinary trials, one of them cap-active, the
        # tied trial keeps its bits.
        cfg = ch.ScenarioConfig(chips=8, seed=1)
        draws = [ch.draw_wiretap_trial(cfg, trial_rng(1, 0, t)) for t in range(2, 5)]
        q_bob = np.stack([draw.bobs[0].q for draw in draws] + [p.q_bob])
        q_eve = np.stack([draw.eve.q for draw in draws] + [p.q_eve])
        gamma, e_max = np.array([13.27] * 3 + [p.gamma]), np.array([5.0, 10.0, 100.0, p.e_max])
        stacked = design_p2p(P2pProblem(q_bob=q_bob, q_eve=q_eve, gamma=gamma, e_max=e_max))
        assert list(stacked.branch) == ["bisection", "eigen", "eigen", "eigen"]
        for t in range(4):
            alone = design_p2p(P2pProblem(q_bob=q_bob[t], q_eve=q_eve[t], gamma=gamma[t],
                                          e_max=e_max[t]))
            design = take(stacked, t)
            npt.assert_array_equal(design.waveform, alone.waveform)
            assert (design.energy, design.branch) == (alone.energy, alone.branch)

    def test_fully_tied_pencil_is_not_a_root_find(self):
        with pytest.raises(ValidationError, match="eigen design already satisfies the cap"):
            kkt_bisection(tied_pencil("all"))

    def test_dispatches_eigen_branch(self):
        p = P2pProblem(q_bob=np.diag([4.0 + 0j, 1.0]), q_eve=np.eye(2, dtype=complex),
                       gamma=4.0, e_max=100.0)
        assert design_p2p(p).branch == "eigen"

    def test_dispatches_bisection_branch(self):
        p = bisection_fixture(6)
        d = design_p2p(p)
        assert d.branch == "bisection"
        npt.assert_allclose(d.energy, p.e_max, rtol=1e-9)

    def test_infeasible_raises_no_transmit(self):
        p = P2pProblem(q_bob=np.eye(2, dtype=complex), q_eve=np.eye(2, dtype=complex),
                       gamma=10.0, e_max=1.0)
        with pytest.raises(NoTransmitError):
            design_p2p(p)

    def test_constraint_activeness_both_branches(self):
        for seed in range(40):
            q_bob, q_eve = draw_qs(seed + 300)
            gamma = float(10 ** np.random.default_rng(seed).uniform(0, 1))
            p = P2pProblem(q_bob=q_bob, q_eve=q_eve, gamma=gamma, e_max=100.0)
            if not check_feasibility(p):
                continue
            d = design_p2p(p)
            achieved = d.energy * np.real(d.waveform.conj() @ q_bob @ d.waveform)
            assert abs(achieved - gamma) / gamma <= 1e-9
            assert d.energy <= 100.0 * (1 + 1e-12)

    def test_small_scale_optimality_random_search(self):
        for seed in range(10):
            for chips in (2, 3):
                q_bob, q_eve = draw_qs(seed + 500, chips=chips)
                gamma, e_max = 1.5, 50.0
                p = P2pProblem(q_bob=q_bob, q_eve=q_eve, gamma=gamma, e_max=e_max)
                if not check_feasibility(p):
                    continue
                d = design_p2p(p)
                achieved = d.energy * np.real(d.waveform.conj() @ q_eve @ d.waveform)
                rng = np.random.default_rng(seed)
                samples = random_unit_waveforms(rng, 200_000, chips)
                qb = quad(samples, q_bob)
                feasible = qb >= gamma / e_max
                objective = gamma * quad(samples, q_eve) / qb
                assert feasible.any()
                assert achieved <= objective[feasible].min() + 1e-10

    def test_phase_invariance(self):
        q_bob, q_eve = draw_qs(7)
        p = P2pProblem(q_bob=q_bob, q_eve=q_eve, gamma=2.0, e_max=100.0)
        d = design_p2p(p)
        rotated = d.waveform * np.exp(1j * 0.7)
        for q in (q_bob, q_eve):
            a = np.real(d.waveform.conj() @ q @ d.waveform)
            b = np.real(rotated.conj() @ q @ rotated)
            assert a == pytest.approx(b, abs=1e-14)


class TestP2pProblemValidation:
    def test_rejects_bad_scalars(self):
        q = np.eye(2, dtype=complex)
        for kw in (dict(gamma=0.0), dict(e_max=-1.0)):
            args = dict(q_bob=q, q_eve=q, gamma=1.0, e_max=1.0)
            args.update(kw)
            with pytest.raises(ValidationError):
                P2pProblem(**args)

    def test_scalar_messages(self):
        q = np.eye(2, dtype=complex)
        for name, value, shown in (("gamma", 0.0, "0.0"), ("e_max", float("nan"), "nan")):
            args = dict(q_bob=q, q_eve=q, gamma=1.0, e_max=1.0)
            args[name] = value
            with pytest.raises(ValidationError) as info:
                P2pProblem(**args)
            assert str(info.value) == f"{name} must be positive and finite, got {shown}"

    @pytest.mark.parametrize("name", ["gamma", "e_max"])
    @pytest.mark.parametrize("bad", [0.0, -2.0, float("nan"), float("inf")])
    def test_rejects_one_bad_entry_of_per_trial_values(self, name, bad):
        q = np.stack([np.eye(2, dtype=complex)] * 3)
        values = np.array([1.0, 2.0, 3.0])
        args = dict(q_bob=q, q_eve=q, gamma=values, e_max=values + 1.0)
        P2pProblem(**args)
        args[name] = args[name].copy()
        args[name][1] = bad
        with pytest.raises(ValidationError, match=f"{name} must be positive and finite"):
            P2pProblem(**args)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValidationError):
            P2pProblem(q_bob=np.eye(2, dtype=complex), q_eve=np.eye(3, dtype=complex),
                       gamma=1.0, e_max=1.0)
