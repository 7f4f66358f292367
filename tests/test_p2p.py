"""Known-eavesdropper design tests: feasibility, eigen branch, KKT bisection."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import securewave.channel as ch
from securewave.errors import NoTransmitError, NumericalError, ValidationError
from securewave.kernel import generalized_eig_extremes, generalized_eigh
from securewave.p2p import (
    P2pProblem,
    check_feasibility,
    design_p2p,
    eigen_design,
    kkt_bisection,
)


def scenario(chips=8):
    return ch.ScenarioConfig(chips=chips, paths=3)


def draw_qs(seed, chips=8):
    trial = ch.draw_wiretap_trial(scenario(chips), np.random.default_rng(seed))
    return trial.bobs[0].q.matrix, trial.eve.q.matrix


def random_unit_waveforms(rng, count, dim):
    s = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return s / np.linalg.norm(s, axis=1, keepdims=True)


def quad(samples, q):
    return np.einsum("ij,jk,ik->i", samples.conj(), q, samples).real


def bisection_fixture(seed, chips=4):
    """Feasible instance whose eigen solution violates the cap constraint."""
    q_bob, q_eve = draw_qs(seed, chips)
    gamma = 2.0
    (_, s_eigen), _ = generalized_eig_extremes(q_eve, q_bob)
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
        from securewave.p2p import _cap_active_pencil

        q_bob, q_eve = draw_qs(5)
        p = P2pProblem(q_bob=q_bob, q_eve=q_eve, gamma=1.0, e_max=1e6)
        beta, s, g = _cap_active_pencil(p, mu_tilde)
        pairs = generalized_eigh((1.0 - mu_tilde) * q_eve + mu_tilde * np.eye(p.dim),
                                 (1.0 - mu_tilde) * q_bob)
        lam, vec = pairs.values[-1], pairs.vectors[:, -1]
        npt.assert_allclose(beta, lam, rtol=1e-9)
        phase = np.vdot(s, vec) / abs(np.vdot(s, vec))
        npt.assert_allclose(s * phase, vec, atol=1e-8)
        npt.assert_allclose(g, np.real(vec.conj() @ q_bob @ vec), rtol=1e-10)
        npt.assert_allclose(g, np.real(s.conj() @ q_bob @ s), rtol=1e-15)

    def test_reduced_pencil_tie_break(self):
        # Q_e = c Q_b ties every eigenvalue of the pencil at u = 0; the
        # tie-break must return the unit direction minimizing s^H Q_b s, the
        # bottom eigenvector of Q_b, as the kernel path does
        from securewave.p2p import _cap_active_pencil, _min_pair_tie_broken

        q_bob, _ = draw_qs(6)
        p = P2pProblem(q_bob=q_bob, q_eve=3.0 * q_bob, gamma=1.0, e_max=1e6)
        beta, s, g = _cap_active_pencil(p, 0.0)
        npt.assert_allclose(beta, 3.0, rtol=1e-10)
        npt.assert_allclose(np.linalg.norm(s), 1.0, atol=1e-12)
        w, v = np.linalg.eigh(q_bob)
        npt.assert_allclose(g, w[0], rtol=1e-10)
        npt.assert_allclose(abs(np.vdot(v[:, 0], s)), 1.0, atol=1e-8)
        pairs = generalized_eigh(p.q_eve, p.q_bob)
        _, kernel_s = _min_pair_tie_broken(pairs.values, pairs.vectors, q_bob)
        npt.assert_allclose(abs(np.vdot(kernel_s, s)), 1.0, atol=1e-8)

    def test_kkt_conditions_hold(self):
        for seed in range(8):
            p = bisection_fixture(seed)
            d = kkt_bisection(p)
            mu, beta = d.info["mu"], d.info["beta"]
            assert mu > 0 and beta > 0
            s = d.waveform
            resid = np.linalg.norm((p.q_eve + mu * np.eye(p.dim)) @ s - beta * (p.q_bob @ s))
            assert resid <= 1e-8
            assert abs(np.real(s.conj() @ p.q_bob @ s) - p.gamma / p.e_max) < p.epsilon
            npt.assert_allclose(np.linalg.norm(s), 1.0, atol=1e-12)
            assert d.energy <= p.e_max * (1 + 1e-12)

    def test_evaluation_count(self):
        # pencil evaluations after the two bracket ends; plain bisection
        # needs about 40 on these fixtures
        for seed in range(8):
            assert kkt_bisection(bisection_fixture(seed)).info["iterations"] <= 25

    def test_objective_matches_grid_search(self):
        from securewave.p2p import _cap_active_pencil

        p = bisection_fixture(11)
        d = kkt_bisection(p)
        target = p.gamma / p.e_max
        best = np.inf
        for mu_tilde in np.linspace(0.0, 0.999, 2000):
            _, s, g = _cap_active_pencil(p, mu_tilde)
            if g >= target:
                obj = p.e_max * np.real(s.conj() @ p.q_eve @ s)
                best = min(best, obj)
        achieved = d.energy * np.real(d.waveform.conj() @ p.q_eve @ d.waveform)
        assert achieved <= best * (1 + 1e-4)

    def test_monotone_cap_map(self):
        from securewave.p2p import _cap_active_pencil

        for seed in range(50):
            q_bob, q_eve = draw_qs(seed + 100, chips=4)
            p = P2pProblem(q_bob=q_bob, q_eve=q_eve, gamma=1.0, e_max=1.0)
            grid = np.linspace(0.0, 0.99, 100)
            values = np.array([_cap_active_pencil(p, u)[2] for u in grid])
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
    (_, s_eigen), _ = generalized_eig_extremes(q_eve, q_bob)
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
        assert abs(np.real(s.conj() @ p.q_bob @ s) - target) < p.epsilon
        assert d.energy <= p.e_max * (1 + 1e-12)


class TestDesignP2p:
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
        for kw in (dict(gamma=0.0), dict(e_max=-1.0), dict(epsilon=0.0)):
            args = dict(q_bob=q, q_eve=q, gamma=1.0, e_max=1.0)
            args.update(kw)
            with pytest.raises(ValidationError):
                P2pProblem(**args)

    def test_rejects_dim_mismatch(self):
        with pytest.raises(ValidationError):
            P2pProblem(q_bob=np.eye(2, dtype=complex), q_eve=np.eye(3, dtype=complex),
                       gamma=1.0, e_max=1.0)
