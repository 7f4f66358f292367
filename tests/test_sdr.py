"""SDR multicast tests: lifting, extraction, randomization, sum-SINR."""

import pathlib

import numpy as np
import numpy.testing as npt
import pytest

import securewave.channel as ch
from securewave.config import load_config_file, sweep_spec_from_config
from securewave.errors import NoTransmitError, ValidationError
from securewave.harness import run_sweep
from securewave.p2p import P2pProblem, design_p2p
from securewave.sdp import SdpSolution, solve_sdp
from securewave.sdr import (
    MulticastProblem,
    build_lifted_sdp,
    extract_rank1,
    gaussian_randomization,
    multicast_design,
    sum_sinr_design,
)


def draw_multicast(seed, receivers, chips=8):
    cfg = ch.ScenarioConfig(chips=chips, paths=3)
    return ch.draw_wiretap_trial(cfg, np.random.default_rng(seed), receivers=receivers)


def manual_solution(x):
    return SdpSolution(matrix=x, objective=0.0, duality_gap=0.0,
                       max_violation=0.0, iterations=0)


def quad(x, q):
    return float(np.real(x.conj() @ q @ x))


class TestExtractRank1:
    def test_exact_rank1(self):
        e1 = np.zeros(3, dtype=complex)
        e1[0] = 1.0
        sol = manual_solution(2.0 * np.outer(e1, e1.conj()))
        energy, s = extract_rank1(sol)
        npt.assert_allclose(energy, 2.0)
        npt.assert_allclose(np.abs(s), [1.0, 0.0, 0.0], atol=1e-12)

    def test_full_rank_returns_none(self):
        assert extract_rank1(manual_solution(np.eye(2, dtype=complex))) is None

    def test_zero_matrix_returns_none(self):
        assert extract_rank1(manual_solution(np.zeros((2, 2), dtype=complex))) is None

    def test_k2_extraction_succeeds(self):
        hits = 0
        for seed in range(20):
            trial = draw_multicast(seed, receivers=2)
            problem = MulticastProblem(
                q_bobs=tuple(l.q for l in trial.bobs),
                gammas=np.array([2.0, 3.0]), e_max=100.0, q_eve=trial.eve.q)
            sol = solve_sdp(build_lifted_sdp(problem, "min-eve"))
            if extract_rank1(sol) is not None:
                hits += 1
        assert hits >= 19


class TestGaussianRandomization:
    def test_rank1_solution_reproduces_extraction(self):
        trial = draw_multicast(3, receivers=2)
        problem = MulticastProblem(
            q_bobs=tuple(l.q for l in trial.bobs),
            gammas=np.array([2.0, 3.0]), e_max=100.0, q_eve=trial.eve.q)
        sol = solve_sdp(build_lifted_sdp(problem, "min-eve"))
        energy_ext, s_ext = extract_rank1(sol)
        obj_ext = energy_ext * quad(s_ext, problem.q_eve)
        result = gaussian_randomization(sol, problem, n_samples=64,
                                        rng=np.random.default_rng(0))
        assert result is not None
        energy_rand, s_rand = result
        obj_rand = energy_rand * quad(s_rand, problem.q_eve)
        assert obj_rand >= obj_ext - 1e-7 * max(1.0, obj_ext)

    def test_beats_independent_random_search(self):
        trial = draw_multicast(4, receivers=3)
        gammas = np.array([1.5, 2.0, 2.5])
        problem = MulticastProblem(q_bobs=tuple(l.q for l in trial.bobs),
                                   gammas=gammas, e_max=100.0, q_eve=trial.eve.q)
        sol = solve_sdp(build_lifted_sdp(problem, "min-eve"))
        result = gaussian_randomization(sol, problem, n_samples=1000,
                                        rng=np.random.default_rng(1))
        assert result is not None
        energy, s = result
        achieved = energy * quad(s, problem.q_eve)
        assert achieved >= sol.objective - 1e-7 * max(1.0, abs(sol.objective))
        # independent search: feasible random waveforms, tightest constraint active
        rng = np.random.default_rng(2)
        samples = rng.standard_normal((100_000, 8)) + 1j * rng.standard_normal((100_000, 8))
        samples /= np.linalg.norm(samples, axis=1, keepdims=True)
        forms = np.stack([
            np.einsum("ij,jk,ik->i", samples.conj(), l.q.matrix, samples).real
            for l in trial.bobs
        ])
        energies = np.max(gammas[:, None] / forms, axis=0)
        eve = np.einsum("ij,jk,ik->i", samples.conj(), trial.eve.q.matrix, samples).real
        feasible = energies <= 100.0
        best_search = np.min(energies[feasible] * eve[feasible])
        assert achieved <= best_search + 1e-9

    def test_tight_cap_failure_report(self):
        q = np.diag([1.0 + 0j, 0.5])
        problem = MulticastProblem(q_bobs=(q,), gammas=np.array([10.0]),
                                   e_max=9.0, q_eve=np.eye(2, dtype=complex))
        sol = manual_solution(np.eye(2, dtype=complex))
        # every rescaled sample needs energy >= gamma/lambda_max = 10 > 9
        result = gaussian_randomization(sol, problem, n_samples=500,
                                        rng=np.random.default_rng(3))
        assert result is None

    def test_deterministic_with_seed(self):
        trial = draw_multicast(5, receivers=3)
        problem = MulticastProblem(
            q_bobs=tuple(l.q for l in trial.bobs),
            gammas=np.array([1.0, 2.0, 3.0]), e_max=100.0, q_eve=trial.eve.q)
        sol = solve_sdp(build_lifted_sdp(problem, "min-eve"))
        a = gaussian_randomization(sol, problem, rng=np.random.default_rng(7))
        b = gaussian_randomization(sol, problem, rng=np.random.default_rng(7))
        npt.assert_array_equal(a[1], b[1])
        assert a[0] == b[0]

    def test_requires_rng(self):
        trial = draw_multicast(6, receivers=2)
        problem = MulticastProblem(q_bobs=tuple(l.q for l in trial.bobs),
                                   gammas=np.array([1.0, 1.0]), e_max=100.0,
                                   q_eve=trial.eve.q)
        sol = manual_solution(np.eye(8, dtype=complex))
        with pytest.raises(ValidationError):
            gaussian_randomization(sol, problem, rng=None)


class TestMulticastDesign:
    def test_k1_min_energy_matches_top_eigen_rule(self):
        trial = draw_multicast(7, receivers=1)
        q = trial.bobs[0].q.matrix
        gamma = 3.0
        problem = MulticastProblem(q_bobs=(q,), gammas=np.array([gamma]), e_max=100.0)
        design, bound = multicast_design(problem, "min-energy",
                                         rng=np.random.default_rng(0))
        expected = gamma / np.linalg.eigvalsh(q)[-1]
        npt.assert_allclose(design.energy, expected, rtol=1e-6)
        npt.assert_allclose(bound, expected, rtol=1e-6)

    def test_k2_min_eve_rank1_and_bound_agreement(self):
        trial = draw_multicast(8, receivers=2)
        problem = MulticastProblem(
            q_bobs=tuple(l.q for l in trial.bobs),
            gammas=np.array([2.0, 4.0]), e_max=100.0, q_eve=trial.eve.q)
        design, bound = multicast_design(problem, "min-eve",
                                         rng=np.random.default_rng(0))
        assert design.info["method"] == "extraction"
        achieved = design.energy * quad(design.waveform, trial.eve.q.matrix)
        assert abs(achieved - bound) <= 1e-6 * max(1.0, abs(bound))

    def test_constraints_satisfied(self):
        for seed in range(6):
            trial = draw_multicast(seed + 30, receivers=4, chips=16)
            gammas = np.full(4, 2.0)
            problem = MulticastProblem(q_bobs=tuple(l.q for l in trial.bobs),
                                       gammas=gammas, e_max=100.0, q_eve=trial.eve.q)
            design, bound = multicast_design(problem, "min-eve",
                                             rng=np.random.default_rng(seed))
            for link, gamma in zip(trial.bobs, gammas):
                assert design.energy * quad(design.waveform, link.q.matrix) >= gamma - 1e-6
            assert design.energy <= 100.0 * (1 + 1e-9)

    def test_relaxation_sandwich_small_scale(self):
        trial = draw_multicast(9, receivers=2, chips=4)
        gammas = np.array([1.0, 1.5])
        problem = MulticastProblem(q_bobs=tuple(l.q for l in trial.bobs),
                                   gammas=gammas, e_max=50.0, q_eve=trial.eve.q)
        design, bound = multicast_design(problem, "min-eve",
                                         rng=np.random.default_rng(0))
        achieved = design.energy * quad(design.waveform, trial.eve.q.matrix)
        rng = np.random.default_rng(1)
        samples = rng.standard_normal((200_000, 4)) + 1j * rng.standard_normal((200_000, 4))
        samples /= np.linalg.norm(samples, axis=1, keepdims=True)
        forms = np.stack([
            np.einsum("ij,jk,ik->i", samples.conj(), l.q.matrix, samples).real
            for l in trial.bobs
        ])
        energies = np.max(gammas[:, None] / forms, axis=0)
        eve = np.einsum("ij,jk,ik->i", samples.conj(), trial.eve.q.matrix, samples).real
        feasible = energies <= 50.0
        search_opt = np.min(energies[feasible] * eve[feasible])
        # the search minimum upper-bounds the true optimum, so the testable
        # sandwich is: bound <= achieved <= search_opt
        slack = 1e-7 * max(1.0, abs(bound))
        assert bound <= search_opt + slack
        assert bound <= achieved + slack
        assert achieved <= search_opt + slack

    def test_infeasible_raises_no_transmit(self):
        problem = MulticastProblem(q_bobs=(np.eye(2, dtype=complex),),
                                   gammas=np.array([100.0]), e_max=1.0,
                                   q_eve=np.eye(2, dtype=complex))
        with pytest.raises(NoTransmitError):
            multicast_design(problem, "min-eve", rng=np.random.default_rng(0))

    def test_min_eve_requires_q_eve(self):
        problem = MulticastProblem(q_bobs=(np.eye(2, dtype=complex),),
                                   gammas=np.array([1.0]), e_max=10.0)
        with pytest.raises(ValidationError):
            build_lifted_sdp(problem, "min-eve")

    def test_unknown_mode_rejected(self):
        problem = MulticastProblem(q_bobs=(np.eye(2, dtype=complex),),
                                   gammas=np.array([1.0]), e_max=10.0)
        with pytest.raises(ValidationError):
            build_lifted_sdp(problem, "max-fun")


class TestKnownStall:
    def test_shipped_multicast_config_seed_180388626442(self):
        # Trial 0 at 8 dB of this master seed sits at the solver's precision
        # floor: an eigendecomposition-based NT scaling stalled there at
        # duality gap 2.4e-8 against 1e-8, and its NumericalError lost the
        # whole table.
        path = pathlib.Path(__file__).resolve().parent.parent / "configs" / "multicast-sdr.cfg"
        spec = sweep_spec_from_config(load_config_file(path),
                                      {"seed": 180388626442, "trials": 1})
        table = run_sweep(spec)
        assert table.column("swept_value")[4] == 8.0
        npt.assert_array_equal(table.column("n_trials"), 1)
        assert table.column("solvability")[4] == 1.0


class TestSumSinr:
    def test_k1_identical_to_design_p2p(self):
        trial = draw_multicast(10, receivers=1)
        q_bob, q_eve = trial.bobs[0].q.matrix, trial.eve.q.matrix
        direct = design_p2p(P2pProblem(q_bob=q_bob, q_eve=q_eve, gamma=2.0, e_max=100.0))
        viasum = sum_sinr_design([q_bob], q_eve, gamma=2.0, e_max=100.0)
        npt.assert_allclose(viasum.energy, direct.energy, rtol=1e-12)
        npt.assert_array_equal(viasum.waveform, direct.waveform)

    def test_duplicated_receiver_halves_energy(self):
        trial = draw_multicast(11, receivers=1)
        q_bob, q_eve = trial.bobs[0].q.matrix, trial.eve.q.matrix
        single = sum_sinr_design([q_bob], q_eve, gamma=2.0, e_max=1e6)
        doubled = sum_sinr_design([q_bob, q_bob], q_eve, gamma=2.0, e_max=1e6)
        npt.assert_allclose(doubled.energy, 0.5 * single.energy, rtol=1e-10)

    def test_aggregate_constraint_active(self):
        trial = draw_multicast(12, receivers=3)
        qs = [l.q.matrix for l in trial.bobs]
        design = sum_sinr_design(qs, trial.eve.q.matrix, gamma=2.0, e_max=100.0)
        total = sum(design.energy * quad(design.waveform, q) for q in qs)
        assert abs(total - 2.0) / 2.0 <= 1e-9


class TestMulticastProblemValidation:
    def test_mismatched_gammas(self):
        with pytest.raises(ValidationError):
            MulticastProblem(q_bobs=(np.eye(2, dtype=complex),),
                             gammas=np.array([1.0, 2.0]), e_max=1.0)

    def test_nonpositive_gamma(self):
        with pytest.raises(ValidationError):
            MulticastProblem(q_bobs=(np.eye(2, dtype=complex),),
                             gammas=np.array([0.0]), e_max=1.0)

    def test_eve_dim_mismatch(self):
        with pytest.raises(ValidationError):
            MulticastProblem(q_bobs=(np.eye(2, dtype=complex),),
                             gammas=np.array([1.0]), e_max=1.0,
                             q_eve=np.eye(3, dtype=complex))
