"""SDR multicast tests: lifting, extraction, randomization, sum-SINR."""

import collections
import pathlib
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import securewave.channel as ch
import securewave.sdp as sdp
import securewave.sdr as sdr
from securewave.config import load_config_file, sweep_spec_from_config
from securewave.errors import (NoTransmitError, NumericalError, SdpInfeasibleError,
                               ValidationError)
from securewave.harness import run_sweep, trial_rng
from securewave.p2p import _CAP_SLACK, P2pProblem, design_p2p
from securewave.sdp import SdpProblem, SdpSolution, _solve_trace_form, solve_sdp
from securewave.sdr import (
    MulticastProblem,
    build_lifted_sdp,
    extract_rank1,
    gaussian_randomization,
    multicast_design,
    sum_sinr_design,
)
from securewave.util import take


def draw_multicast(seed, receivers, chips=8):
    cfg = ch.ScenarioConfig(chips=chips, paths=3)
    return ch.draw_wiretap_trial(cfg, np.random.default_rng(seed), receivers=receivers)


def manual_solution(x):
    return SdpSolution(matrix=x, objective=0.0, bound=0.0, duality_gap=0.0,
                       max_violation=0.0, trial_iterations=0)


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
            sol = solve_sdp(build_lifted_sdp(problem))
            if extract_rank1(sol) is not None:
                hits += 1
        assert hits >= 19


class TestBuildLiftedSdp:
    def test_objective_is_q_eve_when_set_else_identity(self):
        trial = draw_multicast(3, receivers=2)
        unknown = MulticastProblem(q_bobs=tuple(l.q for l in trial.bobs),
                                   gammas=np.array([2.0, 3.0]), e_max=100.0)
        known = replace(unknown, q_eve=trial.eve.q)
        npt.assert_array_equal(build_lifted_sdp(unknown).objective, np.eye(8))
        npt.assert_array_equal(build_lifted_sdp(known).objective, trial.eve.q)
        for problem in (unknown, known):
            sdp = build_lifted_sdp(problem)
            assert sdp.dim == 8 and sdp.trace_cap == 100.0
            assert [b for _, b in sdp.constraints] == [2.0, 3.0]


class TestGaussianRandomization:
    def test_rank1_solution_reproduces_extraction(self):
        trial = draw_multicast(3, receivers=2)
        problem = MulticastProblem(
            q_bobs=tuple(l.q for l in trial.bobs),
            gammas=np.array([2.0, 3.0]), e_max=100.0, q_eve=trial.eve.q)
        sol = solve_sdp(build_lifted_sdp(problem))
        energy_ext, s_ext = extract_rank1(sol)
        obj_ext = energy_ext * quad(s_ext, problem.q_eve)
        result = gaussian_randomization(sol, problem, rng=np.random.default_rng(0))
        assert result is not None
        energy_rand, s_rand = result
        obj_rand = energy_rand * quad(s_rand, problem.q_eve)
        assert obj_rand >= obj_ext - 1e-7 * max(1.0, obj_ext)

    def test_beats_independent_random_search(self):
        trial = draw_multicast(4, receivers=3)
        gammas = np.array([1.5, 2.0, 2.5])
        problem = MulticastProblem(q_bobs=tuple(l.q for l in trial.bobs),
                                   gammas=gammas, e_max=100.0, q_eve=trial.eve.q)
        sol = solve_sdp(build_lifted_sdp(problem))
        result = gaussian_randomization(sol, problem, rng=np.random.default_rng(1))
        assert result is not None
        energy, s = result
        achieved = energy * quad(s, problem.q_eve)
        assert achieved >= sol.objective - 1e-7 * max(1.0, abs(sol.objective))
        # independent search: feasible random waveforms, tightest constraint active
        rng = np.random.default_rng(2)
        samples = rng.standard_normal((100_000, 8)) + 1j * rng.standard_normal((100_000, 8))
        samples /= np.linalg.norm(samples, axis=1, keepdims=True)
        forms = np.stack([
            np.einsum("ij,jk,ik->i", samples.conj(), l.q, samples).real
            for l in trial.bobs
        ])
        energies = np.max(gammas[:, None] / forms, axis=0)
        eve = np.einsum("ij,jk,ik->i", samples.conj(), trial.eve.q, samples).real
        feasible = energies <= 100.0
        best_search = np.min(energies[feasible] * eve[feasible])
        assert achieved <= best_search + 1e-9

    def test_tight_cap_failure_report(self):
        q = np.diag([1.0 + 0j, 0.5])
        problem = MulticastProblem(q_bobs=(q,), gammas=np.array([10.0]), e_max=9.0,
                                   q_eve=np.eye(2, dtype=complex))
        sol = manual_solution(np.eye(2, dtype=complex))
        # every rescaled sample needs energy >= gamma/lambda_max = 10 > 9
        result = gaussian_randomization(sol, problem, rng=np.random.default_rng(3))
        assert result is None

    def test_without_q_eve_picks_the_lowest_energy_sample(self):
        # One set of draws, scored by energy (no Q_e), by Q_e = I (the same
        # score) and by Eve's SINR.
        trial = draw_multicast(4, receivers=3)
        unknown = MulticastProblem(q_bobs=tuple(l.q for l in trial.bobs),
                                   gammas=np.array([1.5, 2.0, 2.5]), e_max=100.0)
        sol = manual_solution(np.eye(8, dtype=complex))
        (energy, s), (energy_id, s_id), (energy_eve, s_eve) = (
            gaussian_randomization(sol, replace(unknown, q_eve=q), rng=np.random.default_rng(5))
            for q in (None, np.eye(8, dtype=complex), trial.eve.q))
        npt.assert_allclose(energy, energy_id, rtol=1e-12)
        npt.assert_allclose(s, s_id, atol=1e-12)
        assert energy < energy_eve
        assert energy_eve * quad(s_eve, trial.eve.q) < energy * quad(s, trial.eve.q)
        for link, gamma in zip(trial.bobs, unknown.gammas):
            assert energy * quad(s, link.q) >= gamma * (1.0 - 1e-12)

    def test_deterministic_with_seed(self):
        trial = draw_multicast(5, receivers=3)
        problem = MulticastProblem(
            q_bobs=tuple(l.q for l in trial.bobs),
            gammas=np.array([1.0, 2.0, 3.0]), e_max=100.0, q_eve=trial.eve.q)
        sol = solve_sdp(build_lifted_sdp(problem))
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
        q = trial.bobs[0].q
        gamma = 3.0
        problem = MulticastProblem(q_bobs=(q,), gammas=np.array([gamma]), e_max=100.0)
        design, bound = multicast_design(problem, rng=np.random.default_rng(0))
        expected = gamma / np.linalg.eigvalsh(q)[-1]
        npt.assert_allclose(design.energy, expected, rtol=1e-6)
        npt.assert_allclose(bound, expected, rtol=1e-6)

    def test_k2_min_eve_rank1_and_bound_agreement(self):
        trial = draw_multicast(8, receivers=2)
        problem = MulticastProblem(
            q_bobs=tuple(l.q for l in trial.bobs),
            gammas=np.array([2.0, 4.0]), e_max=100.0, q_eve=trial.eve.q)
        design, bound = multicast_design(problem, rng=np.random.default_rng(0))
        assert design.info["method"] == "extraction"
        achieved = design.energy * quad(design.waveform, trial.eve.q)
        assert abs(achieved - bound) <= 1e-6 * max(1.0, abs(bound))

    def test_constraints_satisfied(self):
        for seed in range(6):
            trial = draw_multicast(seed + 30, receivers=4, chips=16)
            gammas = np.full(4, 2.0)
            problem = MulticastProblem(q_bobs=tuple(l.q for l in trial.bobs),
                                       gammas=gammas, e_max=100.0, q_eve=trial.eve.q)
            design, bound = multicast_design(problem, rng=np.random.default_rng(seed))
            for link, gamma in zip(trial.bobs, gammas):
                assert design.energy * quad(design.waveform, link.q) >= gamma - 1e-6
            assert design.energy <= 100.0 * (1 + 1e-9)

    def test_relaxation_sandwich_small_scale(self):
        trial = draw_multicast(9, receivers=2, chips=4)
        gammas = np.array([1.0, 1.5])
        problem = MulticastProblem(q_bobs=tuple(l.q for l in trial.bobs),
                                   gammas=gammas, e_max=50.0, q_eve=trial.eve.q)
        design, bound = multicast_design(problem, rng=np.random.default_rng(0))
        achieved = design.energy * quad(design.waveform, trial.eve.q)
        rng = np.random.default_rng(1)
        samples = rng.standard_normal((200_000, 4)) + 1j * rng.standard_normal((200_000, 4))
        samples /= np.linalg.norm(samples, axis=1, keepdims=True)
        forms = np.stack([
            np.einsum("ij,jk,ik->i", samples.conj(), l.q, samples).real
            for l in trial.bobs
        ])
        energies = np.max(gammas[:, None] / forms, axis=0)
        eve = np.einsum("ij,jk,ik->i", samples.conj(), trial.eve.q, samples).real
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
            multicast_design(problem, rng=np.random.default_rng(0))


def objective_of(problem, design):
    """The design's objective: Eve's SINR when Q_e is set, else its energy."""
    if problem.q_eve is None:
        return design.energy
    return design.energy * quad(design.waveform, problem.q_eve)


def least_energy(q_bobs, gammas):
    """E* as the solver computes it: the trace of the capless min-energy
    program that classifies a failed solve."""
    dim = q_bobs[0].shape[0]
    least = _solve_trace_form(np.stack(q_bobs)[None], (2.0 * gammas)[None], np.eye(dim)[None])
    return float(np.trace(least["Y"][0]).real)


class TestRelaxationBound:
    @pytest.mark.parametrize("receivers,chips", [(2, 8), (5, 16)])
    def test_bound_sits_at_or_below_every_design(self, receivers, chips):
        # 50 draws x 2 objectives per size, 200 designs in all.  The bound
        # holds with no tolerance; on rank-1 designs it is also tight.
        extracted = 0
        for seed in range(50):
            trial = draw_multicast(seed, receivers=receivers, chips=chips)
            for q_eve in (trial.eve.q, None):
                problem = MulticastProblem(q_bobs=tuple(l.q for l in trial.bobs),
                                           gammas=np.full(receivers, 10 ** 0.6),
                                           e_max=100.0, q_eve=q_eve)
                design, bound = multicast_design(problem, rng=np.random.default_rng(seed))
                achieved = objective_of(problem, design)
                assert bound <= achieved
                if design.info["method"] == "extraction":
                    extracted += 1
                    assert achieved - bound <= 1e-6 * achieved
        assert extracted >= 90

    @pytest.mark.parametrize("receivers,chips", [(2, 8), (5, 16)])
    def test_bound_sits_at_or_below_every_cap_active_design(self, receivers, chips):
        # Eve's SINR at caps 0.1%, 1% and 10% above the least energy E*: 150
        # designs per size, at least 125 of them on the cap, where the bound
        # takes the cap row at the cap a design may use.  No tolerance.
        gammas = np.full(receivers, 10 ** 0.6)
        on_cap = 0
        for seed in range(50):
            trial = draw_multicast(seed, receivers=receivers, chips=chips)
            q_bobs = tuple(l.q for l in trial.bobs)
            e_star = least_energy(q_bobs, gammas)
            for d in (1e-3, 1e-2, 1e-1):
                problem = MulticastProblem(q_bobs=q_bobs, gammas=gammas,
                                           e_max=e_star * (1.0 + d), q_eve=trial.eve.q)
                try:
                    design, bound = multicast_design(problem, rng=np.random.default_rng(seed))
                except NoTransmitError as exc:
                    # A relaxation that is not tight: no waveform fits the cap.
                    assert exc.__cause__ is None, (seed, d)
                    continue
                assert bound <= objective_of(problem, design), (seed, d)
                on_cap += design.energy >= problem.e_max * (1.0 - 1e-6)
        assert on_cap >= 125


class TestCapEdge:
    """Caps c = E*(1 + d) around each instance's least energy E* (6 dB),
    where the main solve of either objective can fail."""

    @pytest.mark.parametrize("objective", ["min-energy", "min-eve"])
    def test_cap_edge_table(self, objective, monkeypatch):
        self.check_table(objective, 2, 8, 20, monkeypatch)

    @pytest.mark.parametrize("objective", ["min-energy", "min-eve"])
    def test_cap_edge_table_k5_l16(self, objective, monkeypatch):
        self.check_table(objective, 5, 16, 10, monkeypatch)

    @staticmethod
    def check_table(objective, receivers, chips, draws, monkeypatch):
        """No failure but certified infeasibility below E* or NoTransmitError
        at or above it; bound <= objective on every design, and the label
        "least-energy" exactly on designs the least-energy program answered."""
        solutions = []

        def recording_solve(problem):
            solutions.append(solve_sdp(problem))
            return solutions[-1]

        monkeypatch.setattr(sdr, "solve_sdp", recording_solve)
        gammas = np.full(receivers, 10 ** 0.6)
        labelled = 0
        for seed in range(draws):
            trial = draw_multicast(seed, receivers=receivers, chips=chips)
            q_bobs = tuple(l.q for l in trial.bobs)
            e_star = least_energy(q_bobs, gammas)
            for d in (-1e-2, -1e-4, -1e-6, 0.0, 1e-8, 1e-6, 1e-4, 1e-2):
                problem = MulticastProblem(
                    q_bobs=q_bobs, gammas=gammas, e_max=e_star * (1.0 + d),
                    q_eve=trial.eve.q if objective == "min-eve" else None)
                solutions.clear()
                try:
                    design, bound = multicast_design(problem, rng=np.random.default_rng(0))
                except NoTransmitError as exc:
                    # Certified infeasible exactly below E*: its bound
                    # exceeds the cap there, and never at or above E*.
                    certified = isinstance(exc.__cause__, SdpInfeasibleError)
                    assert certified == (d < 0), (seed, d)
                    if certified:
                        diagnostics = exc.__cause__.diagnostics
                        assert diagnostics["energy_bound"] > diagnostics["trace_cap"]
                    continue
                assert d >= 0, (seed, d)
                assert bound <= objective_of(problem, design), (seed, d)
                # The least-energy program answered when the solver returned
                # its matrix or a second, min-energy design was made.
                answered = bool(solutions[0].least_energy[0]) or len(solutions) > 1
                assert (design.info["method"] == "least-energy") == answered, (seed, d)
                labelled += answered
        assert labelled > 0

    def test_converged_iterates_stay_interior_and_bound_tight_designs(self, monkeypatch):
        # K = 2/L = 8 draws 0-39 and K = 5/L = 16 draws 0-19, both
        # objectives, caps at and above E*; each size and objective is one
        # stacked solve.  A converged main solve ends with every LP slack t
        # and its dual z positive; a step past that orthant left draw 7 of
        # K = 5 (min-energy, 1e-6) with z = -2.6e-4 and a bound 2.6e-4 below
        # its design.  From 1e-6 above E* every extracted design sits within
        # 1e-6 of its bound.
        deltas = np.array([0.0, 1e-8, 1e-6, 1e-4, 1e-2])
        calls = []

        def recording(f_mats, f_vals, c_mat):
            calls.append(_solve_trace_form(f_mats, f_vals, c_mat))
            return calls[-1]

        converged = extracted = 0
        for receivers, chips, draws in ((2, 8, 40), (5, 16, 20)):
            gammas = np.full(receivers, 10 ** 0.6)
            trials = [draw_multicast(seed, receivers=receivers, chips=chips)
                      for seed in range(draws)]
            e_star = np.array([least_energy(tuple(l.q for l in trial.bobs), gammas)
                               for trial in trials])

            def stacked(links):
                return np.repeat(np.stack([link.q for link in links]), len(deltas), axis=0)

            q_bobs = tuple(stacked([trial.bobs[k] for trial in trials]) for k in range(receivers))
            for q_eve in (None, stacked([trial.eve for trial in trials])):
                problems = MulticastProblem(q_bobs=q_bobs, gammas=gammas,
                                            e_max=np.outer(e_star, 1.0 + deltas).ravel(),
                                            q_eve=q_eve)
                calls.clear()
                with monkeypatch.context() as patched:
                    patched.setattr(sdp, "_solve_trace_form", recording)
                    solutions = sdr.solve_relaxation(problems)
                for t in range(len(calls[0]["converged"])):
                    main = take(calls[0], t)
                    seed, d = t // len(deltas), deltas[t % len(deltas)]
                    if main["converged"]:
                        converged += 1
                        assert main["t"].min() > 0 and main["z"].min() > 0, (seed, d)
                    error = solutions.errors[t]
                    if error is not None:
                        assert isinstance(error, NoTransmitError), (seed, d)
                        continue
                    problem = take(problems, t)
                    try:
                        design, bound = multicast_design(problem, np.random.default_rng(0),
                                                         take(solutions, t))
                    except NoTransmitError:
                        continue
                    achieved = objective_of(problem, design)
                    assert bound <= achieved, (seed, d)
                    if d >= 1e-6 and design.info["method"] == "extraction":
                        extracted += 1
                        assert bound >= achieved * (1.0 - 1e-6), (seed, d)
        assert converged >= 250 and extracted >= 200

    def test_a_stack_solves_each_trial_as_alone(self, monkeypatch):
        # The K = 2/L = 8 draws 0-19, both objectives, at d = -1e-2
        # (infeasible), 0, 1e-8 and 1e-6 (converged or answered by the
        # least-energy program), and a cap in the least-energy program's
        # precision band (NumericalError): 161 programs in one stack, each
        # solved bit for bit as alone.  Some trials leave their stack at a
        # failed factorization.
        newton_step, left = sdp._newton_step, []

        def recording(live, degree):
            failed, stalled = newton_step(live, degree)
            left.append(int(failed.sum()))
            return failed, stalled

        monkeypatch.setattr(sdp, "_newton_step", recording)
        gammas = np.full(2, 10 ** 0.6)
        problems = []
        for seed in range(20):
            trial = draw_multicast(seed, receivers=2, chips=8)
            q_bobs = tuple(l.q for l in trial.bobs)
            e_star = least_energy(q_bobs, gammas)
            problems += [MulticastProblem(q_bobs=q_bobs, gammas=gammas, e_max=e_star * (1.0 + d),
                                          q_eve=q_eve)
                         for q_eve in (None, trial.eve.q) for d in (-1e-2, 0.0, 1e-8, 1e-6)]
        # The draw of ``design-multicast --mode multicast-min-energy-an --k 2
        # --l 8 --seed 6`` at the cap of tools/byte_check.py's FAILING.
        spec = sweep_spec_from_config({"schema_version": "1"},
                                      {"mode": "multicast-min-energy-an", "k": 2, "l": 8, "seed": 6})
        band = ch.draw_wiretap_trial(spec.scenario, [trial_rng(6, 0, 0)], receivers=2)
        problems.append(MulticastProblem(q_bobs=tuple(l.q[0] for l in band.bobs), gammas=gammas,
                                         e_max=5.118895747713758))
        lifted = [build_lifted_sdp(problem) for problem in problems]
        stacked = solve_sdp(SdpProblem(
            objective=np.stack([p.objective for p in lifted]),
            constraints=tuple((np.stack([p.constraints[k][0] for p in lifted]),
                               np.array([p.constraints[k][1] for p in lifted])) for k in range(2)),
            trace_cap=np.array([p.trace_cap for p in lifted])))
        assert stacked.iterations == sum(stacked.trial_iterations)
        outcomes = collections.Counter()
        for t, problem in enumerate(lifted):
            error = stacked.errors[t]
            try:
                alone = solve_sdp(problem)
            except (SdpInfeasibleError, NumericalError) as exc:
                assert (type(error), str(error), error.diagnostics) == (
                    type(exc), str(exc), exc.diagnostics)
                assert np.isnan(stacked.objective[t]) and not stacked.least_energy[t]
                outcomes[type(exc).__name__] += 1
                continue
            assert error is None
            one = take(stacked, t)
            for name in ("matrix", "objective", "bound", "duality_gap", "max_violation",
                         "trial_iterations", "least_energy"):
                npt.assert_array_equal(getattr(one, name), getattr(alone, name), err_msg=name)
            assert one.iterations == alone.iterations
            outcomes["least-energy" if alone.least_energy else "converged"] += 1
        assert outcomes == {"SdpInfeasibleError": 40, "converged": 32, "least-energy": 88,
                            "NumericalError": 1}
        assert sum(left) > 0

    def test_a_failed_solve_reports_its_best_dual_iterate(self, monkeypatch):
        # Draw 7 of the K = 2/L = 8 table at d = 1e-6 (min-Eve): the main
        # solve fails, and its last dual iterate bounds Eve's SINR by 4.80320
        # against a design of 4.81163; an earlier iterate reaches 4.80367.
        trial = draw_multicast(7, receivers=2, chips=8)
        q_bobs, gammas = tuple(l.q for l in trial.bobs), np.full(2, 10 ** 0.6)
        problem = MulticastProblem(q_bobs=q_bobs, gammas=gammas,
                                   e_max=least_energy(q_bobs, gammas) * (1.0 + 1e-6),
                                   q_eve=trial.eve.q)
        states = []

        def recording(f_mats, f_vals, c_mat):
            states.append(_solve_trace_form(f_mats, f_vals, c_mat))
            return states[-1]

        monkeypatch.setattr(sdp, "_solve_trace_form", recording)
        design, bound = multicast_design(problem, np.random.default_rng(0))
        main = take(states[0], 0)
        assert not main["converged"] and np.array_equal(main["duals"][-1], main["y"])
        lifted = build_lifted_sdp(problem)
        f_mats = np.stack([a for a, _ in lifted.constraints] + [-np.eye(8)])
        design_cap = lifted.trace_cap * (1.0 + _CAP_SLACK)
        rows = np.array([2.0 * b for _, b in lifted.constraints] + [-2.0 * design_cap])
        last = sdp._dual_bound(main["y"], f_mats, rows, lifted.objective, design_cap)
        assert last < bound <= objective_of(problem, design)
        assert bound > 0.99 * objective_of(problem, design)

    def test_min_eve_trial_with_no_waveform_in_the_cap_gets_the_least_energy_design(self):
        # Trial 0 of seed 1 (K = 5, L = 16, 6 dB) at E*(1 + 1e-3): the min-Eve
        # relaxation is solved, but neither its rank-1 candidate nor any
        # randomization sample fits the cap.
        spec = sweep_spec_from_config({"schema_version": "1"},
                                      {"mode": "multicast-sdr", "k": 5, "l": 16, "seed": 1})
        rng = trial_rng(1, 0, 0)
        trial = ch.draw_wiretap_trial(spec.scenario, rng, receivers=5)
        q_bobs, gammas = tuple(l.q for l in trial.bobs), np.full(5, 10 ** 0.6)
        problem = MulticastProblem(q_bobs=q_bobs, gammas=gammas,
                                   e_max=least_energy(q_bobs, gammas) * (1.0 + 1e-3),
                                   q_eve=trial.eve.q)
        assert not solve_sdp(build_lifted_sdp(problem)).least_energy
        design, bound = multicast_design(problem, rng)
        assert design.info["method"] == "least-energy"
        least, _ = multicast_design(replace(problem, q_eve=None), np.random.default_rng(0))
        assert design.energy == least.energy <= problem.e_max * (1.0 + _CAP_SLACK)
        for q, gamma in zip(q_bobs, gammas):
            assert design.energy * quad(design.waveform, q) >= gamma * (1.0 - 1e-12)
        assert bound <= objective_of(problem, design)


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
        q_bob, q_eve = trial.bobs[0].q, trial.eve.q
        direct = design_p2p(P2pProblem(q_bob=q_bob, q_eve=q_eve, gamma=2.0, e_max=100.0))
        viasum = sum_sinr_design([q_bob], q_eve, gamma=2.0, e_max=100.0)
        npt.assert_allclose(viasum.energy, direct.energy, rtol=1e-12)
        npt.assert_array_equal(viasum.waveform, direct.waveform)

    def test_duplicated_receiver_halves_energy(self):
        trial = draw_multicast(11, receivers=1)
        q_bob, q_eve = trial.bobs[0].q, trial.eve.q
        single = sum_sinr_design([q_bob], q_eve, gamma=2.0, e_max=1e6)
        doubled = sum_sinr_design([q_bob, q_bob], q_eve, gamma=2.0, e_max=1e6)
        npt.assert_allclose(doubled.energy, 0.5 * single.energy, rtol=1e-10)

    def test_aggregate_constraint_active(self):
        trial = draw_multicast(12, receivers=3)
        qs = [l.q for l in trial.bobs]
        design = sum_sinr_design(qs, trial.eve.q, gamma=2.0, e_max=100.0)
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

    def test_rejects_no_receivers_mixed_dimensions_and_bad_caps(self):
        eye = np.eye(2, dtype=complex)
        for kw, message in (
                (dict(q_bobs=(), gammas=np.array([])), "at least one intended receiver"),
                (dict(q_bobs=(eye, np.eye(3, dtype=complex)), gammas=np.ones(2)),
                 "share one dimension"),
                (dict(e_max=0.0), "e_max must be positive"),
                (dict(e_max=np.array([1.0, float("nan")])), "e_max must be positive")):
            args = dict(q_bobs=(eye,), gammas=np.array([1.0]), e_max=1.0)
            args.update(kw)
            with pytest.raises(ValidationError, match=message):
                MulticastProblem(**args)

    def test_eve_dim_mismatch(self):
        with pytest.raises(ValidationError):
            MulticastProblem(q_bobs=(np.eye(2, dtype=complex),),
                             gammas=np.array([1.0]), e_max=1.0,
                             q_eve=np.eye(3, dtype=complex))
