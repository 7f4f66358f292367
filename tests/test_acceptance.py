"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
ACCEPTANCE lines on passing criteria too).  The heavy Monte Carlo criteria
(6-8) take several minutes each at their specified trial counts.
"""

import time

import numpy as np
import pytest
from scipy.stats import norm

import securewave.channel as ch
from securewave.an import an_pipeline_multicast, an_pipeline_single
from securewave.errors import NoTransmitError
from securewave.harness import SweepSpec, emit_results, estimate_ber, run_sweep, trial_rng
from securewave.kernel import generalized_eigh, quadratic_form
from securewave.p2p import P2pProblem, check_feasibility, design_p2p
from securewave.sdp import SdpProblem, solve_sdp
from securewave.sdr import MulticastProblem, extract_rank1, multicast_design
from securewave.util import db_to_linear

pytestmark = pytest.mark.acceptance

GAMMA_GRID_DB = tuple(float(g) for g in range(11))


def report(criterion, passed, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def quad(s, q):
    return float(np.real(s.conj() @ q @ s))


def draw_instance(seed, trial, chips=8, receivers=1):
    cfg = ch.ScenarioConfig(chips=chips, paths=3, seed=seed, trials=1)
    return ch.draw_wiretap_trial(cfg, trial_rng(seed, 0, trial), receivers=receivers)


def test_criterion_01_constraint_activeness():
    """Every design activates the intended receiver's SINR constraint."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    branches = {"eigen": 0, "bisection": 0}
    count = 0
    trial = 0
    while count < 10_000:
        draw = draw_instance(101, trial)
        trial += 1
        gamma = float(db_to_linear(rng.uniform(0.0, 10.0)))
        problem = P2pProblem(q_bob=draw.bobs[0].q, q_eve=draw.eve.q,
                             gamma=gamma, e_max=100.0)
        if not check_feasibility(problem):
            continue
        design = design_p2p(problem)
        achieved = design.energy * quad(design.waveform, problem.q_bob)
        worst = max(worst, abs(achieved - gamma) / gamma)
        branches[design.branch] += 1
        count += 1
    elapsed = time.perf_counter() - start
    report("01 constraint-activeness",
           worst <= 1e-9 and elapsed <= 60.0,
           f"max rel deviation {worst:.3e} over 10^4 feasible instances "
           f"(branches {branches}), {elapsed:.1f}s (budget 60s)")


def test_criterion_02_eigen_design_optimality():
    """Design objective beats 10^6 random feasible waveforms per instance."""
    start = time.perf_counter()
    failures = 0
    checked = 0
    seed_trial = 0
    for chips in (2, 3):
        done = 0
        while done < 50:
            draw = draw_instance(202, seed_trial, chips=chips)
            seed_trial += 1
            gamma = float(db_to_linear(np.random.default_rng(seed_trial).uniform(0.0, 10.0)))
            problem = P2pProblem(q_bob=draw.bobs[0].q, q_eve=draw.eve.q,
                                 gamma=gamma, e_max=100.0)
            if not check_feasibility(problem):
                continue
            design = design_p2p(problem)
            achieved = design.energy * quad(design.waveform, problem.q_eve)
            rng = np.random.default_rng(1000 + seed_trial)
            samples = rng.standard_normal((1_000_000, chips)) + 1j * rng.standard_normal(
                (1_000_000, chips))
            samples /= np.linalg.norm(samples, axis=1, keepdims=True)
            qb = np.einsum("ij,jk,ik->i", samples.conj(), problem.q_bob, samples).real
            feasible = qb >= gamma / 100.0
            if not feasible.any():
                continue
            qe = np.einsum("ij,jk,ik->i", samples.conj(), problem.q_eve, samples).real
            best = np.min(gamma * qe[feasible] / qb[feasible])
            if achieved > best + 1e-12:
                failures += 1
            done += 1
            checked += 1
    elapsed = time.perf_counter() - start
    report("02 eigen-design-optimality",
           failures == 0 and checked == 100 and elapsed <= 300.0,
           f"{failures} of {checked} instances beaten by random search, "
           f"{elapsed:.1f}s (budget 300s)")


def bisection_instance(seed, trial, chips=4):
    """Feasible instance forced onto the cap-active branch."""
    draw = draw_instance(seed, trial, chips=chips)
    q_bob, q_eve = draw.bobs[0].q, draw.eve.q
    gamma = 2.0
    s_eigen = generalized_eigh(q_eve, q_bob)[1][:, 0]
    g_eigen = quad(s_eigen, q_bob)
    lam_max = float(np.linalg.eigvalsh(q_bob)[-1])
    e_max = gamma / np.sqrt(g_eigen * lam_max)
    return P2pProblem(q_bob=q_bob, q_eve=q_eve, gamma=gamma, e_max=float(e_max))


def test_criterion_03_kkt_bisection():
    """KKT residuals, multiplier signs, and grid-search optimality.

    The grid search upper-bounds the optimum with its own discretization
    error (the solver lands between grid points and always does at least as
    well), so the objective comparison is one-sided: the solver may not be
    worse than the grid minimum by more than 1e-4 relative.  Each instance's
    pencil is reduced once (``_cap_active_map``) and evaluated at every
    grid point in one broadcast call.
    """
    from securewave.p2p import _cap_active_map, _waveform, kkt_bisection

    start = time.perf_counter()
    worst_resid = worst_target = worst_norm = 0.0
    worst_obj = -np.inf
    grid = np.linspace(0.0, 1.0 - 1e-9, 10_000)
    for trial in range(50):
        problem = bisection_instance(303, trial)
        design = kkt_bisection(problem)
        mu, beta = design.info["mu"], design.info["beta"]
        assert mu > 0 and beta > 0
        s = design.waveform
        resid = np.linalg.norm(
            (problem.q_eve + mu * np.eye(problem.dim)) @ s - beta * (problem.q_bob @ s))
        target_gap = abs(quad(s, problem.q_bob) - problem.gamma / problem.e_max)
        norm_gap = abs(np.linalg.norm(s) - 1.0)
        achieved = design.energy * quad(s, problem.q_eve)
        target = problem.gamma / problem.e_max
        pencil, _ = _cap_active_map(problem)
        _, z, g, _ = pencil(grid)
        cand = _waveform(z)
        meets = g >= target
        best = np.min(problem.gamma * quadratic_form(problem.q_eve, cand[meets]) / g[meets],
                      initial=np.inf)
        worst_resid = max(worst_resid, resid)
        worst_target = max(worst_target, target_gap)
        worst_norm = max(worst_norm, norm_gap)
        worst_obj = max(worst_obj, (achieved - best) / best)
    elapsed = time.perf_counter() - start
    report("03 kkt-bisection",
           worst_resid <= 1e-8 and worst_target < 1e-8 and worst_norm <= 1e-8
           and worst_obj <= 1e-4,
           f"max stationarity resid {worst_resid:.2e}, cap gap {worst_target:.2e}, "
           f"worst excess over grid optimum {worst_obj:.2e} over 50 instances, "
           f"{elapsed:.1f}s")


def test_criterion_04_an_zero_degradation():
    """AN leaves every intended receiver's SINR untouched, budget exact."""
    worst_single = worst_multi = worst_budget = 0.0
    done = 0
    trial = 0
    while done < 200:
        draw = draw_instance(404, trial)
        trial += 1
        gamma = float(db_to_linear(np.random.default_rng(trial).uniform(0.0, 10.0)))
        try:
            design, an_cov = an_pipeline_single(draw.bobs[0].q, gamma, 100.0)
        except NoTransmitError:
            continue
        bob = draw.bobs[0]
        plain = ch.sinr(bob.q, design.waveform, design.energy)
        loaded = ch.sinr_with_an(bob.channel, bob.disturbance, an_cov,
                                 design.waveform, design.energy)
        worst_single = max(worst_single, abs(loaded - plain) / plain)
        expected_budget = 100.0 - design.energy
        worst_budget = max(worst_budget,
                           abs(np.trace(an_cov.matrix).real - expected_budget)
                           / max(expected_budget, 1e-30))
        done += 1
    done = 0
    trial = 0
    while done < 100:
        receivers = 2 + done % 3
        draw = draw_instance(405, trial, receivers=receivers)
        trial += 1
        qs = tuple(link.q for link in draw.bobs)
        problem = MulticastProblem(q_bobs=qs, gammas=np.full(receivers, 2.0), e_max=100.0)
        try:
            design, _ = multicast_design(problem, rng=trial_rng(405, 1, trial))
            an_cov = an_pipeline_multicast(design, qs, 100.0)
        except NoTransmitError:
            continue
        for link in draw.bobs:
            plain = ch.sinr(link.q, design.waveform, design.energy)
            loaded = ch.sinr_with_an(link.channel, link.disturbance, an_cov,
                                     design.waveform, design.energy)
            worst_multi = max(worst_multi, abs(loaded - plain) / plain)
        expected_budget = 100.0 - design.energy
        worst_budget = max(worst_budget,
                           abs(np.trace(an_cov.matrix).real - expected_budget)
                           / max(expected_budget, 1e-30))
        done += 1
    report("04 an-zero-degradation",
           worst_single <= 1e-9 and worst_multi <= 1e-9 and worst_budget <= 1e-10,
           f"max SINR rel dev single {worst_single:.2e}, multicast {worst_multi:.2e}, "
           f"budget rel dev {worst_budget:.2e}")


def test_criterion_05_sdr_vs_eigen():
    """K=1 SDP matches design_p2p; K=2 relaxations come back rank-1."""
    worst = 0.0
    done = 0
    trial = 0
    while done < 100:
        draw = draw_instance(505, trial)
        trial += 1
        gamma = float(db_to_linear(np.random.default_rng(trial).uniform(0.0, 10.0)))
        problem = P2pProblem(q_bob=draw.bobs[0].q, q_eve=draw.eve.q,
                             gamma=gamma, e_max=100.0)
        if not check_feasibility(problem):
            continue
        design = design_p2p(problem)
        reference = design.energy * quad(design.waveform, problem.q_eve)
        sdp = SdpProblem(objective=problem.q_eve, constraints=((problem.q_bob, gamma),),
                         trace_cap=100.0)
        sol = solve_sdp(sdp)
        worst = max(worst, abs(sol.objective - reference) / reference)
        done += 1
    rank1 = 0
    for trial in range(100):
        draw = draw_instance(506, trial, receivers=2)
        problem = MulticastProblem(
            q_bobs=tuple(link.q for link in draw.bobs),
            gammas=np.array([2.0, 3.0]), e_max=100.0, q_eve=draw.eve.q)
        sdp = SdpProblem(objective=draw.eve.q,
                         constraints=tuple(zip(problem.q_bobs, problem.gammas)),
                         trace_cap=100.0)
        sol = solve_sdp(sdp)
        if extract_rank1(sol) is not None:
            rank1 += 1
    report("05 sdr-vs-eigen",
           worst <= 1e-6 and rank1 >= 95,
           f"K=1 max rel objective dev {worst:.2e} over 100 fixtures; "
           f"K=2 rank-1 extraction {rank1}/100")


def _fig3_sweeps():
    values = GAMMA_GRID_DB
    tables = {}
    for mode in ("eigen-known-csi", "an-unknown-csi", "min-energy-no-an"):
        cfg = ch.ScenarioConfig(chips=8, paths=3, seed=606, trials=10_000)
        spec = SweepSpec(scenario=cfg, mode=mode, sweep="gamma_db", values=values,
                         e_max=100.0, sinr_average="db")
        tables[mode] = run_sweep(spec)
    return tables


def test_criterion_06_fig3_reproduction():
    """Ordering, AN improvement ~2 dB, and Bob-to-Eve margin window."""
    start = time.perf_counter()
    tables = _fig3_sweeps()
    eigen = tables["eigen-known-csi"].column("mean_sinr_eve_db")
    an = tables["an-unknown-csi"].column("mean_sinr_eve_db")
    no_an = tables["min-energy-no-an"].column("mean_sinr_eve_db")
    ordering = bool(np.all(eigen <= an) and np.all(an <= no_an))
    improvement = float(np.mean(no_an - an))
    margins = np.array(GAMMA_GRID_DB) - an
    elapsed = time.perf_counter() - start
    report("06 fig3-reproduction",
           ordering and 0.5 <= improvement <= 3.5
           and bool(np.all((margins >= 4.5) & (margins <= 9.5)))
           and elapsed <= 600.0,
           f"ordering={ordering}, AN improvement {improvement:.2f} dB "
           f"(window [0.5, 3.5]), margins {np.round(margins, 2).tolist()} dB "
           f"(window [4.5, 9.5]), {elapsed:.0f}s (budget 600s)")


def test_criterion_07_solvability_trend():
    """Solvability: L=16 above L=8 at every gamma; L=16 near-certain to 6 dB.

    The strict dominance clause is asserted at every grid point.  Under this
    scenario model both lengths saturate at empirical solvability 1.0 for
    small gamma at 10^4 trials, so the strict comparison cannot hold there;
    the failure is expected and documented in the repo notes.
    """
    tables = {}
    for chips in (8, 16):
        cfg = ch.ScenarioConfig(chips=chips, paths=3, seed=707, trials=10_000)
        spec = SweepSpec(scenario=cfg, mode="min-energy-no-an", sweep="gamma_db",
                         values=GAMMA_GRID_DB, e_max=100.0)
        tables[chips] = run_sweep(spec).column("solvability")
    strict = bool(np.all(tables[16] > tables[8]))
    near_certain = bool(np.all(tables[16][:7] > 0.95))
    report("07 solvability-trend",
           strict and near_certain,
           f"L=8 solvability {tables[8].tolist()}, L=16 {tables[16].tolist()}; "
           f"strict-dominance={strict}, L16>0.95 up to 6 dB={near_certain}")


def test_criterion_08_uncoded_ber():
    """Bob matches the Gaussian analytic BER; Eve's uncoded-BER floor.

    The Eve clause (BER >= 0.3 at every gamma) is asserted as stated.  The
    eigen design gives SINR_e proportional to gamma, so Eve's uncoded BER
    falls well below 0.3 at high gamma and this clause is expected to fail;
    a near-1/2 eavesdropper error rate is a property of coded transmission,
    which is out of scope here.
    """
    noise_only = ch.ScenarioConfig(chips=8, paths=3, noise_variance=1.0,
                                   interferer_count=(0, 0), seed=808,
                                   isi_enabled=False, trials=200)
    spec = SweepSpec(scenario=noise_only, mode="min-energy-no-an", sweep="gamma_db",
                     values=(0.0, 3.0, 6.0), e_max=100.0, bits_per_trial=10_000)
    table = estimate_ber(spec)
    bob_ok = True
    bob_detail = []
    for row, gamma_db in zip(table.rows, (0.0, 3.0, 6.0)):
        expected = float(norm.sf(np.sqrt(2.0 * db_to_linear(gamma_db))))
        deviation = abs(row.ber_bob - expected)
        bob_ok = bob_ok and deviation <= 3.0 * row.ber_bob_ci
        bob_detail.append(f"{gamma_db:.0f}dB: {row.ber_bob:.5f} vs {expected:.5f} "
                          f"({deviation / row.ber_bob_ci:.2f} SE)")
    full = ch.ScenarioConfig(chips=8, paths=3, seed=809, isi_enabled=True, trials=200)
    spec = SweepSpec(scenario=full, mode="eigen-known-csi", sweep="gamma_db",
                     values=GAMMA_GRID_DB, e_max=100.0, bits_per_trial=10_000)
    eve = estimate_ber(spec).column("ber_eve")
    eve_ok = bool(np.all(eve >= 0.3))
    report("08 uncoded-ber",
           bob_ok and eve_ok,
           f"Bob noise-only [{'; '.join(bob_detail)}]; "
           f"Eve BER per gamma {np.round(eve, 3).tolist()} (floor 0.3: {eve_ok})")


def test_criterion_09_multicast_feasibility():
    """K=5, L=16: constraints met and objective near the SDP lower bound."""
    gamma = float(db_to_linear(6.0))
    solved = 0
    trial = 0
    violations = 0
    within_gap = 0
    while solved < 100:
        draw = draw_instance(909, trial, chips=16, receivers=5)
        trial += 1
        problem = MulticastProblem(
            q_bobs=tuple(link.q for link in draw.bobs),
            gammas=np.full(5, gamma), e_max=100.0, q_eve=draw.eve.q)
        try:
            design, bound = multicast_design(problem, rng=trial_rng(909, 1, trial))
        except NoTransmitError:
            continue
        solved += 1
        levels = [design.energy * quad(design.waveform, link.q)
                  for link in draw.bobs]
        if min(levels) < gamma - 1e-6 or design.energy > 100.0 * (1 + 1e-9):
            violations += 1
        achieved = design.energy * quad(design.waveform, draw.eve.q)
        if achieved <= bound * 1.05 + 1e-12:
            within_gap += 1
    report("09 multicast-feasibility",
           violations == 0 and within_gap >= 90,
           f"{violations} constraint violations; bound gap <= 5% on "
           f"{within_gap}/100 solvable instances")


def test_criterion_10_determinism(tmp_path):
    """Identical master seed reproduces byte-identical CSV output."""
    cfg = ch.ScenarioConfig(chips=8, paths=3, seed=1010, trials=200)
    spec = SweepSpec(scenario=cfg, mode="an-unknown-csi", sweep="gamma_db",
                     values=(0.0, 5.0, 10.0), e_max=100.0)
    paths = [tmp_path / name for name in ("a.csv", "b.csv")]
    for path in paths:
        emit_results(run_sweep(spec), path)
    sweep_same = paths[0].read_bytes() == paths[1].read_bytes()
    ber_cfg = ch.ScenarioConfig(chips=8, paths=3, seed=1011, trials=5,
                                isi_enabled=True)
    ber_spec = SweepSpec(scenario=ber_cfg, mode="eigen-known-csi", sweep="gamma_db",
                         values=(3.0,), e_max=100.0, bits_per_trial=1000)
    ber_paths = [tmp_path / name for name in ("c.csv", "d.csv")]
    for path in ber_paths:
        emit_results(estimate_ber(ber_spec), path)
    ber_same = ber_paths[0].read_bytes() == ber_paths[1].read_bytes()
    report("10 determinism",
           sweep_same and ber_same,
           f"sweep rerun byte-identical={sweep_same}, BER rerun byte-identical={ber_same}")
