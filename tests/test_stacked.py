"""Stacked trial engine: fused draws, stack invariance, and per-trial fallout.

The reference implementations below are the per-trial algorithms the
stacked engine replaced (one trial at a time, scipy Cholesky solves), kept
here to pin that stacking moves results by roundoff only.
"""

import sys
import threading
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg

import securewave.channel as ch
import securewave.harness as hn
import securewave.p2p as p2p
import securewave.sdr as sdr
from securewave.config import load_config_file, sweep_spec_from_config
from securewave.errors import (DefinitenessError, NoTransmitError, NumericalError,
                               SecureWaveError, ValidationError)
from securewave.kernel import phase_normalize
from securewave.p2p import (P2pProblem, WaveformDesign, design_p2p, eigen_design,
                             kkt_bisection)
from securewave.util import batch_of_one, complex_normal, db_to_linear, take

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def scenario(**kw):
    defaults = dict(chips=8, paths=3, interferer_count=(0, 10), seed=5, trials=12)
    defaults.update(kw)
    return ch.ScenarioConfig(**defaults)


def rngs_for(cfg, value_index=0):
    return [hn.trial_rng(cfg.seed, value_index, t) for t in range(cfg.trials)]


# -- the per-trial algorithms the stack replaced ------------------------------

def reference_draw(cfg, rng, receivers):
    """One trial drawn as before: population, then per receiver its taps,
    its interferer taps, R and Q (scipy Cholesky solve)."""
    lo, hi = cfg.interferer_count
    count = int(rng.integers(lo, hi + 1))
    energies = waveforms = None
    if count:
        energies = rng.uniform(*cfg.interferer_energy, size=count)
        waveforms = complex_normal(rng, (count, cfg.chips))
        waveforms /= np.linalg.norm(waveforms, axis=1, keepdims=True)
    links = []
    for _ in range(receivers + 1):
        h = ch.convolution_channel_matrix(complex_normal(rng, cfg.paths) / np.sqrt(cfg.paths),
                                          cfg.chips).matrix
        r = cfg.noise_variance * np.eye(cfg.block_dim, dtype=complex)
        if count:
            taps = complex_normal(rng, (count, cfg.paths)) / np.sqrt(cfg.paths)
            received = np.stack([ch.convolution_channel_matrix(t, cfg.chips).matrix @ w
                                 for t, w in zip(taps, waveforms)])
            r += received.T @ (energies[:, None] * received.conj())
        r = 0.5 * (r + r.conj().T)
        factor = scipy.linalg.cho_factor(r, lower=True)
        q = h.conj().T @ scipy.linalg.cho_solve(factor, h)
        links.append((h, r, 0.5 * (q + q.conj().T)))
    return links


def reference_generalized_min(a, b):
    chol = np.linalg.cholesky(b)
    x = scipy.linalg.solve_triangular(chol, a, lower=True)
    mid = scipy.linalg.solve_triangular(chol, x.conj().T, lower=True).conj().T
    w, y = np.linalg.eigh(0.5 * (mid + mid.conj().T))
    assert w[1] - w[0] > 1e-6 * abs(w[0])
    p = scipy.linalg.solve_triangular(chol.conj().T, y[:, 0], lower=False)
    return phase_normalize(p / np.linalg.norm(p))


def reference_trial(mode, links, gamma, e_max):
    """(sinr_bob tuple, sinr_eve, energy, an_energy) or None (no transmit)."""
    q_bobs = [q for _, _, q in links[:-1]]
    an = None
    if mode in ("eigen-known-csi", "sum-sinr"):
        q_bob, q_eve = sum(q_bobs), links[-1][2]
        if np.linalg.eigvalsh(q_bob)[-1] < gamma / e_max:
            return None
        s = reference_generalized_min(q_eve, q_bob)
        energy = gamma / np.real(s.conj() @ q_bob @ s)
        if energy > e_max:
            design = kkt_bisection(P2pProblem(q_bob=q_bob, q_eve=q_eve, gamma=gamma,
                                              e_max=e_max))
            s, energy = design.waveform, design.energy
    else:
        w, v = np.linalg.eigh(q_bobs[0])
        s, energy = phase_normalize(v[:, -1]), gamma / w[-1]
        if energy > e_max:
            return None
        if mode == "an-unknown-csi":
            u = np.linalg.svd((q_bobs[0] @ s)[:, None])[0][:, 1:]
            an = (e_max - energy) / u.shape[1] * (u @ u.conj().T)

    def score(h, r, q):
        if an is None:
            return energy * np.real(s.conj() @ q @ s)
        hs = h @ s
        factor = scipy.linalg.cho_factor(r + h @ an @ h.conj().T, lower=True)
        return energy * np.real(hs.conj() @ scipy.linalg.cho_solve(factor, hs))

    sinrs = [score(*link) for link in links]
    return tuple(sinrs[:-1]), sinrs[-1], energy, 0.0 if an is None else e_max - energy


def alone(spec, draw, gamma, e_max, rng):
    """The Outcome of ``draw``, a trial's stack of one, taken as the design
    commands take it: the trial's error is raised."""
    return batch_of_one(hn.solve_stack(spec, draw, gamma, e_max, [rng])[1])


def stacked_trials(spec, gamma, e_max):
    """One solved stack: its score rows, and each trial's energy (None when
    the trial sends nothing) from the stacked design."""
    cfg = spec.scenario
    rngs = rngs_for(cfg)
    draw = ch.draw_wiretap_trial(cfg, rngs, receivers=spec.receivers)
    scores, stacked = hn.solve_stack(spec, draw, gamma, e_max, rngs)
    energies = [None if error is not None else take(stacked, t).design.energy
                for t, error in enumerate(stacked.errors)]
    return scores, energies


# -- (a) the fused draw --------------------------------------------------------

class TestFusedDraw:
    def test_one_normal_call_equals_consecutive_calls(self):
        fused, split = hn.trial_rng(3, 1, 4), hn.trial_rng(3, 1, 4)
        parts = [split.standard_normal(n) for n in (96, 6, 30)]
        npt.assert_array_equal(fused.standard_normal(132), np.concatenate(parts))
        npt.assert_array_equal(fused.standard_normal(4), split.standard_normal(4))

    @pytest.mark.parametrize("receivers,count", [(1, (0, 0)), (1, (0, 10)), (5, (5, 10))])
    def test_draw_consumes_what_the_per_trial_draw_did(self, receivers, count):
        cfg = scenario(interferer_count=count)
        for t in range(6):
            ours, theirs = hn.trial_rng(9, 0, t), hn.trial_rng(9, 0, t)
            trial = ch.draw_wiretap_trial(cfg, ours, receivers=receivers)
            links = reference_draw(cfg, theirs, receivers)
            npt.assert_array_equal(ours.standard_normal(4), theirs.standard_normal(4))
            for link, (h, r, q) in zip(trial.bobs + (trial.eve,), links):
                npt.assert_array_equal(link.channel.matrix, h)
                npt.assert_allclose(link.disturbance.matrix, r, rtol=1e-14, atol=1e-14)
                npt.assert_allclose(link.q, q, rtol=1e-12, atol=1e-14 * np.abs(q).max())


# -- (b) stack invariance ------------------------------------------------------

NON_SDR = [("eigen-known-csi", 1), ("an-unknown-csi", 1), ("min-energy-no-an", 1),
           ("sum-sinr", 5)]
SDR = [("multicast-sdr", 2), ("multicast-min-energy-an", 2)]
# The least energy E* of trial 8 of the stacks below: capped there, its
# min-Eve relaxation stalls and goes to the least-energy program.
EDGE = 4.082932172771755


class TestStackInvariance:
    # A cap of 3 (0.5 for five receivers) mixes eigen, cap-active and
    # silent trials in one stack; a cap of 5 mixes sending and silent SDR
    # trials, a cap of E* adds a trial the least-energy program answers,
    # and at K = 6 a cap of 20 one that randomization recovers.
    @pytest.mark.parametrize("mode,receivers,e_max", [
        pytest.param(mode, receivers, 100.0, id=f"{mode}-{receivers}") for mode, receivers in NON_SDR
    ] + [
        pytest.param(mode, receivers, cap, id=f"{mode}-{receivers}-emax{cap:g}")
        for (mode, receivers), cap in zip(NON_SDR + SDR, (3.0, 3.0, 3.0, 0.5, 5.0, 5.0))
    ] + [pytest.param("multicast-sdr", 2, EDGE, id="multicast-sdr-2-least-energy"),
         pytest.param("multicast-sdr", 6, 20.0, id="multicast-sdr-6-randomization")])
    def test_each_trial_bitwise_equal_alone_and_in_any_stack(self, monkeypatch, mode, receivers,
                                                            e_max):
        solutions, solve_sdp = [], sdr.solve_sdp
        randomized, gaussian_randomization = [], sdr.gaussian_randomization

        def recording_solve(problem):
            solutions.append(solve_sdp(problem))
            return solutions[-1]

        def recording_randomization(solution, problem, rng):
            randomized.append(solution)
            return gaussian_randomization(solution, problem, rng)

        monkeypatch.setattr(sdr, "solve_sdp", recording_solve)
        monkeypatch.setattr(sdr, "gaussian_randomization", recording_randomization)
        cfg = scenario(trials=9)
        spec = hn.SweepSpec(scenario=cfg, mode=mode, sweep="gamma_db", values=(6.0,),
                            receivers=receivers, e_max=e_max)
        gamma = float(db_to_linear(6.0))
        rngs = rngs_for(cfg)
        whole = ch.draw_wiretap_trial(cfg, rngs, receivers=receivers)
        outcome = hn.design_trial(spec, whole, gamma, e_max, rngs)
        if e_max == EDGE:
            assert np.flatnonzero(solutions[0].least_energy).tolist() == [8]
        assert len(randomized) == (receivers == 6)
        head_rngs = rngs_for(cfg)[:4]
        head = ch.draw_wiretap_trial(cfg, head_rngs, receivers=receivers)
        head_outcome = hn.design_trial(spec, head, gamma, e_max, head_rngs)
        bisected = sent = 0
        for t in range(cfg.trials):
            rng = hn.trial_rng(cfg.seed, 0, t)
            one = ch.draw_wiretap_trial(cfg, [rng], receivers=receivers)
            try:
                single = alone(spec, one, gamma, e_max, rng)
            except NoTransmitError as exc:
                single = exc
            bisected += isinstance(single, hn.Outcome) and single.design.branch == "bisection"
            sent += isinstance(single, hn.Outcome)
            stacks = [(whole, outcome, t)] + ([(head, head_outcome, t)] if t < 4 else [])
            for draw, stacked, index in stacks:
                for link, own in zip(draw.bobs + (draw.eve,), one.bobs + (one.eve,)):
                    npt.assert_array_equal(link.q[index], own.q[0])
                design = take(stacked.design, index)
                if isinstance(single, NoTransmitError):
                    assert np.isnan(design.energy)
                    assert (type(design.errors), str(design.errors)) == (NoTransmitError,
                                                                         str(single))
                    continue
                assert design.errors is None
                npt.assert_array_equal(design.waveform, single.design.waveform)
                assert design.energy == single.design.energy
                assert design.branch == single.design.branch
                if design.branch == "bisection":
                    for key in ("iterations", "mu_tilde"):
                        assert design.info[key] == single.design.info[key]
                if design.branch == "sdr":
                    assert design.info["bound"] == single.design.info["bound"]
                if stacked.an_cov is not None:
                    assert stacked.an_cov.budget[index] == single.an_budget
                assert stacked.sinr_eve[index] == single.sinr_eve
                assert tuple(x[index] for x in stacked.sinr_bob) == single.sinr_bob
        if e_max < 100.0 and mode in ("eigen-known-csi", "sum-sinr"):
            assert bisected
        if (mode, receivers) in SDR:
            assert 0 < sent < cfg.trials

    @pytest.mark.parametrize("mode,receivers,chips,trials,ber", [
        pytest.param("eigen-known-csi", 1, 8, 11, False, id="eigen"),
        pytest.param("an-unknown-csi", 1, 8, 11, False, id="an"),
        pytest.param("min-energy-no-an", 1, 8, 11, False, id="min-energy"),
        pytest.param("sum-sinr", 3, 8, 11, False, id="sum-sinr-k3"),
        pytest.param("sum-sinr", 5, 16, 22, False, id="sum-sinr-k5-l16"),
        pytest.param("multicast-min-energy-an", 2, 8, 11, False, id="sdr"),
        pytest.param("an-unknown-csi", 1, 8, 11, True, id="ber"),
    ])
    def test_sweep_bytes_do_not_depend_on_the_stack_size(self, monkeypatch, mode, receivers,
                                                         chips, trials, ber):
        # A cap of 3 mixes stacked, cap-active and silent trials; stacks of
        # more than ``trials`` run across swept values.  At K = 5, L = 16 a
        # 66-trial stack's Q (264 KiB per link) is past NumPy's 256 KiB
        # threshold for reusing a temporary, which must not change its bits.
        spec = hn.SweepSpec(scenario=scenario(trials=trials, chips=chips), mode=mode,
                            sweep="gamma_db", values=(0.0, 4.0, 8.0), e_max=3.0,
                            receivers=receivers, bits_per_trial=1000)
        sweep = hn.estimate_ber if ber else hn.run_sweep
        monkeypatch.setattr(hn, "STACK_TRIALS", 1)
        alone = hn.format_results(sweep(spec))
        for size in (4, 7, 12, 100):
            monkeypatch.setattr(hn, "STACK_TRIALS", size)
            assert hn.format_results(sweep(spec)) == alone, size


def shipped_ber_spec(config, trials, **overrides):
    values = {**load_config_file(CONFIGS / config), **overrides, "bits_per_trial": "1000"}
    return sweep_spec_from_config(values, {"trials": trials})


class TestBerThreads:
    """A BER sweep's bytes and its error do not depend on how many threads
    simulate a stack's trials."""

    @pytest.mark.parametrize("config,trials,overrides,silent", [
        pytest.param("an-unknown-csi.cfg", 4, {"isi": "true"}, False, id="an-isi"),
        # Cap-active and silent trials in one stack.
        pytest.param("eigen-known-csi.cfg", 4, {"emax": "3"}, True, id="eigen-cap-3"),
        # Silent and AN-sending SDR trials in one stack.
        pytest.param("multicast-min-energy-an.cfg", 2, {"emax": "8"}, True, id="sdr-an-emax-8"),
    ])
    def test_csv_bytes_do_not_depend_on_the_thread_count(self, monkeypatch, config, trials,
                                                          overrides, silent):
        spec = shipped_ber_spec(config, trials, **overrides)
        bisections = []
        kkt = p2p.kkt_bisection

        def recording(*args, **kwargs):
            bisections.append(args)
            return kkt(*args, **kwargs)

        monkeypatch.setattr(p2p, "kkt_bisection", recording)
        monkeypatch.setattr(hn, "_BER_THREADS", 1)
        monkeypatch.setattr(hn, "STACK_TRIALS", 1)
        alone = hn.format_results(hn.estimate_ber(spec))
        solvability = [float(line.split(",")[5]) for line in alone.splitlines()[1:]]
        assert (min(solvability) < 1.0) == silent and max(solvability) > 0.0
        assert bool(bisections) == (spec.mode == "eigen-known-csi")
        for threads in (1, 2, 3):
            for size in (1, 4, 100):
                monkeypatch.setattr(hn, "_BER_THREADS", threads)
                monkeypatch.setattr(hn, "STACK_TRIALS", size)
                assert hn.format_results(hn.estimate_ber(spec)) == alone, (threads, size)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_the_first_error_of_design_and_simulation_in_trial_order_is_raised(
            self, monkeypatch, pair_of, threads):
        # Stacks of 12 over the first value's trials 0-11: the design of
        # trial 7 fails after transmitting trials, the simulations of the
        # trials in ``ber_failing`` raise.
        spec = shipped_ber_spec("eigen-known-csi.cfg", 12)
        design_trial, bit_errors = hn.design_trial, hn._trial_bit_errors
        ber_failing, simulated = set(), []

        def failing_design(spec, draw, gamma, e_max, rngs):
            outcome = design_trial(spec, draw, gamma, e_max, rngs)
            for t, rng in enumerate(rngs):
                if pair_of(rng) == (0, 7):
                    outcome.errors[t] = NumericalError("design (0, 7)")
            assert outcome.errors[:7].tolist() == [None] * 7
            return outcome

        def failing_bit_errors(spec, outcome, draw, scenario, rng):
            pair = pair_of(rng)
            simulated.append(pair)
            if pair in ber_failing:
                raise ValidationError(f"simulation {pair}")
            return bit_errors(spec, outcome, draw, scenario, rng)

        monkeypatch.setattr(hn, "design_trial", failing_design)
        monkeypatch.setattr(hn, "_trial_bit_errors", failing_bit_errors)
        monkeypatch.setattr(hn, "_BER_THREADS", threads)
        monkeypatch.setattr(hn, "STACK_TRIALS", 12)
        # Every trial before the failed design is simulated, none after it.
        with pytest.raises(NumericalError, match=r"^design \(0, 7\)$"):
            hn.estimate_ber(spec)
        assert sorted(simulated) == [(0, t) for t in range(7)]
        ber_failing.add((0, 9))
        with pytest.raises(NumericalError, match=r"^design \(0, 7\)$"):
            hn.estimate_ber(spec)
        ber_failing.update({(0, 3), (0, 5)})
        with pytest.raises(ValidationError, match=r"^simulation \(0, 3\)$"):
            hn.estimate_ber(spec)

    @pytest.mark.parametrize("held_raises", [False, True])
    def test_a_simulation_raising_in_a_worker_thread_is_raised(self, monkeypatch, pair_of,
                                                                held_raises):
        # The calling thread holds its first trial, 0 or 1, until a worker
        # has run into trial 3's error, so that error is raised in a worker.
        # When the held trial then raises too, its error comes first in
        # trial order and is the one raised.
        spec = shipped_ber_spec("an-unknown-csi.cfg", 8)
        bit_errors = hn._trial_bit_errors
        raised = threading.Event()
        held, raised_in = [], []

        def failing_bit_errors(spec, outcome, draw, scenario, rng):
            pair = pair_of(rng)
            if threading.current_thread() is threading.main_thread():
                held.append(pair)
                assert raised.wait(timeout=60)
                if held_raises:
                    raise ValidationError(f"simulation {pair}")
            elif pair == (0, 3):
                raised_in.append(threading.current_thread())
                raised.set()
                raise ValidationError(f"simulation {pair}")
            return bit_errors(spec, outcome, draw, scenario, rng)

        monkeypatch.setattr(hn, "_trial_bit_errors", failing_bit_errors)
        monkeypatch.setattr(hn, "_BER_THREADS", 2)
        with pytest.raises(ValidationError) as info:
            hn.estimate_ber(spec)
        assert len(held) == 1 and held[0] in ((0, 0), (0, 1))
        assert str(info.value) == f"simulation {held[0] if held_raises else (0, 3)}"
        assert len(raised_in) == 1 and not raised_in[0].is_alive()
        assert threading.active_count() == 1


    def test_items_run_once_in_order_under_frequent_thread_switches(self, monkeypatch):
        # More threads than CPUs, switching about every microsecond: an item
        # handed out twice or skipped, or a result out of place, shows.
        monkeypatch.setattr(hn, "_BER_THREADS", 8)
        calls = []

        def square(x):
            calls.append(x)
            return x * x

        def failing(x):
            if x % 50 == 37:
                raise ValueError(x)
            return x

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                calls.clear()
                assert hn._map_in_order(square, range(200)) == [x * x for x in range(200)]
                assert sorted(calls) == list(range(200))
                with pytest.raises(ValueError, match="^37$"):
                    hn._map_in_order(failing, range(200))
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == 1


@pytest.fixture
def pair_of(monkeypatch):
    """Record every substream a sweep makes: maps an rng to its
    (value_index, trial_index)."""
    made = {}
    trial_rng = hn.trial_rng

    def recording(seed, value_index, trial_index):
        rng = trial_rng(seed, value_index, trial_index)
        # Holding the rng keeps its id unique.
        made[id(rng)] = (rng, (value_index, trial_index))
        return rng

    monkeypatch.setattr(hn, "trial_rng", recording)
    return lambda rng: made[id(rng)][1]


@pytest.fixture
def stacks(monkeypatch, pair_of):
    """Every stack a sweep draws: its scenario's chips and its trials' pairs."""
    drawn = []
    draw = ch.draw_wiretap_trial

    def recording(cfg, rngs, receivers=1):
        drawn.append((cfg.chips, [pair_of(rng) for rng in rngs]))
        return draw(cfg, rngs, receivers=receivers)

    monkeypatch.setattr(ch, "draw_wiretap_trial", recording)
    return drawn


def stacked_sweep(monkeypatch, spec, size, stacks):
    """CSV of ``spec``'s sweep in stacks of ``size``; ``stacks`` then holds
    the stacks it drew."""
    monkeypatch.setattr(hn, "STACK_TRIALS", size)
    stacks.clear()
    return hn.format_results(hn.run_sweep(spec))


class TestStacksAcrossValues:
    def test_gamma_sweep_stacks_run_across_values(self, monkeypatch, stacks):
        spec = hn.SweepSpec(scenario=scenario(trials=5), mode="eigen-known-csi",
                            sweep="gamma_db", values=(0.0, 4.0, 8.0))
        pairs = [(vi, ti) for vi in range(3) for ti in range(5)]
        text = stacked_sweep(monkeypatch, spec, 7, stacks)
        assert stacks == [(8, pairs[:7]), (8, pairs[7:14]), (8, pairs[14:])]
        assert stacked_sweep(monkeypatch, spec, 100, stacks) == text
        assert stacks == [(8, pairs)]

    def test_l_sweep_stacks_break_at_each_value(self, monkeypatch, stacks):
        spec = hn.SweepSpec(scenario=scenario(trials=5), mode="an-unknown-csi",
                            sweep="l", values=(4, 6, 8), e_max=3.0)
        whole = stacked_sweep(monkeypatch, spec, 100, stacks)
        assert stacks == [(l, [(vi, ti) for ti in range(5)])
                          for vi, l in enumerate((4, 6, 8))]
        assert stacked_sweep(monkeypatch, spec, 3, stacks) == whole
        assert stacks == [(l, [(vi, ti) for ti in trials])
                          for vi, l in enumerate((4, 6, 8)) for trials in ((0, 1, 2), (3, 4))]
        assert stacked_sweep(monkeypatch, spec, 1, stacks) == whole

    @pytest.mark.parametrize("size", [100, 4])
    def test_first_error_in_value_then_trial_order_is_raised(self, monkeypatch, stacks, size):
        # Each stack's design call gives the trials in ``failing`` an error
        # of their own; silent trials come before both in that order.
        spec = hn.SweepSpec(scenario=scenario(trials=11, interferer_count=(5, 10)),
                            mode="eigen-known-csi", sweep="gamma_db",
                            values=(0.0, 4.0, 8.0), e_max=3.0)
        failing, calls = {}, []
        design_trial = hn.design_trial

        def failing_design(spec, draw, gamma, e_max, rngs):
            outcome = design_trial(spec, draw, gamma, e_max, rngs)
            calls.append(stacks[-1][1])
            for t, pair in enumerate(stacks[-1][1]):
                if pair in failing:
                    outcome.errors[t] = failing[pair](f"trial {pair}")
            return outcome

        monkeypatch.setattr(hn, "design_trial", failing_design)
        monkeypatch.setattr(hn, "STACK_TRIALS", size)
        # The last trial of the first value, and the first of the next,
        # after a silent trial of each.
        first, later = (0, 10), (1, 0)
        failing.update({(0, 2): NoTransmitError, first: NumericalError, (0, 0): NoTransmitError,
                        later: NumericalError})
        with pytest.raises(NumericalError, match=rf"^trial \({first[0]}, {first[1]}\)$"):
            hn.run_sweep(spec)
        failing.pop(first)
        with pytest.raises(NumericalError, match=rf"^trial \({later[0]}, {later[1]}\)$"):
            hn.run_sweep(spec)
        # One design call per stack, none per trial.
        assert calls == [pairs for _, pairs in stacks]
        failing.pop(later)
        calls.clear()
        stacks.clear()
        hn.run_sweep(spec)
        assert calls == [pairs for _, pairs in stacks] and len(calls) == -(-33 // size)


# -- (c) against the per-trial algorithms --------------------------------------

@pytest.mark.parametrize("mode,receivers", NON_SDR + [("sum-sinr", 1)])
@pytest.mark.parametrize("gamma_db", [0.0, 10.0])
def test_stack_matches_per_trial_reference(mode, receivers, gamma_db):
    cfg = scenario(trials=40, seed=21)
    spec = hn.SweepSpec(scenario=cfg, mode=mode, sweep="gamma_db", values=(gamma_db,),
                        receivers=receivers, e_max=40.0)
    gamma = float(db_to_linear(gamma_db))
    scores, energies = stacked_trials(spec, gamma, 40.0)
    solved = 0
    for t, (row, energy) in enumerate(zip(scores, energies)):
        links = reference_draw(cfg, hn.trial_rng(cfg.seed, 0, t), receivers)
        expected = reference_trial(mode, links, gamma, 40.0)
        assert (energy is not None) == (expected is not None)
        if expected is None:
            assert np.isnan(row).all()
            continue
        solved += 1
        sinr_bob, sinr_eve, expected_energy, an_energy = expected
        npt.assert_allclose(row[2:], sinr_bob, rtol=1e-12)
        npt.assert_allclose([row[0], energy, row[1]],
                            [sinr_eve, expected_energy, an_energy], rtol=1e-12)
    assert solved >= 10


# -- one bad matrix never sinks the stack --------------------------------------

@pytest.mark.parametrize("mode", [mode for mode, _ in NON_SDR])
def test_bad_trials_fall_out_and_the_rest_stays_stacked(monkeypatch, mode):
    cfg = scenario(trials=10, interferer_count=(5, 10), seed=33)
    spec = hn.SweepSpec(scenario=cfg, mode=mode, sweep="gamma_db", values=(6.0,))
    gamma, e_max = float(db_to_linear(6.0)), 100.0
    rngs = rngs_for(cfg)
    draw = ch.draw_wiretap_trial(cfg, rngs)
    bob, eve = draw.bobs[0], draw.eve
    q_bob, q_eve = bob.q.copy(), eve.q.copy()
    cap, pivot, silent, tied, bad_r = 1, 2, 4, 6, 8
    # Scale one pencil so the cap binds but the target stays reachable.
    s_eigen = scipy.linalg.eigh(q_eve[cap], q_bob[cap])[1][:, 0]
    g_eigen = np.real(s_eigen.conj() @ q_bob[cap] @ s_eigen) / np.linalg.norm(s_eigen) ** 2
    scale = gamma / (e_max * np.sqrt(g_eigen * np.linalg.eigvalsh(q_bob[cap])[-1]))
    q_bob[cap] *= scale
    q_eve[cap] *= scale
    # A last Cholesky pivot of 1e-14, under the floor 1e-12 * trace / L.
    q_bob[pivot] = np.diag([1.0] * (cfg.chips - 1) + [1e-14])
    q_bob[silent] *= 1e-6
    q_bob[tied] += 0.1 * np.eye(cfg.chips)
    q_eve[tied] = 3.0 * q_bob[tied]
    r = eve.disturbance.matrix.copy()
    r[bad_r] = -np.eye(cfg.block_dim)
    eve_dist = replace(eve.disturbance, matrix=r)
    eve_q, errors = ch.effective_q(eve.channel, eve_dist)
    npt.assert_array_equal(eve_q[bad_r], np.eye(cfg.chips))
    assert [t for t, error in enumerate(errors) if error is not None] == [bad_r]
    q_eve[bad_r] = eve_q[bad_r]
    mixed = ch.WiretapTrial(bobs=(replace(bob, q=q_bob),),
                            eve=replace(eve, q=q_eve, disturbance=eve_dist), errors=errors)

    calls = []
    design_trial = hn.design_trial

    def counted(spec, trial, gamma, e_max, rngs):
        calls.append(rngs)
        return design_trial(spec, trial, gamma, e_max, rngs)

    # At the default tolerance the cap-active trial is served; with none
    # met it fails the stationarity check, in the stack and alone.
    for resid_tol in (None, -1.0):
        if resid_tol is not None:
            monkeypatch.setattr("securewave.p2p._KKT_RESID_TOL", resid_tol)
        monkeypatch.setattr(hn, "design_trial", counted)
        calls.clear()
        scores, stacked = hn.solve_stack(spec, mixed, gamma, e_max, rngs)
        errors = stacked.errors
        assert calls == [rngs]
        monkeypatch.setattr(hn, "design_trial", design_trial)

        for t, (row, error) in enumerate(zip(scores, errors)):
            trial = take(mixed, t)
            try:
                # The trial's unstacked draw forms every Q from its R.
                for link in trial.bobs + (trial.eve,):
                    ch.effective_q(link.channel, link.disturbance)
                expected = alone(spec, take(mixed, [t]), gamma, e_max, rngs[t])
            except SecureWaveError as exc:
                expected = exc
            if isinstance(expected, SecureWaveError):
                assert (type(error), str(error), error.diagnostics) == (
                    type(expected), str(expected), expected.diagnostics)
                assert np.isnan(row).all()
                continue
            assert error is None
            design = take(stacked, t).design
            npt.assert_array_equal(row, [expected.sinr_eve, expected.an_budget,
                                         *expected.sinr_bob])
            assert (design.energy, design.branch) == (expected.design.energy,
                                                      expected.design.branch)
        assert isinstance(errors[bad_r], DefinitenessError)
        assert isinstance(errors[silent], NoTransmitError)
        if mode in ("eigen-known-csi", "sum-sinr"):
            assert "numerically singular" in str(errors[pivot])
            assert errors[tied] is None and take(stacked, tied).design.branch == "eigen"
            if resid_tol is None:
                assert errors[cap] is None
                assert take(stacked, cap).design.branch == "bisection"
            else:
                assert "stationarity" in str(errors[cap])
        else:
            assert errors[pivot] is None and errors[cap] is None and errors[tied] is None


def test_numerical_error_stays_with_its_trial(monkeypatch):
    cfg = scenario(trials=12, interferer_count=(5, 10), seed=2)
    spec = hn.SweepSpec(scenario=cfg, mode="eigen-known-csi", sweep="gamma_db",
                        values=(6.0,), e_max=3.0)
    gamma = float(db_to_linear(6.0))
    # No residual meets a negative tolerance: every root-find fails, in the
    # stack and alone.
    monkeypatch.setattr("securewave.p2p._KKT_RESID_TOL", -1.0)
    rngs = rngs_for(cfg)
    draw = ch.draw_wiretap_trial(cfg, rngs)
    scores, stacked = hn.solve_stack(spec, draw, gamma, 3.0, rngs)
    errors = stacked.errors
    failed = [t for t, error in enumerate(errors) if isinstance(error, NumericalError)]
    assert failed and len(failed) < 12
    assert np.isnan(scores[failed]).all()
    assert all(errors[t].diagnostics["residual"] > 0 for t in failed)
    assert all(error is None or type(error) is NoTransmitError
               for t, error in enumerate(errors) if t not in failed)
    for t in range(12):
        problem = P2pProblem(q_bob=draw.bobs[0].q[t], q_eve=draw.eve.q[t],
                             gamma=gamma, e_max=3.0)
        try:
            bisects = eigen_design(problem) is None
        except NoTransmitError:
            bisects = False
        assert (t in failed) == bisects
    with pytest.raises(NumericalError, match="stationarity"):
        hn.run_sweep(spec)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_lockstep_root_find_matches_the_batch_of_one(seed):
    # Inputs shaped like the cap-active benchmark: the known-Eve design at
    # 6 dB over caps 3, 5 and 10, every trial of every cap in one stack.
    cfg = scenario(seed=seed, trials=20, interferer_count=(5, 10))
    gamma = float(db_to_linear(6.0))
    caps = np.repeat([3.0, 5.0, 10.0], cfg.trials)
    rngs = [hn.trial_rng(seed, vi, ti) for vi in range(3) for ti in range(cfg.trials)]
    draw = ch.draw_wiretap_trial(cfg, rngs)
    q_bob, q_eve = draw.bobs[0].q, draw.eve.q
    stacked = design_p2p(P2pProblem(q_bob=q_bob, q_eve=q_eve, gamma=gamma, e_max=caps))
    branches = {"eigen": [0, 0], "bisection": [0, 0], None: [0, 0]}
    for t, e_max in enumerate(caps):
        try:
            alone = design_p2p(P2pProblem(q_bob=q_bob[t], q_eve=q_eve[t], gamma=gamma,
                                          e_max=float(e_max)))
        except NoTransmitError:
            alone = None
        design = take(stacked, t)
        branches[alone and alone.branch][0] += 1
        branches[None if isinstance(design.errors, NoTransmitError)
                 else str(design.branch)][1] += 1
        if alone is None:
            assert np.isnan(design.energy)
            continue
        npt.assert_array_equal(design.waveform, alone.waveform)
        assert (design.energy, design.branch) == (alone.energy, alone.branch)
        for key, value in alone.info.items():
            assert design.info[key] == value, key
    assert all(ours == theirs for ours, theirs in branches.values())
    assert branches["bisection"][0] >= 5 and branches["eigen"][0] and branches[None][0]


def test_trials_that_stop_the_root_find_at_different_steps_keep_their_answers(monkeypatch):
    # One stack: cap-active trials that converge after 5 and 6 steps and
    # one that needs more but is cut off at the lowered step limit of 6, its
    # best iterate not its last; a bracket failure (Q_e scaled so that
    # s^H Q_b s stays below lambda_max(Q_b) at mu_tilde -> 1), an eigen
    # design that already meets the cap, and an infeasible trial.
    monkeypatch.setattr(p2p, "_BISECTION_MAX_ITER", 6)
    cfg = scenario(seed=28, trials=12, interferer_count=(5, 10))
    draw = ch.draw_wiretap_trial(cfg, rngs_for(cfg))
    q_bob, q_eve = draw.bobs[0].q, draw.eve.q
    gamma = float(db_to_linear(6.0))
    lam_max = np.linalg.eigvalsh(q_bob)[:, -1]
    picks = [(7, 1.0, gamma, 2.0), (9, 1.0, gamma, 2.0), (1, 1.0, gamma, 2.0),
             (7, 1e8, lam_max[7], 1.0), (1, 1.0, gamma, 1e6), (9, 1.0, 2.0 * lam_max[9], 1.0)]
    index, scale, gammas, caps = (np.array(column) for column in zip(*picks))
    problem = P2pProblem(q_bob=q_bob[index], q_eve=scale[:, None, None] * q_eve[index],
                         gamma=gammas, e_max=caps)
    stacked = kkt_bisection(problem)
    outcomes = []
    for t in range(len(picks)):
        one = kkt_bisection(replace(problem, q_bob=problem.q_bob[t:t + 1],
                                    q_eve=problem.q_eve[t:t + 1], gamma=gammas[t:t + 1],
                                    e_max=caps[t:t + 1]))
        npt.assert_array_equal(stacked.waveform[t], one.waveform[0])
        npt.assert_array_equal(stacked.energy[t], one.energy[0])
        assert stacked.info.keys() == one.info.keys()
        for key, value in one.info.items():
            npt.assert_array_equal(stacked.info[key][t], value[0], err_msg=key)
        error, alone = stacked.errors[t], one.errors[0]
        described = [None if e is None else (type(e), str(e), e.diagnostics)
                     for e in (error, alone)]
        assert described[0] == described[1]
        outcomes.append((stacked.info["iterations"][t], None if error is None else str(error)))
    assert outcomes[:3] == [(6, None), (6, "bisection did not reach the cap-active target"),
                            (5, None)]
    assert [error.split(":")[0] for _, error in outcomes[3:]] == [
        "bisection bracket failed", "eigen design already satisfies the cap constraint; "
        "the bisection branch does not apply", "bisection requires a feasible problem"]


def test_stacked_design_marks_open_trials_with_nan():
    q_bob = np.stack([np.eye(2, dtype=complex), 1e-9 * np.eye(2, dtype=complex)])
    problem = P2pProblem(q_bob=q_bob, q_eve=np.stack([np.diag([1.0 + 0j, 2.0])] * 2),
                         gamma=1.0, e_max=10.0)
    design = eigen_design(problem)
    assert design.energy[0] == 1.0 and np.isnan(design.energy[1])
    with pytest.raises(ValidationError):
        WaveformDesign(waveform=np.zeros(2), energy=float("nan"), branch="eigen")


def with_trial(stacked, source, t):
    """``stacked`` with trial ``t`` of every array taken from ``source``,
    through nested dataclasses."""
    if isinstance(stacked, np.ndarray):
        mixed = stacked.copy()
        mixed[t] = source[t]
        return mixed
    if not is_dataclass(stacked):
        return stacked
    return replace(stacked, **{f.name: with_trial(getattr(stacked, f.name),
                                                  getattr(source, f.name), t)
                               for f in fields(stacked)})


def test_a_duplicated_receiver_gets_its_own_an_rank_in_the_stack():
    # Trial 3 serves its first receiver twice: its blockers Q_b s coincide,
    # so its AN has rank 1 < K = 2 and spreads over L - 1 directions, in
    # the stack as alone, while the other trials keep L - 2.
    cfg = scenario(trials=6)
    spec = hn.SweepSpec(scenario=cfg, mode="multicast-min-energy-an", sweep="gamma_db",
                        values=(6.0,), receivers=2)
    gamma = float(db_to_linear(6.0))
    rngs = rngs_for(cfg)
    draw = ch.draw_wiretap_trial(cfg, rngs, receivers=2)
    twice = replace(draw, bobs=(draw.bobs[0], with_trial(draw.bobs[1], draw.bobs[0], 3)))
    scores, stacked = hn.solve_stack(spec, twice, gamma, 100.0, rngs)
    assert np.equal(stacked.errors, None).all()
    for t in range(cfg.trials):
        rng = hn.trial_rng(cfg.seed, 0, t)
        ch.draw_wiretap_trial(cfg, [rng], receivers=2)
        single = alone(spec, take(twice, [t]), gamma, 100.0, rng)
        npt.assert_array_equal(scores[t], [single.sinr_eve, single.an_budget, *single.sinr_bob])
        an = take(stacked.an_cov, t)
        npt.assert_array_equal(an.matrix, single.an_cov.matrix)
        assert an.budget == single.an_cov.budget > 0
        rank = cfg.chips - (1 if t == 3 else 2)
        assert single.an_cov.factor.shape[-1] == rank == np.linalg.matrix_rank(an.matrix)
        # Bob's and Eve's bit errors draw only the trial's own AN columns.
        counts = [hn._trial_bit_errors(spec, outcome, take(twice, t), cfg,
                                       hn.trial_rng(cfg.seed, 1, t))
                  for outcome in (take(stacked, t), single)]
        assert counts[0] == counts[1]


def test_a_tied_trial_stays_in_the_stack():
    # Q_e = 3 Q_b ties every eigenvalue of one trial's pencil; its design is
    # broken inside the stack, bit for bit as the trial's own call breaks it.
    cfg = scenario(trials=10, interferer_count=(5, 10), seed=7)
    draw = ch.draw_wiretap_trial(cfg, rngs_for(cfg))
    q_bob, q_eve = draw.bobs[0].q, draw.eve.q.copy()
    q_eve[3] = 3.0 * q_bob[3]
    stacked = eigen_design(P2pProblem(q_bob=q_bob, q_eve=q_eve, gamma=1.0, e_max=1e6))
    for t in range(cfg.trials):
        alone = eigen_design(P2pProblem(q_bob=q_bob[t], q_eve=q_eve[t], gamma=1.0, e_max=1e6))
        npt.assert_array_equal(stacked.waveform[t], alone.waveform)
        assert stacked.energy[t] == alone.energy
    w, v = np.linalg.eigh(q_bob[3])
    npt.assert_allclose(abs(np.vdot(v[:, -1], stacked.waveform[3])), 1.0, atol=1e-8)


@pytest.mark.parametrize("mode,receivers", [("an-unknown-csi", 1), ("sum-sinr", 3)])
def test_a_sweep_of_singular_trials_answers_each_as_alone(mode, receivers):
    # At noise variance 1e-20 about half the trials have a singular R; with
    # AN, trial 13 keeps a positive definite R but not R + H R_w H^H.
    cfg = scenario(noise_variance=1e-20, interferer_count=(9, 10), seed=1, trials=20)
    spec = hn.SweepSpec(scenario=cfg, mode=mode, sweep="gamma_db", values=(6.0,),
                        receivers=receivers)
    gamma = float(db_to_linear(6.0))
    rngs = rngs_for(cfg)
    draw = ch.draw_wiretap_trial(cfg, rngs, receivers=receivers)
    scores, stacked = hn.solve_stack(spec, draw, gamma, 100.0, rngs)
    errors = stacked.errors
    described = []
    for t in range(cfg.trials):
        rng = hn.trial_rng(cfg.seed, 0, t)
        try:
            single = alone(spec, ch.draw_wiretap_trial(cfg, [rng], receivers=receivers),
                           gamma, 100.0, rng)
        except SecureWaveError as exc:
            assert (type(errors[t]), str(errors[t]), errors[t].diagnostics) == (
                type(exc), str(exc), exc.diagnostics)
            assert np.isnan(scores[t]).all()
            described.append(str(exc))
            continue
        assert errors[t] is None
        npt.assert_array_equal(scores[t], [single.sinr_eve, single.an_budget, *single.sinr_bob])
    assert described.count("disturbance covariance is not positive definite") >= 10
    if mode == "an-unknown-csi":
        assert str(errors[13]) == "AN-loaded disturbance covariance is singular"
