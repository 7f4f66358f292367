"""Harness tests: sweeps, aggregation, BER estimation, CSV emission."""

from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

import securewave.channel as ch
import securewave.harness as hn
from securewave.errors import NumericalError, ValidationError
from securewave.harness import (
    CSV_COLUMNS,
    ResultTable,
    SweepSpec,
    emit_results,
    estimate_ber,
    format_results,
    run_sweep,
    trial_rng,
)
from securewave.p2p import P2pProblem, check_feasibility
from securewave.util import db_to_linear


def scenario(**kw):
    defaults = dict(chips=8, paths=3, seed=11, trials=40)
    defaults.update(kw)
    return ch.ScenarioConfig(**defaults)


def spec(**kw):
    defaults = dict(scenario=scenario(), mode="min-energy-no-an", sweep="gamma_db",
                    values=(0.0, 6.0))
    defaults.update(kw)
    return SweepSpec(**defaults)


class TestSweepSpecValidation:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValidationError):
            spec(mode="beamforming")

    def test_rejects_unknown_sweep_variable(self):
        with pytest.raises(ValidationError):
            spec(sweep="bandwidth")

    def test_rejects_unordered_values(self):
        with pytest.raises(ValidationError):
            spec(values=(6.0, 0.0))
        with pytest.raises(ValidationError):
            spec(values=())

    def test_rejects_multi_receiver_single_mode(self):
        with pytest.raises(ValidationError):
            spec(mode="eigen-known-csi", receivers=3)

    def test_rejects_bad_length_values(self):
        with pytest.raises(ValidationError):
            spec(sweep="l", values=(4.5, 8.0))

    def test_rejects_bad_energies_receivers_and_average(self):
        for kw, message in ((dict(sweep="emax", values=(0.0, 8.0)), "energy sweep values"),
                            (dict(receivers=0), "receivers must be >= 1"),
                            (dict(sinr_average="median"), "sinr_average must be"),
                            (dict(e_max=0.0), "e_max must be positive"),
                            (dict(e_max=float("inf")), "e_max must be positive")):
            with pytest.raises(ValidationError, match=message):
                spec(**kw)


class TestTrialRng:
    def test_streams_differ(self):
        a = trial_rng(1, 0, 0).standard_normal(4)
        b = trial_rng(1, 0, 1).standard_normal(4)
        c = trial_rng(1, 1, 0).standard_normal(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_streams_reproducible(self):
        npt.assert_array_equal(trial_rng(5, 2, 3).standard_normal(8),
                               trial_rng(5, 2, 3).standard_normal(8))

    @pytest.mark.parametrize("seed", [0, 1, 2**32 + 1, 2**64 - 1, 2**64 + 5, 2**128 - 1])
    def test_streams_match_their_definition(self, seed):
        """Each stream is Philox keyed by the seed, counter (0, 0, trial,
        value): same bit-generator state and same draws of every kind."""
        for value_index, trial_index in [(0, 0), (0, 1), (1, 0), (3, 7), (2**40, 2**63 + 9)]:
            ours = trial_rng(seed, value_index, trial_index)
            theirs = np.random.Generator(
                np.random.Philox(key=seed, counter=[0, 0, trial_index, value_index]))
            npt.assert_equal(ours.bit_generator.state, theirs.bit_generator.state)
            for draw in (lambda rng: rng.standard_normal(7), lambda rng: rng.integers(0, 10, 9),
                         lambda rng: rng.uniform(-1.0, 2.0, 5), lambda rng: rng.integers(2**62)):
                npt.assert_array_equal(draw(ours), draw(theirs))
            npt.assert_equal(ours.bit_generator.state, theirs.bit_generator.state)

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_out_of_range_seed_raises(self, seed):
        with pytest.raises(ValueError):
            trial_rng(seed, 0, 0)


class TestRunSweep:
    def test_single_trial_aggregation_identity(self):
        s = spec(scenario=scenario(trials=1), values=(6.0,))
        table = run_sweep(s)
        row = table.rows[0]
        rng = trial_rng(11, 0, 0)
        draw = ch.draw_wiretap_trial(scenario(trials=1), rng)
        from securewave.an import min_energy_design

        design = min_energy_design(draw.bobs[0].q, db_to_linear(6.0), 100.0)
        eve = ch.sinr(draw.eve.q, design.waveform, design.energy)
        npt.assert_allclose(row.mean_sinr_eve_db, 10 * np.log10(eve), rtol=1e-12)
        assert row.n_trials == 1 and row.solvability == 1.0
        assert row.sinr_eve_ci_db == 0.0

    def test_bob_hits_target_every_solvable_trial(self):
        for mode in ("eigen-known-csi", "an-unknown-csi", "min-energy-no-an"):
            table = run_sweep(spec(mode=mode, values=(4.0,)))
            row = table.rows[0]
            # mean of per-trial Bob SINRs equals gamma when all trials hit it
            npt.assert_allclose(row.mean_sinr_bob_db, 4.0, atol=1e-9)

    def test_db_average_is_the_mean_of_per_trial_db(self):
        s = spec(mode="eigen-known-csi", sinr_average="db", scenario=scenario(trials=20))
        table = run_sweep(s)
        for vi, (value, row) in enumerate(zip(s.values, table.rows)):
            rngs = [trial_rng(11, vi, t) for t in range(20)]
            draw = ch.draw_wiretap_trial(s.scenario, rngs)
            scores, _ = hn.solve_stack(s, draw, db_to_linear(value), 100.0, rngs)
            solved = scores[~np.isnan(scores[:, 0])]
            assert len(solved) > 1
            for column, mean, ci in ((solved[:, 0], row.mean_sinr_eve_db, row.sinr_eve_ci_db),
                                     (solved[:, 2], row.mean_sinr_bob_db, row.sinr_bob_ci_db)):
                db = 10.0 * np.log10(column)
                npt.assert_allclose(mean, np.mean(db), rtol=1e-12)
                npt.assert_allclose(ci, np.std(db, ddof=1) / np.sqrt(len(db)), rtol=1e-12,
                                    atol=1e-15)

    def test_an_never_hurts_bob(self):
        base = spec(mode="min-energy-no-an", values=(6.0,))
        an = spec(mode="an-unknown-csi", values=(6.0,))
        npt.assert_allclose(run_sweep(an).rows[0].mean_sinr_bob_db,
                            run_sweep(base).rows[0].mean_sinr_bob_db, atol=1e-9)

    def test_solvability_matches_feasibility_condition(self):
        s = spec(mode="eigen-known-csi", scenario=scenario(trials=60),
                 values=(9.0,), e_max=2.0)
        table = run_sweep(s)
        expected = 0
        for ti in range(60):
            rng = trial_rng(11, 0, ti)
            draw = ch.draw_wiretap_trial(scenario(trials=60), rng)
            p = P2pProblem(q_bob=draw.bobs[0].q, q_eve=draw.eve.q,
                           gamma=float(db_to_linear(9.0)), e_max=2.0)
            expected += check_feasibility(p)
        assert table.rows[0].solvability == expected / 60

    def test_an_fraction_matches_energy_split(self):
        table = run_sweep(spec(mode="an-unknown-csi", values=(0.0,)))
        row = table.rows[0]
        assert 0.9 < row.an_fraction < 1.0

    def test_length_sweep_changes_dimension(self):
        s = spec(sweep="l", values=(4.0, 8.0), gamma_db=3.0)
        table = run_sweep(s)
        assert len(table.rows) == 2
        assert table.rows[0].swept_value == 4.0

    def test_emax_sweep(self):
        s = spec(mode="an-unknown-csi", sweep="emax", values=(10.0, 100.0), gamma_db=3.0)
        table = run_sweep(s)
        # larger budget -> more AN -> lower Eve SINR on average
        assert table.rows[1].mean_sinr_eve_db < table.rows[0].mean_sinr_eve_db

    def test_multicast_modes_run(self):
        s = spec(mode="multicast-min-energy-an", receivers=3,
                 scenario=scenario(trials=8), values=(3.0,))
        row = run_sweep(s).rows[0]
        assert row.solvability == 1.0
        assert row.an_fraction > 0.5
        s2 = spec(mode="sum-sinr", receivers=3, scenario=scenario(trials=8), values=(3.0,))
        assert run_sweep(s2).rows[0].solvability == 1.0

    @pytest.mark.parametrize("mode,knows_eve", [("multicast-sdr", True),
                                                ("multicast-min-energy-an", False)])
    def test_only_the_known_eavesdropper_multicast_mode_sees_eve(self, monkeypatch, mode,
                                                                 knows_eve):
        seen = []
        design = hn.multicast_design

        def spy(problem, *args, **kwargs):
            seen.append(problem.q_eve)
            return design(problem, *args, **kwargs)

        monkeypatch.setattr(hn, "multicast_design", spy)
        run_sweep(spec(mode=mode, receivers=2, scenario=scenario(trials=2), values=(3.0,)))
        assert len(seen) == 2
        assert all((q_eve is not None) == knows_eve for q_eve in seen)

    def test_error_bars_shrink_with_trials(self):
        small = run_sweep(spec(scenario=scenario(trials=400), values=(6.0,)))
        large = run_sweep(spec(scenario=scenario(trials=800), values=(6.0,)))
        ratio = large.rows[0].sinr_eve_ci_db / small.rows[0].sinr_eve_ci_db
        assert abs(ratio - 1 / np.sqrt(2)) <= 0.2 / np.sqrt(2)


def test_a_nan_score_without_an_error_is_a_numerical_error(monkeypatch):
    s = spec(mode="eigen-known-csi", scenario=scenario(trials=4))
    rngs = [trial_rng(11, 0, t) for t in range(4)]
    draw = ch.draw_wiretap_trial(s.scenario, rngs)
    _, outcome = hn.solve_stack(s, draw, db_to_linear(6.0), 100.0, rngs)
    assert any(error is None for error in outcome.errors)
    design_trial = hn.design_trial

    def unscored(*args):
        outcome = design_trial(*args)
        return replace(outcome, sinr_eve=np.full_like(outcome.sinr_eve, np.nan))

    monkeypatch.setattr(hn, "design_trial", unscored)
    with pytest.raises(NumericalError,
                       match="^eigen-known-csi left a trial without scores or an error$"):
        hn.solve_stack(s, draw, db_to_linear(6.0), 100.0, rngs)


class TestEstimateBer:
    def test_requires_enough_bits(self):
        with pytest.raises(ValidationError):
            estimate_ber(spec(bits_per_trial=100))

    def test_ber_columns_populated_and_consistent(self):
        s = spec(mode="eigen-known-csi", scenario=scenario(trials=6, isi_enabled=True),
                 values=(6.0,), bits_per_trial=2000)
        row = estimate_ber(s).rows[0]
        assert 0.0 <= row.ber_bob < 0.5
        assert row.ber_bob < row.ber_eve <= 0.6
        assert row.ber_bob_ci > 0

    def test_sinr_columns_still_aggregated(self):
        s = spec(scenario=scenario(trials=4), values=(6.0,), bits_per_trial=1000)
        row = estimate_ber(s).rows[0]
        assert np.isfinite(row.mean_sinr_eve_db)

    def test_bob_ber_monotone_in_target_with_unbounded_cap(self):
        s = spec(scenario=scenario(trials=5), values=(0.0, 5.0, 10.0, 15.0),
                 e_max=1e9, bits_per_trial=4000)
        ber = estimate_ber(s).column("ber_bob")
        assert np.all(np.diff(ber) <= 0)
        assert ber[-1] <= 1e-3

    @pytest.mark.parametrize("average", ["linear", "db"])
    @pytest.mark.parametrize("mode,receivers", [("an-unknown-csi", 1), ("sum-sinr", 3),
                                                ("multicast-min-energy-an", 3)])
    def test_point_where_no_trial_transmits(self, mode, receivers, average):
        s = spec(mode=mode, receivers=receivers, scenario=scenario(trials=7),
                 e_max=1e-6, sinr_average=average, bits_per_trial=1000)
        lines = format_results(estimate_ber(s)).splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        for line, value in zip(lines[1:], ("0", "6")):
            row = dict(zip(CSV_COLUMNS, line.split(",")))
            assert row.pop("swept_value") == value
            assert row.pop("solvability") == "0"
            assert row.pop("n_trials") == "7"
            assert set(row.values()) == {"nan"}
        assert len(lines) == 3


class TestEmitResults:
    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            emit_results(ResultTable(rows=()), tmp_path / "out.csv")

    def test_single_row_two_lines(self, tmp_path):
        table = run_sweep(spec(scenario=scenario(trials=3), values=(6.0,)))
        path = tmp_path / "out.csv"
        emit_results(table, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == ",".join(CSV_COLUMNS)

    def test_round_trip_nine_significant_digits(self, tmp_path):
        table = run_sweep(spec(scenario=scenario(trials=5), values=(0.0, 6.0)))
        path = tmp_path / "out.csv"
        emit_results(table, path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        for line, row in zip(lines[1:], table.rows):
            for name, cell in zip(header, line.split(",")):
                value = getattr(row, name)
                if name == "n_trials":
                    assert int(cell) == value
                elif np.isnan(value):
                    assert cell == "nan"
                else:
                    assert f"{float(cell):.9g}" == cell
                    assert abs(float(cell) - value) <= 1e-8 * max(1.0, abs(value))

    def test_byte_identical_reruns(self, tmp_path):
        s = spec(scenario=scenario(trials=10), values=(0.0, 3.0))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_results(run_sweep(s), a)
        emit_results(run_sweep(s), b)
        assert a.read_bytes() == b.read_bytes()
