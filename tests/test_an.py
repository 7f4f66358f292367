"""Artificial-noise design tests: min-energy waveform, null-space covariance."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import securewave.channel as ch
from securewave.an import (
    an_covariance,
    an_pipeline_multicast,
    an_pipeline_single,
    min_energy_design,
)
from securewave.errors import DimensionError, NoTransmitError, ValidationError
from securewave.sdr import MulticastProblem, multicast_design
from securewave.util import complex_normal


def scenario(chips=8):
    return ch.ScenarioConfig(chips=chips, paths=3)


class TestMinEnergyDesign:
    def test_isotropic(self):
        d = min_energy_design(np.eye(3, dtype=complex), gamma=3.0, e_max=10.0)
        npt.assert_allclose(d.energy, 3.0, rtol=1e-12)
        npt.assert_allclose(np.linalg.norm(d.waveform), 1.0, atol=1e-12)

    def test_diagonal(self):
        d = min_energy_design(np.diag([4.0 + 0j, 1.0]), gamma=8.0, e_max=10.0)
        npt.assert_allclose(d.energy, 2.0, rtol=1e-12)
        npt.assert_allclose(np.abs(d.waveform), [1.0, 0.0], atol=1e-12)

    def test_beats_random_sampling(self):
        rng = np.random.default_rng(0)
        trial = ch.draw_wiretap_trial(scenario(chips=3), rng)
        q = trial.bobs[0].q
        gamma = 2.0
        d = min_energy_design(q, gamma=gamma, e_max=1e9)
        samples = rng.standard_normal((1_000_000, 3)) + 1j * rng.standard_normal((1_000_000, 3))
        samples /= np.linalg.norm(samples, axis=1, keepdims=True)
        energies = gamma / np.einsum("ij,jk,ik->i", samples.conj(), q, samples).real
        assert d.energy <= energies.min() + 1e-12

    def test_over_budget_raises(self):
        with pytest.raises(NoTransmitError):
            min_energy_design(np.eye(2, dtype=complex), gamma=5.0, e_max=4.0)

    def test_budget_boundary_allowed(self):
        d = min_energy_design(np.eye(2, dtype=complex), gamma=4.0, e_max=4.0)
        npt.assert_allclose(d.energy, 4.0)

    def test_scalar_messages(self):
        q = np.eye(2, dtype=complex)
        with pytest.raises(ValidationError) as info:
            min_energy_design(q, gamma=-1.0, e_max=4.0)
        assert str(info.value) == "gamma must be positive and finite, got -1.0"
        with pytest.raises(ValidationError) as info:
            min_energy_design(q, gamma=1.0, e_max=float("inf"))
        assert str(info.value) == "e_max must be positive and finite, got inf"

    @pytest.mark.parametrize("name", ["gamma", "e_max"])
    @pytest.mark.parametrize("bad", [0.0, -2.0, float("nan"), float("inf")])
    def test_rejects_one_bad_entry_of_per_trial_values(self, name, bad):
        q = np.stack([np.eye(2, dtype=complex)] * 3)
        args = dict(gamma=np.array([1.0, 2.0, 3.0]), e_max=np.array([4.0, 4.0, 2.0]))
        d = min_energy_design(q, **args)
        # Per trial: the third trial's minimum energy 3 exceeds its cap 2.
        npt.assert_array_equal(d.energy, [1.0, 2.0, np.nan])
        args[name] = args[name].copy()
        args[name][1] = bad
        with pytest.raises(ValidationError, match=f"{name} must be positive and finite"):
            min_energy_design(q, **args)


class TestAnCovariance:
    def test_two_dim_complement(self):
        e1 = np.array([1.0 + 0j, 0.0])
        an = an_covariance([e1], budget=5.0)
        expected = np.zeros((2, 2), dtype=complex)
        expected[1, 1] = 5.0
        npt.assert_allclose(an.matrix, expected, atol=1e-12)

    def test_zero_budget(self):
        an = an_covariance([np.array([1.0 + 0j, 0.0])], budget=0.0)
        npt.assert_array_equal(an.matrix, np.zeros((2, 2)))

    def test_three_blockers_eight_dims(self):
        rng = np.random.default_rng(1)
        blockers = [complex_normal(rng, 8) for _ in range(3)]
        an = an_covariance(blockers, budget=7.0)
        npt.assert_allclose(np.trace(an.matrix).real, 7.0, rtol=1e-12)
        npt.assert_allclose(an.factor @ an.factor.conj().T, an.matrix, atol=1e-12)
        for v in blockers:
            assert np.linalg.norm(v.conj() @ an.matrix) <= 1e-9 * 7.0
            assert np.linalg.norm(v.conj() @ an.factor) <= 1e-9 * 7.0

    def test_dimension_error(self):
        rng = np.random.default_rng(2)
        blockers = [complex_normal(rng, 3) for _ in range(3)]
        with pytest.raises(DimensionError):
            an_covariance(blockers, budget=1.0)

    def test_rank_deficient_blockers_widen_complement(self):
        rng = np.random.default_rng(3)
        v = complex_normal(rng, 6)
        an = an_covariance([v, 2.0 * v], budget=6.0)
        # rank 1 -> complement dim 5, isotropic share 6/5
        assert an.factor.shape[1] == 5
        nonzero = np.linalg.eigvalsh(an.matrix)[1:]
        npt.assert_allclose(nonzero, np.full(5, 6.0 / 5.0), atol=1e-10)
        npt.assert_allclose(np.trace(an.matrix).real, 6.0, rtol=1e-12)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValidationError):
            an_covariance([np.array([1.0 + 0j, 0.0])], budget=-1.0)

    def test_isotropy_of_nonzero_spectrum(self):
        rng = np.random.default_rng(4)
        blockers = [complex_normal(rng, 8) for _ in range(2)]
        an = an_covariance(blockers, budget=12.0)
        spectrum = np.linalg.eigvalsh(an.matrix)
        nonzero = spectrum[np.abs(spectrum) > 1e-12]
        npt.assert_allclose(nonzero, np.full(6, 2.0), rtol=1e-10)


class TestSinglePipeline:
    def test_boundary_budget_zero_an(self):
        q = np.diag([4.0 + 0j, 1.0])
        design, an = an_pipeline_single(q, gamma=8.0, e_max=2.0)
        npt.assert_allclose(design.energy, 2.0)
        npt.assert_array_equal(an.matrix, np.zeros((2, 2)))

    def test_diagonal_continuation(self):
        q = np.diag([4.0 + 0j, 1.0])
        design, an = an_pipeline_single(q, gamma=8.0, e_max=10.0)
        npt.assert_allclose(design.energy, 2.0, rtol=1e-12)
        expected = np.zeros((2, 2), dtype=complex)
        expected[1, 1] = 8.0
        npt.assert_allclose(an.matrix, expected, atol=1e-12)

    def test_zero_degradation_closed_form(self):
        for seed in range(30):
            trial = ch.draw_wiretap_trial(scenario(), np.random.default_rng(seed))
            bob = trial.bobs[0]
            design, an = an_pipeline_single(bob.q, gamma=4.0, e_max=100.0)
            plain = ch.sinr(bob.q, design.waveform, design.energy)
            loaded = ch.sinr_with_an(bob.channel, bob.disturbance, an,
                                     design.waveform, design.energy)
            assert abs(loaded - plain) / plain <= 1e-9
            npt.assert_allclose(an.budget, 100.0 - design.energy, rtol=1e-12)

    def test_budget_exactness(self):
        trial = ch.draw_wiretap_trial(scenario(), np.random.default_rng(31))
        design, an = an_pipeline_single(trial.bobs[0].q, gamma=2.0, e_max=30.0)
        assert abs(np.trace(an.matrix).real - (30.0 - design.energy)) <= 1e-10 * 30.0

    def test_propagates_no_transmit(self):
        with pytest.raises(NoTransmitError):
            an_pipeline_single(np.eye(2, dtype=complex), gamma=5.0, e_max=1.0)


class TestMulticastPipeline:
    def test_blocks_every_receiver(self):
        for seed, receivers in ((0, 2), (1, 3), (2, 4)):
            trial = ch.draw_wiretap_trial(scenario(), np.random.default_rng(seed),
                                          receivers=receivers)
            qs = tuple(link.q for link in trial.bobs)
            problem = MulticastProblem(q_bobs=qs, gammas=np.full(receivers, 2.0),
                                       e_max=100.0)
            design, _ = multicast_design(problem, rng=np.random.default_rng(seed))
            an = an_pipeline_multicast(design, qs, 100.0)
            npt.assert_allclose(an.budget, 100.0 - design.energy, rtol=1e-12)
            for link in trial.bobs:
                plain = ch.sinr(link.q, design.waveform, design.energy)
                loaded = ch.sinr_with_an(link.channel, link.disturbance, an,
                                         design.waveform, design.energy)
                assert abs(loaded - plain) / plain <= 1e-9

    def test_rejects_over_budget_design(self):
        from securewave.p2p import WaveformDesign

        s = np.array([1.0 + 0j, 0.0])
        design = WaveformDesign(waveform=s, energy=5.0, branch="sdr")
        with pytest.raises(ValidationError):
            an_pipeline_multicast(design, [np.eye(2, dtype=complex)], e_max=4.0)

    def test_design_within_the_cap_slack_gets_no_an(self):
        # The SDR design may sit up to 1e-9 relative over the cap; such a
        # design is served with zero AN, one further over it is rejected.
        from securewave.p2p import WaveformDesign

        s = np.array([1.0 + 0j, 0.0, 0.0])
        blockers = [np.eye(3, dtype=complex)]
        design = WaveformDesign(waveform=s, energy=4.0 * (1 + 1e-10), branch="sdr")
        assert an_pipeline_multicast(design, blockers, e_max=4.0).budget == 0.0
        design = WaveformDesign(waveform=s, energy=4.0 * (1 + 1e-6), branch="sdr")
        with pytest.raises(ValidationError, match="exceeds the budget"):
            an_pipeline_multicast(design, blockers, e_max=4.0)

    def test_a_stack_is_its_trials_alone(self):
        # Trial 1 sends nothing (NaN energy, zero waveform) and trial 2 sits
        # inside the cap slack; K = 2 receivers at L = 5.
        from securewave.p2p import WaveformDesign

        rng = np.random.default_rng(11)
        qs = []
        for _ in range(2):
            g = complex_normal(rng, (4, 5, 5))
            qs.append(g @ np.swapaxes(g, -1, -2).conj() + np.eye(5))
        s = complex_normal(rng, (4, 5))
        s /= np.linalg.norm(s, axis=-1, keepdims=True)
        s[1] = 0.0
        energy = np.array([1.0, np.nan, 4.0 * (1 + 1e-10), 2.5])
        e_max = np.array([4.0, 4.0, 4.0, 3.0])
        stacked = an_pipeline_multicast(WaveformDesign(waveform=s, energy=energy, branch="sdr"),
                                        qs, e_max)
        for t in (0, 2, 3):
            design = WaveformDesign(waveform=s[t], energy=energy[t], branch="sdr")
            single = an_pipeline_multicast(design, [q[t] for q in qs], e_max[t])
            npt.assert_array_equal(stacked.matrix[t], single.matrix)
            npt.assert_array_equal(stacked.factor[t], single.factor)
            assert stacked.budget[t] == single.budget
        assert np.isnan(stacked.budget[1]) and stacked.budget[2] == 0.0
        energy[3] = 3.0 * (1 + 1e-6)
        with pytest.raises(ValidationError, match="exceeds the budget"):
            an_pipeline_multicast(WaveformDesign(waveform=s, energy=energy, branch="sdr"),
                                  qs, e_max)


@st.composite
def an_instances(draw):
    """A drawn trial with its pipeline: L 2..16, M 1..4, 0..10 interferers;
    one receiver for the single pipeline, else K 1..L-1 for the multicast."""
    chips = draw(st.integers(2, 16))
    multicast = draw(st.booleans())
    cfg = ch.ScenarioConfig(chips=chips, paths=draw(st.integers(1, 4)),
                            interferer_count=(draw(st.integers(0, 10)),) * 2)
    receivers = draw(st.integers(1, chips - 1)) if multicast else 1
    trial = ch.draw_wiretap_trial(cfg, np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                                  receivers=receivers)
    gamma = 10.0 ** (draw(st.floats(-10.0, 15.0)) / 10.0)
    return trial, multicast, gamma, draw(st.floats(1.0, 100.0))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(an_instances())
def test_an_never_changes_bob_sinr(instance):
    trial, multicast, gamma, e_max = instance
    qs = tuple(link.q for link in trial.bobs)
    try:
        if multicast:
            problem = MulticastProblem(q_bobs=qs, gammas=np.full(len(qs), gamma), e_max=e_max)
            design, _ = multicast_design(problem, rng=np.random.default_rng(0))
            an = an_pipeline_multicast(design, qs, e_max)
        else:
            design, an = an_pipeline_single(qs[0], gamma, e_max)
    except NoTransmitError:
        return
    for link in trial.bobs:
        plain = ch.sinr(link.q, design.waveform, design.energy)
        loaded = ch.sinr_with_an(link.channel, link.disturbance, an,
                                 design.waveform, design.energy)
        npt.assert_allclose(loaded, plain, rtol=1e-10)
