"""Channel-layer tests: taps, convolution lifts, covariances, simulation."""

import copy
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import securewave.channel as ch
from securewave.an import AnCovariance, an_pipeline_single
from securewave.config import load_config_file, sweep_spec_from_config
from securewave.errors import DefinitenessError, DimensionError, ValidationError
from securewave.harness import _trial_bit_errors, solve_stack, trial_rng
from securewave.p2p import WaveformDesign
from securewave.util import complex_normal, db_to_linear, take

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def basic_config(**kw):
    defaults = dict(chips=8, paths=3, noise_variance=1.0, interferer_count=(5, 10),
                    interferer_energy=(1.0, 4.0), seed=0, isi_enabled=False, trials=1)
    defaults.update(kw)
    return ch.ScenarioConfig(**defaults)


def unit_waveform(chips, index=0):
    s = np.zeros(chips, dtype=complex)
    s[index] = 1.0
    return s


class TestDrawMultipathChannel:
    def test_single_tap_unit_power(self):
        rng = np.random.default_rng(0)
        draws = np.array([ch.draw_multipath_channel(1, rng)[0] for _ in range(100_000)])
        power = np.abs(draws) ** 2
        se = power.std(ddof=1) / np.sqrt(power.size)
        assert abs(power.mean() - 1.0) <= 3 * se

    def test_three_taps_total_power(self):
        rng = np.random.default_rng(1)
        totals = np.array([
            np.sum(np.abs(ch.draw_multipath_channel(3, rng)) ** 2)
            for _ in range(100_000)
        ])
        se = totals.std(ddof=1) / np.sqrt(totals.size)
        assert abs(totals.mean() - 1.0) <= 3 * se

    def test_per_tap_variance_split(self):
        rng = np.random.default_rng(2)
        taps = np.array([ch.draw_multipath_channel(4, rng) for _ in range(50_000)])
        npt.assert_allclose(np.var(taps.real, axis=0), 1 / 8, atol=5e-3)
        npt.assert_allclose(np.var(taps.imag, axis=0), 1 / 8, atol=5e-3)

    def test_seeded_determinism(self):
        a = ch.draw_multipath_channel(3, np.random.default_rng(123))
        b = ch.draw_multipath_channel(3, np.random.default_rng(123))
        npt.assert_array_equal(a, b)

    def test_rejects_zero_paths(self):
        with pytest.raises(ValidationError):
            ch.draw_multipath_channel(0, np.random.default_rng(0))


class TestConvolutionChannelMatrix:
    def test_identity_channel(self):
        conv = ch.convolution_channel_matrix(np.array([1.0 + 0j]), 4)
        npt.assert_array_equal(conv.matrix, np.eye(4, dtype=complex))

    def test_hand_convolution(self):
        conv = ch.convolution_channel_matrix(np.array([1.0, 1j]), 2)
        expected = np.array([[1.0, 0.0], [1j, 1.0], [0.0, 1j]], dtype=complex)
        npt.assert_array_equal(conv.matrix, expected)

    def test_matches_direct_convolution(self):
        rng = np.random.default_rng(4)
        taps = ch.draw_multipath_channel(3, rng)
        conv = ch.convolution_channel_matrix(taps, 8)
        for _ in range(100):
            s = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            npt.assert_allclose(conv.matrix @ s, np.convolve(s, taps), atol=1e-12)

    def test_banded_toeplitz_structure(self):
        rng = np.random.default_rng(5)
        conv = ch.convolution_channel_matrix(ch.draw_multipath_channel(4, rng), 6)
        assert (conv.chips, conv.paths) == (6, 4)
        h = conv.matrix
        for i in range(h.shape[0]):
            for j in range(h.shape[1]):
                lag = i - j
                expected = conv.taps[lag] if 0 <= lag < 4 else 0.0
                assert h[i, j] == expected


class TestDisturbanceCovariance:
    def test_noise_only(self):
        cfg = basic_config(interferer_count=(0, 0))
        built = ch.build_disturbance_covariance(cfg, np.random.default_rng(0))
        npt.assert_array_equal(built.matrix, np.eye(10, dtype=complex))
        assert built.energies.shape == (0,)

    def test_dimension_is_l_plus_2_for_three_paths(self):
        built = ch.build_disturbance_covariance(basic_config(), np.random.default_rng(1))
        assert built.matrix.shape == (10, 10)

    def test_single_interferer_hand_assembly(self):
        cfg = basic_config(interferer_count=(1, 1))
        built = ch.build_disturbance_covariance(cfg, np.random.default_rng(2))
        (energy,), (waveform,), (taps,) = built.energies, built.waveforms, built.taps
        h = ch.convolution_channel_matrix(taps, cfg.chips).matrix
        v = h @ waveform
        hand = energy * np.outer(v, v.conj()) + np.eye(10)
        assert np.max(np.abs(built.matrix - hand)) <= 1e-12

    def test_psd_gap_above_noise_floor(self):
        built = ch.build_disturbance_covariance(basic_config(), np.random.default_rng(3))
        gap = built.matrix - built.noise_variance * np.eye(10)
        assert np.linalg.eigvalsh(gap)[0] >= -1e-10


class TestEffectiveQ:
    def test_identity(self):
        conv = ch.convolution_channel_matrix(np.array([1.0 + 0j]), 4)
        dist = ch.DisturbanceCovariance(matrix=np.eye(4, dtype=complex),
                                        noise_variance=1.0)
        q = ch.effective_q(conv, dist)
        npt.assert_allclose(q, np.eye(4), atol=1e-14)

    def test_scaling(self):
        conv = ch.convolution_channel_matrix(np.array([1.0 + 0j]), 4)
        dist = ch.DisturbanceCovariance(matrix=4.0 * np.eye(4, dtype=complex),
                                        noise_variance=4.0)
        q = ch.effective_q(conv, dist)
        npt.assert_allclose(q, np.eye(4) / 4.0, atol=1e-14)

    def test_square_root_factorization_oracle(self):
        rng = np.random.default_rng(6)
        trial = ch.draw_wiretap_trial(basic_config(), rng)
        bob = trial.bobs[0]
        w, u = np.linalg.eigh(bob.disturbance.matrix)
        r_inv_half = (u / np.sqrt(w)) @ u.conj().T
        for _ in range(100):
            s = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            quad = np.real(s.conj() @ bob.q @ s)
            direct = np.linalg.norm(r_inv_half @ (bob.channel.matrix @ s)) ** 2
            assert abs(quad - direct) <= 1e-10 * max(1.0, direct)

    def test_singular_r_rejected(self):
        conv = ch.convolution_channel_matrix(np.array([1.0 + 0j]), 4)
        dist = ch.DisturbanceCovariance(matrix=np.zeros((4, 4), dtype=complex),
                                        noise_variance=0.0)
        with pytest.raises(DefinitenessError):
            ch.effective_q(conv, dist)

    @pytest.mark.parametrize("with_an,message", [
        (False, "disturbance covariance is not positive definite"),
        (True, "AN-loaded disturbance covariance is singular"),
    ])
    def test_filter_raises_what_the_sinr_raises_on_a_non_pd_covariance(self, with_an, message):
        conv = ch.convolution_channel_matrix(np.array([1.0 + 0j]), 4)
        dist = ch.DisturbanceCovariance(matrix=-np.eye(4, dtype=complex), noise_variance=1.0)
        s = unit_waveform(4)
        an = None
        if with_an:
            an = AnCovariance(matrix=np.zeros((4, 4), dtype=complex), budget=0.0,
                              factor=np.zeros((4, 1), dtype=complex))
        with pytest.raises(DefinitenessError, match=f"^{message}$"):
            ch.max_sinr_filter(conv, dist, s, an=an)
        with pytest.raises(DefinitenessError, match=f"^{message}$"):
            if with_an:
                ch.sinr_with_an(conv, dist, an, s, 1.0)
            else:
                ch.effective_q(conv, dist)


class TestDrawWiretapTrial:
    def test_singular_disturbance_raises_alone_and_is_an_error_in_a_stack(self):
        cfg = basic_config(noise_variance=1e-20)
        with pytest.raises(DefinitenessError) as alone:
            ch.draw_wiretap_trial(cfg, np.random.default_rng(1))
        draw = ch.draw_wiretap_trial(cfg, [np.random.default_rng(1), np.random.default_rng(2)])
        error = draw.errors[0]
        assert (type(error), str(error), error.diagnostics) == (
            DefinitenessError, str(alone.value), alone.value.diagnostics)
        # The stack stays finite: the failed trial carries the identity Q.
        npt.assert_array_equal(draw.bobs[0].q[0], np.eye(cfg.chips))
        assert np.isfinite(draw.eve.q).all()
        assert draw.errors[1] is None
        alone = ch.draw_wiretap_trial(cfg, np.random.default_rng(2))
        npt.assert_array_equal(draw.eve.q[1], alone.eve.q)

    def test_tap_law_on_every_link(self):
        # Each of the M taps on every link, Bob's and Eve's, is CN(0, 1/M):
        # real and imaginary parts of variance 1/(2M), unit mean total power.
        n, paths = 10_000, 4
        cfg = basic_config(chips=4, paths=paths, interferer_count=(1, 2))
        draw = ch.draw_wiretap_trial(cfg, [np.random.default_rng([3, t]) for t in range(n)],
                                     receivers=3)
        variance = 1 / (2 * paths)
        for link in (*draw.bobs, draw.eve):
            taps = link.channel.taps
            assert taps.shape == (n, paths)
            for part in (taps.real, taps.imag):
                # The sample variance of n normals has SE sigma^2 sqrt(2 / (n - 1)).
                npt.assert_allclose(part.var(axis=0, ddof=1), variance,
                                    atol=4 * variance * np.sqrt(2 / (n - 1)))
            power = np.sum(np.abs(taps) ** 2, axis=1)
            assert abs(power.mean() - 1.0) <= 3 * power.std(ddof=1) / np.sqrt(n)


def fixed_filter(dim, seed=30):
    """A receive filter that is not the max-SINR one, for channels whose R
    has none (noise-free) and to test the output for any filter."""
    return complex_normal(np.random.default_rng(seed), dim)


class TestSimulateReceivedBlock:
    def test_clean_channel_exact(self):
        rng = np.random.default_rng(7)
        conv = ch.convolution_channel_matrix(ch.draw_multipath_channel(3, rng), 8)
        dist = ch.DisturbanceCovariance(matrix=np.zeros((10, 10), dtype=complex),
                                        noise_variance=0.0)
        design = WaveformDesign(waveform=unit_waveform(8), energy=9.0, branch="min-energy")
        w = fixed_filter(10)
        out = ch.simulate_received_block(design, conv, dist, np.array([1.0]), w,
                                         rng=np.random.default_rng(0))
        npt.assert_array_equal(out, [(3.0 * (conv.matrix @ design.waveform)) @ w.conj()])

    def test_isi_noop_single_path(self):
        cfg = basic_config(paths=1)
        trial = ch.draw_wiretap_trial(cfg, np.random.default_rng(8))
        design = WaveformDesign(waveform=unit_waveform(8), energy=1.0, branch="min-energy")
        bits, w = np.ones(64), fixed_filter(8)
        with_isi = ch.simulate_received_block(design, trial.bobs[0].channel,
                                              trial.bobs[0].disturbance, bits, w,
                                              isi_enabled=True, rng=np.random.default_rng(9))
        without = ch.simulate_received_block(design, trial.bobs[0].channel,
                                             trial.bobs[0].disturbance, bits, w,
                                             isi_enabled=False, rng=np.random.default_rng(9))
        npt.assert_array_equal(with_isi, without)

    def test_isi_adds_previous_bit_tail(self):
        rng = np.random.default_rng(10)
        conv = ch.convolution_channel_matrix(ch.draw_multipath_channel(3, rng), 8)
        dist = ch.DisturbanceCovariance(matrix=np.zeros((10, 10), dtype=complex),
                                        noise_variance=0.0)
        design = WaveformDesign(waveform=unit_waveform(8, index=7), energy=1.0,
                                branch="min-energy")
        bits, w = np.array([1.0, -1.0]), fixed_filter(10)
        out = ch.simulate_received_block(design, conv, dist, bits, w, isi_enabled=True,
                                         rng=np.random.default_rng(0))
        full = conv.matrix @ design.waveform
        npt.assert_allclose(out[1], w.conj() @ -full + w[:2].conj() @ full[8:], atol=1e-15)

    def test_sample_covariance_matches_model(self):
        # Mean |w^H y|^2 = w^H R w along every chip and three random filters.
        cfg = basic_config(interferer_count=(3, 3))
        trial = ch.draw_wiretap_trial(cfg, np.random.default_rng(11))
        bob = trial.bobs[0]
        design = WaveformDesign(waveform=unit_waveform(8), energy=1e-12, branch="min-energy")
        bits = np.ones(100_000)
        filters = list(np.eye(10, dtype=complex)) + [fixed_filter(10, seed) for seed in range(3)]
        for w in filters:
            out = ch.simulate_received_block(design, bob.channel, bob.disturbance, bits, w,
                                             rng=np.random.default_rng(12))
            model = np.real(w.conj() @ bob.disturbance.matrix @ w)
            assert abs(np.mean(np.abs(out) ** 2) - model) <= 0.05 * model

    def test_empirical_sinr_matches_formula(self):
        trial = ch.draw_wiretap_trial(basic_config(), np.random.default_rng(13))
        bob = trial.bobs[0]
        s = unit_waveform(8, index=2)
        design = WaveformDesign(waveform=s, energy=6.0, branch="min-energy")
        bits = np.sign(np.random.default_rng(14).standard_normal(40_000))
        w = ch.max_sinr_filter(bob.channel, bob.disturbance, s)
        out = ch.simulate_received_block(design, bob.channel, bob.disturbance, bits, w,
                                         rng=np.random.default_rng(15))
        amp = np.mean(out * bits)
        resid = out - amp * bits
        measured = abs(amp) ** 2 / np.var(resid)
        expected = ch.sinr(bob.q, s, design.energy)
        se = np.sqrt((2 * expected + expected**2) / bits.size)
        assert abs(measured - expected) <= 3 * se

    def test_empirical_sinr_with_an_matches_closed_form(self):
        trial = ch.draw_wiretap_trial(basic_config(), np.random.default_rng(16))
        bob = trial.bobs[0]
        design, an_cov = an_pipeline_single(bob.q, 4.0, 50.0)
        bits = np.sign(np.random.default_rng(17).standard_normal(40_000))
        w = ch.max_sinr_filter(bob.channel, bob.disturbance, design.waveform, an=an_cov)
        out = ch.simulate_received_block(design, bob.channel, bob.disturbance, bits, w,
                                         an=an_cov, rng=np.random.default_rng(18))
        amp = np.mean(out * bits)
        measured = abs(amp) ** 2 / np.var(out - amp * bits)
        expected = ch.sinr_with_an(bob.channel, bob.disturbance, an_cov,
                                   design.waveform, design.energy)
        se = np.sqrt((2 * expected + expected**2) / bits.size)
        assert abs(measured - expected) <= 3 * se

    def test_rejects_bad_bits(self):
        trial = ch.draw_wiretap_trial(basic_config(), np.random.default_rng(19))
        design = WaveformDesign(waveform=unit_waveform(8), energy=1.0, branch="min-energy")
        link, w = trial.bobs[0], fixed_filter(10)
        with pytest.raises(ValidationError):
            ch.simulate_received_block(design, link.channel, link.disturbance, np.array([]), w,
                                       rng=np.random.default_rng(0))
        with pytest.raises(ValidationError):
            ch.simulate_received_block(design, link.channel, link.disturbance,
                                       np.array([0.5, 1.0]), w, rng=np.random.default_rng(0))
        for bad in (w[:8], w[None]):
            with pytest.raises(DimensionError):
                ch.simulate_received_block(design, link.channel, link.disturbance,
                                           np.ones(4), bad, rng=np.random.default_rng(0))


def reference_received_block(design, channel, disturbance, bits, an, isi_enabled, rng):
    """The received chip windows y(n), one Toeplitz product and ISI shift per
    source, in the draw order of ``simulate_received_block``."""

    def convolved(conv, blocks):
        full = blocks @ conv.matrix.T
        if isi_enabled and conv.paths > 1:
            full[1:, : conv.paths - 1] += full[:-1, conv.chips :].copy()
        return full

    n_bits = bits.shape[0]
    alice = (np.sqrt(design.energy) * bits)[:, None] * design.waveform[None, :]
    if an is not None and an.factor.shape[1] > 0:
        alice = alice + complex_normal(rng, (n_bits, an.factor.shape[1])) @ an.factor.T
    y = convolved(channel, alice)
    live = disturbance.energies > 0
    for energy, waveform, taps in zip(disturbance.energies[live], disturbance.waveforms[live],
                                      disturbance.taps[live]):
        symbols = rng.integers(0, 2, size=n_bits) * 2 - 1
        blocks = (np.sqrt(energy) * symbols)[:, None] * waveform[None, :]
        y += convolved(ch.convolution_channel_matrix(taps, channel.chips), blocks)
    if disturbance.noise_variance > 0:
        y += np.sqrt(disturbance.noise_variance) * complex_normal(rng, y.shape)
    return y


def stacked_case(paths, an_kind, interferers, noise_variance):
    cfg = basic_config(paths=paths, interferer_count=(interferers, interferers))
    bob = ch.draw_wiretap_trial(cfg, np.random.default_rng(20 + paths)).bobs[0]
    disturbance = replace(bob.disturbance, noise_variance=noise_variance)
    design, an = an_pipeline_single(bob.q, 4.0, 50.0)
    if an_kind == "none":
        an = None
    elif an_kind == "rank-0":
        an = AnCovariance(matrix=np.zeros((8, 8), dtype=complex), budget=0.0,
                          factor=np.zeros((8, 0), dtype=complex))
    bits = np.sign(np.random.default_rng(21).standard_normal(2000))
    return design, bob.channel, disturbance, bits, an, fixed_filter(cfg.block_dim)


STACKED_CASES = pytest.mark.parametrize(
    "paths,an_kind,interferers,noise_variance",
    [(m, a, j, nv) for m in (1, 3) for a in ("none", "rank-0", "rank-7")
     for j in (0, 6) for nv in (0.0, 1.0)],
)


class TestStackedSimulation:
    """The filter outputs against the chip windows of the per-source algorithm."""

    @STACKED_CASES
    @pytest.mark.parametrize("isi", [False, True])
    def test_windows_match_per_source_reference(self, paths, an_kind, interferers,
                                                noise_variance, isi):
        design, channel, disturbance, bits, an, w = stacked_case(
            paths, an_kind, interferers, noise_variance)
        out = ch.simulate_received_block(design, channel, disturbance, bits, w, an=an,
                                         isi_enabled=isi, rng=np.random.default_rng(22))
        expected = reference_received_block(design, channel, disturbance, bits, an, isi,
                                            np.random.default_rng(22)) @ w.conj()
        npt.assert_allclose(out, expected, rtol=1e-12)
        npt.assert_array_equal(np.sign(out.real), np.sign(expected.real))

    @STACKED_CASES
    def test_draw_order_matches_reference(self, paths, an_kind, interferers, noise_variance):
        design, channel, disturbance, bits, an, w = stacked_case(
            paths, an_kind, interferers, noise_variance)
        ours, theirs = np.random.default_rng(23), np.random.default_rng(23)
        ch.simulate_received_block(design, channel, disturbance, bits, w, an=an,
                                   isi_enabled=True, rng=ours)
        reference_received_block(design, channel, disturbance, bits, an, True, theirs)
        npt.assert_array_equal(ours.standard_normal(4), theirs.standard_normal(4))


def one_shot_received_block(design, channel, disturbance, bits, w, an, isi_enabled, rng):
    """``simulate_received_block``'s outputs as its earlier body formed them:
    every AN normal, every symbol stream and all the chip noise each drawn
    in one call, a and b contracted together."""
    n_bits = bits.shape[0]
    rank = 0 if an is None else an.factor.shape[1] if an.dim is None else int(an.dim)
    d = disturbance
    if d.energies is None:
        d = replace(d, energies=np.zeros(0), waveforms=np.zeros((0, channel.chips)),
                    taps=np.zeros((0, channel.paths)))
    live = d.energies > 0
    streams = np.empty((2 * rank + 1 + np.count_nonzero(live), n_bits))
    vectors = []
    if rank:
        streams[: 2 * rank] = np.concatenate(rng.standard_normal((2, n_bits, rank)), axis=1).T
        hf = an.factor[:, -rank:].T @ channel.matrix.T / np.sqrt(2.0)
        vectors = [hf, 1j * hf]
    streams[2 * rank] = bits
    streams[2 * rank + 1 :] = rng.integers(0, 2, size=(len(streams) - 2 * rank - 1, n_bits)) * 2 - 1
    taps = np.concatenate([channel.taps[None], d.taps[live]])
    waveforms = np.concatenate([design.waveform[None], d.waveforms[live]])
    energies = np.concatenate([[design.energy], d.energies[live]])
    vectors.append(np.sqrt(energies)[:, None] * ch._through_channel(taps, waveforms))
    vectors = np.concatenate(vectors)
    gains = vectors @ w.conj()
    out = gains.real @ streams + 1j * (gains.imag @ streams)
    if isi_enabled and channel.paths > 1:
        tails = vectors[:, channel.chips :] @ w[: channel.paths - 1].conj()
        out[1:] += tails.real @ streams[:, :-1] + 1j * (tails.imag @ streams[:, :-1])
    if d.noise_variance > 0:
        a, b = rng.standard_normal((2, n_bits, w.shape[0]))
        w = w * np.sqrt(d.noise_variance / 2.0)
        out.real += a @ w.real + b @ w.imag
        out.imag += b @ w.real - a @ w.imag
    return out


class TestOneShotBody:
    """The outputs and the rng state after a call are, bit for bit, those of
    the one-shot body, at the BER sweeps' 10^4 bits and at an odd count."""

    @pytest.mark.parametrize("isi", [False, True])
    @pytest.mark.parametrize("an_kind", ["none", "rank-0", "rank-7"])
    @pytest.mark.parametrize("interferers", [0, 6])
    @pytest.mark.parametrize("noise_variance", [0.0, 1.0])
    @pytest.mark.parametrize("n_bits", [10_000, 2001])
    def test_outputs_and_draws_equal_the_one_shot_body(self, isi, an_kind, interferers,
                                                       noise_variance, n_bits):
        design, channel, disturbance, _, an, w = stacked_case(
            3, an_kind, interferers, noise_variance)
        assert an is None or an.factor.shape[1] in (0, 7)
        bits = np.sign(np.random.default_rng(24).standard_normal(n_bits))
        ours, theirs = trial_rng(1, 2, 3), trial_rng(1, 2, 3)
        out = ch.simulate_received_block(design, channel, disturbance, bits, w, an=an,
                                         isi_enabled=isi, rng=ours)
        expected = one_shot_received_block(design, channel, disturbance, bits, w, an, isi,
                                           theirs)
        assert np.array_equal(out, expected)
        assert np.array_equal(ours.standard_normal(4), theirs.standard_normal(4))


def reference_bit_errors(spec, outcome, draw, scenario, rng):
    """``harness._trial_bit_errors`` on the chip windows: each link's filter
    applied to ``reference_received_block``."""
    bits = rng.integers(0, 2, size=spec.bits_per_trial) * 2 - 1
    counts = []
    for link in draw.bobs + (draw.eve,):
        w = ch.max_sinr_filter(link.channel, link.disturbance, outcome.design.waveform,
                               an=outcome.an_cov)
        y = reference_received_block(outcome.design, link.channel, link.disturbance, bits,
                                     outcome.an_cov, scenario.isi_enabled, rng)
        counts.append(int(np.count_nonzero(np.sign(np.real(y @ w.conj())) != bits)))
    return sum(counts[:-1]), bits.size * len(draw.bobs), counts[-1], bits.size


class TestBitErrorCounts:
    """Simulated filter outputs decide every bit as the chip windows do."""

    @pytest.mark.parametrize("config,overrides", [
        # ISI with live interferers.
        ("ber-uncoded.cfg", {}),
        # AN of rank L - 1.
        ("an-unknown-csi.cfg", {"isi": "true"}),
        # Two receivers and AN of rank L - 2.
        ("multicast-min-energy-an.cfg", {"k": "2", "l": "8", "isi": "true"}),
    ])
    def test_counts_equal_the_chip_window_reference(self, config, overrides):
        keys = {**load_config_file(CONFIGS / config), **overrides, "bits_per_trial": "2000"}
        spec = sweep_spec_from_config(keys)
        scenario = spec.scenario
        sent = 0
        for trial in range(4):
            rng = trial_rng(scenario.seed, 0, trial)
            draw = ch.draw_wiretap_trial(scenario, [rng], receivers=spec.receivers)
            _, outcome = solve_stack(spec, draw, db_to_linear(spec.gamma_db), spec.e_max, [rng])
            if outcome.errors[0] is not None:
                continue
            outcome, draw = take(outcome, 0), take(draw, 0)
            assert outcome.an_cov is None or outcome.an_cov.factor.shape[1] > 0
            theirs = copy.deepcopy(rng)
            counts = _trial_bit_errors(spec, outcome, draw, scenario, rng)
            assert counts == reference_bit_errors(spec, outcome, draw, scenario, theirs)
            assert counts[2] > 0
            sent += 1
        assert sent >= 2


class TestScenarioConfig:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValidationError):
            basic_config(chips=1)
        with pytest.raises(ValidationError):
            basic_config(paths=0)
        with pytest.raises(ValidationError):
            basic_config(noise_variance=0.0)
        with pytest.raises(ValidationError):
            basic_config(trials=0)
        with pytest.raises(ValidationError):
            basic_config(interferer_count=(5, 4))
        with pytest.raises(ValidationError):
            basic_config(interferer_energy=(0.0, 1.0))

    def test_block_dim(self):
        assert basic_config(chips=8, paths=3).block_dim == 10


class TestWiretapTrial:
    def test_population_shared_channels_independent(self):
        trial = ch.draw_wiretap_trial(basic_config(), np.random.default_rng(20), receivers=2)
        a, b = trial.bobs[0].disturbance, trial.bobs[1].disturbance
        live = a.energies > 0
        assert 5 <= np.count_nonzero(live) <= 10 and not np.any(a.taps[~live])
        npt.assert_array_equal(a.energies, b.energies)
        npt.assert_array_equal(a.waveforms, b.waveforms)
        for j in np.flatnonzero(live):
            assert not np.array_equal(a.taps[j], b.taps[j])

    def test_determinism(self):
        t1 = ch.draw_wiretap_trial(basic_config(), np.random.default_rng(21))
        t2 = ch.draw_wiretap_trial(basic_config(), np.random.default_rng(21))
        npt.assert_array_equal(t1.bobs[0].q, t2.bobs[0].q)
        npt.assert_array_equal(t1.eve.disturbance.matrix, t2.eve.disturbance.matrix)
