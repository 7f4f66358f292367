"""Multipath channel generation, disturbance covariances, BER simulation.

The chip-domain model: a bit is carried by a length-L complex waveform, the
channel has M resolvable paths, and each receiver observes L_M = L + M - 1
chips per bit.  Channel taps are i.i.d. circular complex Gaussian with
per-tap variance 1/M so the total path power is 1 on average.
A draw, its matrices and its SINRs also come as stacks with a leading
trial axis (``util.take`` picks one trial out of a stacked result).  A stacked
draw carries a trial whose disturbance covariance is not positive definite
with the identity Q and, in ``errors``, the error its unstacked draw
raises; the unstacked draw is the stack of one.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import DimensionError, ValidationError
from .kernel import cholesky, hermitian_part, quadratic_form
from .util import batch_of_one, complex_from_normals, complex_normal, first_errors

__all__ = [
    "ConvolutionChannelMatrix",
    "DisturbanceCovariance",
    "ScenarioConfig",
    "WiretapLink",
    "WiretapTrial",
    "draw_multipath_channel",
    "convolution_channel_matrix",
    "draw_interferer_population",
    "build_disturbance_covariance",
    "effective_q",
    "sinr",
    "sinr_with_an",
    "max_sinr_filter",
    "simulate_received_block",
    "draw_wiretap_trial",
]


@dataclass(frozen=True)
class ConvolutionChannelMatrix:
    """Banded Toeplitz lift of a tap vector: (L+M-1) x L linear convolution,
    with L = ``chips`` and M = ``paths`` read from the array shapes."""

    matrix: np.ndarray
    taps: np.ndarray

    @property
    def chips(self):
        return self.matrix.shape[-1]

    @property
    def paths(self):
        return self.taps.shape[-1]


@dataclass(frozen=True)
class DisturbanceCovariance:
    """Covariance of interference plus noise at one receiver.

    ``matrix`` is R = sum_j E_j (H_j s_j)(H_j s_j)^H + sigma^2 I of dimension
    L_M = L + M - 1.  The interferers' energies E_j (J,), unit waveforms s_j
    (J, L) and taps to this receiver (J, M) are kept so that simulation can
    regenerate the same disturbance with fresh symbols; None means noise
    only.  Zero-energy rows pad a stack of trials to one interferer count:
    they add nothing to R and are not simulated.
    """

    matrix: np.ndarray
    noise_variance: float
    energies: Optional[np.ndarray] = None
    waveforms: Optional[np.ndarray] = None
    taps: Optional[np.ndarray] = None


@dataclass(frozen=True)
class ScenarioConfig:
    """Monte Carlo scenario parameters (defaults follow the common protocol:
    3 resolvable paths, 5..10 interferers with per-bit energy in [1, 4],
    unit noise variance)."""

    chips: int = 8
    paths: int = 3
    noise_variance: float = 1.0
    interferer_count: tuple = (5, 10)
    interferer_energy: tuple = (1.0, 4.0)
    seed: int = 0
    isi_enabled: bool = False
    trials: int = 10000

    def __post_init__(self):
        if self.chips < 2:
            raise ValidationError(f"chips must be >= 2, got {self.chips}")
        if self.paths < 1:
            raise ValidationError(f"paths must be >= 1, got {self.paths}")
        if not 0 < self.noise_variance < np.inf:
            raise ValidationError(
                f"noise_variance must be positive and finite, got {self.noise_variance}")
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2**128:
            raise ValidationError(f"seed must be in [0, 2**128), got {self.seed}")
        lo, hi = self.interferer_count
        if lo < 0 or hi < lo:
            raise ValidationError(f"empty interferer count range {self.interferer_count}")
        elo, ehi = self.interferer_energy
        if not 0 < elo <= ehi < np.inf:
            raise ValidationError("interferer energy range must satisfy 0 < lo <= hi < inf, "
                                  f"got {self.interferer_energy}")

    @property
    def block_dim(self):
        return self.chips + self.paths - 1


def draw_multipath_channel(paths, rng):
    """Draw M i.i.d. circular complex Gaussian taps, per-tap variance 1/M, as an (M,) array."""
    if paths < 1:
        raise ValidationError(f"paths must be >= 1, got {paths}")
    return complex_normal(rng, paths) / np.sqrt(paths)


def convolution_channel_matrix(taps, chips):
    """Lift tap vectors (..., M) to their (..., L+M-1, L) banded Toeplitz
    convolution matrices."""
    taps = np.asarray(taps, dtype=complex)
    if taps.ndim < 1 or taps.shape[-1] < 1:
        raise ValidationError(f"need at least one tap, got shape {taps.shape}")
    if not np.all(np.isfinite(taps.view(float))):
        raise ValidationError("channel taps must be finite")
    if chips < 1:
        raise ValidationError(f"chips must be >= 1, got {chips}")
    m = taps.shape[-1]
    h = np.zeros(taps.shape[:-1] + (chips + m - 1, chips), dtype=complex)
    cols = np.arange(chips)
    for k in range(m):
        h[..., cols + k, cols] = taps[..., k, None]
    return ConvolutionChannelMatrix(matrix=h, taps=taps)


def draw_interferer_population(cfg, rng):
    """Draw one trial's interferer count and per-bit energies.

    Count is uniform on the inclusive integer range and each energy uniform
    on the energy range (draw order: count, then all energies); the
    interferers' waveforms and taps come from the trial's normal draw.
    """
    lo, hi = cfg.interferer_count
    count = int(rng.integers(lo, hi + 1))
    return rng.uniform(*cfg.interferer_energy, size=count)


def _unit_rows(waveforms):
    """Rows scaled to unit norm; all-zero (padding) rows stay zero."""
    norms = np.linalg.norm(waveforms, axis=-1, keepdims=True)
    return waveforms / np.where(norms > 0, norms, 1.0)


def _through_channel(taps, waveforms):
    """Rows H_j s_j: each length-L waveform convolved with its own M taps."""
    chips = waveforms.shape[-1]
    shape = np.broadcast_shapes(taps.shape[:-1], waveforms.shape[:-1])
    received = np.zeros(shape + (chips + taps.shape[-1] - 1,), dtype=complex)
    for m in range(taps.shape[-1]):
        received[..., m : m + chips] += taps[..., m : m + 1] * waveforms
    return received


def _covariance(cfg, energies, waveforms, taps):
    """R = sum_j E_j (H_j s_j)(H_j s_j)^H + sigma^2 I from interferer arrays."""
    received = _through_channel(taps, waveforms)
    return hermitian_part(cfg.noise_variance * np.eye(cfg.block_dim) + (
        np.swapaxes(received, -1, -2) @ (energies[..., None] * received.conj())))


def build_disturbance_covariance(cfg, rng):
    """R = sum_j E_j (H_j s_j)(H_j s_j)^H + sigma^2 I at the intended
    receiver of a fresh one-receiver ``draw_wiretap_trial``, which raises
    DefinitenessError as it does; zero-energy rows pad the interferers to
    ``interferer_count[1]``."""
    return draw_wiretap_trial(cfg, rng).bobs[0].disturbance


def effective_q(channel, disturbance):
    """Form Q = H^H R^-1 H, the Hermitian PD matrix entering every SINR
    formula; raises DefinitenessError when R is singular.

    A stacked call returns ``(q, errors)``, the identity Q where R failed.
    """
    h = channel.matrix
    r = disturbance.matrix
    if r.shape[-1] != h.shape[-2]:
        raise DimensionError(
            f"disturbance dim {r.shape[-1]} does not match block dim {h.shape[-2]}"
        )
    factor, errors = _disturbance_factor(channel, disturbance)
    x = np.linalg.solve(factor, h)
    q = hermitian_part(np.swapaxes(x, -1, -2).conj() @ x)
    q[np.not_equal(errors, None)] = np.eye(q.shape[-1])
    return q if q.ndim == 2 else (q, errors)


def sinr(q, waveform, energy):
    """Analytic post-filter SINR E * s^H Q s (one per trial of a stack)."""
    q = np.asarray(q, dtype=complex)
    value = energy * quadratic_form(q, np.asarray(waveform, dtype=complex))
    return float(value) if np.ndim(value) == 0 else value


def _disturbance_factor(channel, disturbance, an=None):
    """``cholesky`` of R, or with ``an`` of R + H R_w H^H, the disturbance
    of a receiver that also hears the AN."""
    if an is None:
        return cholesky(disturbance.matrix, "disturbance covariance is not positive definite")
    h = channel.matrix
    loaded = disturbance.matrix + h @ an.matrix @ np.swapaxes(h, -1, -2).conj()
    return cholesky(hermitian_part(loaded), "AN-loaded disturbance covariance is singular")


def sinr_with_an(channel, disturbance, an, waveform, energy):
    """Max-SINR output SINR when the transmitter also radiates AN.

    Evaluates E * s^H H^H (R + H R_w H^H)^-1 H s, the post-filter SINR of a
    receiver whose filter accounts for the AN covariance (the worst-case,
    fully informed receiver), as E ||C^-1 H s||^2 with C the Cholesky
    factor of R + H R_w H^H.  A stacked call returns ``(sinr, errors)``,
    NaN where the AN-loaded covariance failed.
    """
    s = np.asarray(waveform, dtype=complex)
    factor, errors = _disturbance_factor(channel, disturbance, an)
    whitened = np.linalg.solve(factor, channel.matrix @ s[..., None])[..., 0]
    value = np.where(np.not_equal(errors, None), np.nan,
                     energy * np.sum(np.abs(whitened) ** 2, axis=-1))
    return float(value) if value.ndim == 0 else (value, errors)


def max_sinr_filter(channel, disturbance, waveform, an=None):
    """Unnormalized max-SINR filter w = (R + H R_w H^H)^-1 H s, solved on
    the Cholesky factor C as C^-H (C^-1 H s)."""
    s = np.asarray(waveform, dtype=complex)
    factor, _ = _disturbance_factor(channel, disturbance, an)
    return np.linalg.solve(factor.conj().T, np.linalg.solve(factor, channel.matrix @ s))


def simulate_received_block(design, channel, disturbance, bits, w, an=None,
                            isi_enabled=False, *, rng):
    """Simulate a linear receiver's output w^H y(n) for a +/-1 bit sequence.

    y(n) = sqrt(E) b(n) H s + H F g(n) + z(n) + noise(n) is the received
    chip window: the data waveform and any AN (factor F, the last
    ``an.dim`` columns of ``an.factor``, times standard complex normal g(n))
    pass through the same channel, interference z(n) is
    regenerated from the covariance model's interferer descriptors with
    fresh +/-1 symbols per bit, and noise is i.i.d. circular Gaussian with
    the model's variance.  Each source is a real stream times a fixed
    received vector v_j (Re and Im of g(n) times H F; b(n) times sqrt(E) H s;
    interferer symbols times sqrt(E_j) H_j s_j), so the filter ``w``
    (L+M-1,) sees it as the stream times the gain w^H v_j, plus with ISI the
    previous bit's stream times w[:M-1]^H v_j[L:]; the windows are never
    formed.  Returns the (N,) complex outputs.  Draw order on ``rng`` per
    call, that of the windows: AN, then one symbol stream per interferer of
    nonzero energy, then the (N, L+M-1) chip noise, so seeded runs are
    reproducible.
    """
    bits = np.asarray(bits)
    if bits.ndim != 1 or bits.shape[0] == 0:
        raise ValidationError("bits must be a nonempty 1-D sequence")
    if not np.all(np.abs(bits) == 1):
        raise ValidationError("bits must be +/-1 valued")
    s = np.asarray(design.waveform, dtype=complex)
    if s.shape[0] != channel.chips:
        raise DimensionError(
            f"waveform length {s.shape[0]} does not match channel chips {channel.chips}"
        )
    if abs(np.linalg.norm(s) - 1.0) > 1e-10:
        raise ValidationError("design waveform must be unit-norm")
    w = np.asarray(w, dtype=complex)
    if w.shape != channel.matrix.shape[:1]:
        raise DimensionError(
            f"filter shape {w.shape} does not match block dim {channel.matrix.shape[0]}")

    n_bits = bits.shape[0]
    # AN columns drawn: the factor's own, without a stack's zero padding.
    rank = 0 if an is None else an.factor.shape[1] if an.dim is None else int(an.dim)
    d = disturbance
    if d.energies is None:
        d = replace(d, energies=np.zeros(0), waveforms=np.zeros((0, channel.chips)),
                    taps=np.zeros((0, channel.paths)))
    live = d.energies > 0
    streams = np.empty((2 * rank + 1 + np.count_nonzero(live), n_bits))
    vectors = []
    if rank:
        # complex_normal's draw: g = (a + i b) / sqrt(2), block a first,
        # each block (N, rank) in row order.
        streams[:rank] = rng.standard_normal((n_bits, rank)).T
        streams[rank : 2 * rank] = rng.standard_normal((n_bits, rank)).T
        hf = an.factor[:, -rank:].T @ channel.matrix.T / np.sqrt(2.0)  # rows of (H F)^T
        vectors = [hf, 1j * hf]
    streams[2 * rank] = bits
    # One call per interferer draws the same stream as one call for all.
    for row in range(2 * rank + 1, len(streams)):
        streams[row] = rng.integers(0, 2, size=n_bits) * 2 - 1
    taps = np.concatenate([channel.taps[None], d.taps[live]])
    waveforms = np.concatenate([s[None], d.waveforms[live]])
    energies = np.concatenate([[design.energy], d.energies[live]])
    vectors.append(np.sqrt(energies)[:, None] * _through_channel(taps, waveforms))
    vectors = np.concatenate(vectors)
    gains = vectors @ w.conj()
    # Real and imaginary parts formed apart: no complex temporary of size N.
    out = (gains.real @ streams).astype(complex)
    out.imag = gains.imag @ streams
    if isi_enabled and channel.paths > 1:
        # The last M-1 chips of each bit spill into the head of the next window.
        tails = vectors[:, channel.chips :] @ w[: channel.paths - 1].conj()
        out.real[1:] += tails.real @ streams[:, :-1]
        out.imag[1:] += tails.imag @ streams[:, :-1]
    del streams  # freed before the noise is drawn
    if d.noise_variance > 0:
        # w^H of complex_normal's draw sigma (a + i b) / sqrt(2), block a
        # first, in real products: the blocks are drawn one at a time and
        # a is contracted before b is drawn.
        w = w * np.sqrt(d.noise_variance / 2.0)
        a = rng.standard_normal((n_bits, w.shape[0]))
        a_re, a_im = a @ w.real, a @ w.imag
        del a
        b = rng.standard_normal((n_bits, w.shape[0]))
        out.real += a_re + b @ w.imag
        out.imag += b @ w.real - a_im
    return out


@dataclass(frozen=True)
class WiretapLink:
    """One receiver's view of the trial: channel, disturbance, effective Q."""

    channel: ConvolutionChannelMatrix
    disturbance: DisturbanceCovariance
    q: np.ndarray


@dataclass(frozen=True)
class WiretapTrial:
    """One Monte Carlo draw: intended receiver link(s) plus the eavesdropper,
    and per trial of a stacked draw None or its error (see the module notes)."""

    bobs: tuple
    eve: WiretapLink
    errors: Optional[np.ndarray] = None


def draw_wiretap_trial(cfg, rng, receivers=1):
    """Draw channels for ``receivers`` intended receivers and one eavesdropper.

    ``rng`` is one Generator, or a sequence of them for a stack of trials.
    A single interferer population is shared by every receiver, each seeing
    it through independent multipath channels.  Each trial draws from its
    own generator: count, energies, then one normal draw holding the
    interferer waveforms and, per receiver (intended ones first, then the
    eavesdropper), its taps and interferer taps.  Interferers are padded
    with zero energy to ``interferer_count[1]`` so trials stack.
    """
    if receivers < 1:
        raise ValidationError(f"receivers must be >= 1, got {receivers}")
    single = isinstance(rng, np.random.Generator)
    rngs = [rng] if single else list(rng)
    links, most, chips, paths = receivers + 1, cfg.interferer_count[1], cfg.chips, cfg.paths
    energies = np.zeros((len(rngs), most))
    # Real halves first, as complex_normal draws them.
    waves = np.zeros((len(rngs), 2, most, chips))
    taps = np.zeros((len(rngs), links, 2, paths))
    interferer_taps = np.zeros((len(rngs), links, 2, most, paths))
    for t, generator in enumerate(rngs):
        drawn = draw_interferer_population(cfg, generator)
        count = drawn.shape[0]
        energies[t, :count] = drawn
        normals = generator.standard_normal(2 * count * chips + links * 2 * paths * (count + 1))
        waves[t, :, :count] = normals[: 2 * count * chips].reshape(2, count, chips)
        per_link = normals[2 * count * chips :].reshape(links, -1)
        taps[t] = per_link[:, : 2 * paths].reshape(links, 2, paths)
        interferer_taps[t, :, :, :count] = per_link[:, 2 * paths :].reshape(links, 2, count, paths)
    waveforms = _unit_rows(complex_from_normals(waves, -3))
    # Receivers on the leading axis: index k is receiver k's (stack of) links.
    taps = np.moveaxis(complex_from_normals(taps, -2), -2, 0) / np.sqrt(paths)
    interferer_taps = np.moveaxis(complex_from_normals(interferer_taps, -3), -3, 0) / np.sqrt(paths)
    h = convolution_channel_matrix(taps, chips).matrix
    views, errors = [], []
    # R and Q one link at a time bound the draw's memory.  A trial's error
    # is that of its first link whose R failed, where its draw alone stops.
    for k in range(links):
        channel = ConvolutionChannelMatrix(h[k], taps[k])
        disturbance = DisturbanceCovariance(
            _covariance(cfg, energies, waveforms, interferer_taps[k]),
            float(cfg.noise_variance), energies, waveforms, interferer_taps[k])
        q, failed = effective_q(channel, disturbance)
        views.append(WiretapLink(channel, disturbance, q))
        errors.append(failed)
    trial = WiretapTrial(bobs=tuple(views[:-1]), eve=views[-1], errors=first_errors(*errors))
    return batch_of_one(trial) if single else trial
