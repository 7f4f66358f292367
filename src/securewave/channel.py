"""Multipath channel generation, disturbance covariances, chip simulation.

The chip-domain model: a bit is carried by a length-L complex waveform, the
channel has M resolvable paths, and each receiver observes L_M = L + M - 1
chips per bit.  Channel taps are i.i.d. circular complex Gaussian with
per-tap variance 1/M so the total path power is 1 on average.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.linalg

from .errors import DefinitenessError, DimensionError, ValidationError
from .util import complex_normal

__all__ = [
    "ChannelRealization",
    "ConvolutionChannelMatrix",
    "InterfererSource",
    "Interferer",
    "DisturbanceCovariance",
    "EffectiveQ",
    "ScenarioConfig",
    "WiretapLink",
    "WiretapTrial",
    "draw_multipath_channel",
    "convolution_channel_matrix",
    "draw_interferer_population",
    "build_disturbance_covariance",
    "effective_q",
    "q_matrix",
    "sinr",
    "sinr_with_an",
    "max_sinr_filter",
    "simulate_received_block",
    "draw_wiretap_trial",
]


@dataclass(frozen=True)
class ChannelRealization:
    """The M complex multipath taps of one transmitter-to-receiver link."""

    taps: np.ndarray

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=complex)
        if taps.ndim != 1 or taps.shape[0] < 1:
            raise ValidationError(f"need at least one tap, got shape {taps.shape}")
        if not np.all(np.isfinite(taps.view(float))):
            raise ValidationError("channel taps must be finite")
        object.__setattr__(self, "taps", taps)

    @property
    def paths(self):
        return self.taps.shape[0]


@dataclass(frozen=True)
class ConvolutionChannelMatrix:
    """Banded Toeplitz lift of a tap vector: (L+M-1) x L linear convolution."""

    matrix: np.ndarray
    taps: np.ndarray
    chips: int
    paths: int


@dataclass(frozen=True)
class InterfererSource:
    """Receiver-independent description of one concurrent transmitter."""

    energy: float
    waveform: np.ndarray


@dataclass(frozen=True)
class Interferer:
    """An interferer as seen by one receiver: source plus its channel taps."""

    energy: float
    waveform: np.ndarray
    taps: np.ndarray


@dataclass(frozen=True)
class DisturbanceCovariance:
    """Covariance of interference plus noise at one receiver.

    ``matrix`` is R = sum_j E_j (H_j s_j)(H_j s_j)^H + sigma^2 I of dimension
    L_M = L + M - 1.  The interferer descriptors are kept so that simulation
    can regenerate the same disturbance with fresh symbols.
    """

    matrix: np.ndarray
    noise_variance: float
    interferers: tuple


@dataclass(frozen=True)
class EffectiveQ:
    """Q = H^H R^-1 H, the Hermitian PD matrix entering every SINR formula."""

    matrix: np.ndarray
    channel: Optional[ConvolutionChannelMatrix] = None
    disturbance: Optional[DisturbanceCovariance] = None


def q_matrix(q):
    """Accept an EffectiveQ or a bare Hermitian array; return the array."""
    if isinstance(q, EffectiveQ):
        return q.matrix
    return np.asarray(q, dtype=complex)


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
        if not self.noise_variance > 0:
            raise ValidationError("noise_variance must be > 0")
        if self.trials < 1:
            raise ValidationError(f"trials must be >= 1, got {self.trials}")
        lo, hi = self.interferer_count
        if lo < 0 or hi < lo:
            raise ValidationError(f"empty interferer count range {self.interferer_count}")
        elo, ehi = self.interferer_energy
        if elo <= 0 or ehi < elo:
            raise ValidationError(f"empty interferer energy range {self.interferer_energy}")

    @property
    def block_dim(self):
        return self.chips + self.paths - 1


def draw_multipath_channel(paths, rng):
    """Draw M i.i.d. circular complex Gaussian taps with per-tap variance 1/M."""
    if paths < 1:
        raise ValidationError(f"paths must be >= 1, got {paths}")
    taps = complex_normal(rng, paths) / np.sqrt(paths)
    return ChannelRealization(taps=taps)


def convolution_channel_matrix(channel, chips):
    """Lift a tap vector to its (L+M-1) x L banded Toeplitz convolution matrix."""
    if not isinstance(channel, ChannelRealization):
        channel = ChannelRealization(taps=np.asarray(channel, dtype=complex))
    if chips < 1:
        raise ValidationError(f"chips must be >= 1, got {chips}")
    taps = channel.taps
    m = taps.shape[0]
    h = np.zeros((chips + m - 1, chips), dtype=complex)
    cols = np.arange(chips)
    for k in range(m):
        h[cols + k, cols] = taps[k]
    return ConvolutionChannelMatrix(matrix=h, taps=taps, chips=chips, paths=m)


def draw_interferer_population(cfg, rng):
    """Draw the receiver-independent interferer descriptors for one trial.

    Count is uniform on the inclusive integer range, per-interferer bit
    energy uniform on the energy range, and each waveform is a unit-norm
    length-L complex Gaussian vector.  Draw order: count, all energies, all
    waveforms (one batched draw each).
    """
    lo, hi = cfg.interferer_count
    count = int(rng.integers(lo, hi + 1))
    if count == 0:
        return ()
    energies = rng.uniform(*cfg.interferer_energy, size=count)
    waveforms = complex_normal(rng, (count, cfg.chips))
    waveforms /= np.linalg.norm(waveforms, axis=1, keepdims=True)
    return tuple(
        InterfererSource(energy=float(e), waveform=w)
        for e, w in zip(energies, waveforms)
    )


def _through_channel(taps, waveforms):
    """Rows H_j s_j: each length-L waveform convolved with its own M taps."""
    chips = waveforms.shape[1]
    received = np.zeros((taps.shape[0], chips + taps.shape[1] - 1), dtype=complex)
    for m in range(taps.shape[1]):
        received[:, m : m + chips] += taps[:, m : m + 1] * waveforms
    return received


def build_disturbance_covariance(cfg, rng, population=None):
    """Build R = sum_j E_j (H_j s_j)(H_j s_j)^H + sigma^2 I for one receiver.

    When ``population`` is None a fresh interferer population is drawn from
    ``rng``; either way each interferer gets its own M-path channel to this
    receiver (all interferer taps come from one batched draw).
    """
    if population is None:
        population = draw_interferer_population(cfg, rng)
    r = cfg.noise_variance * np.eye(cfg.block_dim, dtype=complex)
    interferers = ()
    if population:
        energies = np.array([src.energy for src in population])
        waveforms = np.stack([src.waveform for src in population])
        taps = complex_normal(rng, (len(population), cfg.paths)) / np.sqrt(cfg.paths)
        received = _through_channel(taps, waveforms)
        r += received.T @ (energies[:, None] * received.conj())
        interferers = tuple(
            Interferer(energy=float(e), waveform=w, taps=t)
            for e, w, t in zip(energies, waveforms, taps)
        )
    r = 0.5 * (r + r.conj().T)
    return DisturbanceCovariance(
        matrix=r, noise_variance=float(cfg.noise_variance), interferers=interferers
    )


def effective_q(channel, disturbance):
    """Form Q = H^H R^-1 H; raises DefinitenessError when R is singular."""
    h = channel.matrix
    r = disturbance.matrix
    if r.shape[0] != h.shape[0]:
        raise DimensionError(
            f"disturbance dim {r.shape[0]} does not match block dim {h.shape[0]}"
        )
    try:
        factor = scipy.linalg.cho_factor(r, lower=True, check_finite=False)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise DefinitenessError("disturbance covariance is not positive definite") from exc
    rinv_h = scipy.linalg.cho_solve(factor, h, check_finite=False)
    q = h.conj().T @ rinv_h
    q = 0.5 * (q + q.conj().T)
    return EffectiveQ(matrix=q, channel=channel, disturbance=disturbance)


def sinr(q, waveform, energy):
    """Analytic post-filter SINR E * s^H Q s."""
    q = q_matrix(q)
    s = np.asarray(waveform, dtype=complex)
    return float(energy * np.real(s.conj() @ q @ s))


def _an_loaded_inverse_apply(channel, disturbance, an_matrix, target):
    """Solve (R + H R_w H^H) x = target."""
    h = channel.matrix
    d = disturbance.matrix + h @ an_matrix @ h.conj().T
    d = 0.5 * (d + d.conj().T)
    try:
        factor = scipy.linalg.cho_factor(d, lower=True, check_finite=False)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise DefinitenessError("AN-loaded disturbance covariance is singular") from exc
    return scipy.linalg.cho_solve(factor, target, check_finite=False)


def sinr_with_an(channel, disturbance, an, waveform, energy):
    """Max-SINR output SINR when the transmitter also radiates AN.

    Evaluates E * s^H H^H (R + H R_w H^H)^-1 H s, the post-filter SINR of a
    receiver whose filter accounts for the AN covariance (the worst-case,
    fully informed receiver).
    """
    s = np.asarray(waveform, dtype=complex)
    hs = channel.matrix @ s
    solved = _an_loaded_inverse_apply(channel, disturbance, an.matrix, hs)
    return float(energy * np.real(hs.conj() @ solved))


def max_sinr_filter(channel, disturbance, waveform, an=None):
    """Unnormalized max-SINR filter w = (R + H R_w H^H)^-1 H s."""
    s = np.asarray(waveform, dtype=complex)
    hs = channel.matrix @ s
    if an is None:
        factor = scipy.linalg.cho_factor(disturbance.matrix, lower=True, check_finite=False)
        return scipy.linalg.cho_solve(factor, hs, check_finite=False)
    return _an_loaded_inverse_apply(channel, disturbance, an.matrix, hs)


def simulate_received_block(
    design, channel, disturbance, bits, an=None, isi_enabled=False, rng=None
):
    """Simulate the received chip windows y(n) for a +/-1 bit sequence.

    y(n) = sqrt(E) b(n) H s + H w(n) + z(n) + noise(n): the data waveform and
    any AN pass through the same channel, interference is regenerated from
    the covariance model's interferer descriptors with fresh +/-1 symbols per
    bit, and noise is i.i.d. circular Gaussian with the model's variance.
    Each source is a real stream times a fixed received vector (Re and Im of
    the AN draw times H F; b(n) times sqrt(E) H s; interferer symbols times
    sqrt(E_j) H_j s_j), so the windows are one real product of the stacked
    streams and vectors, with the linear ISI tail shift applied once to the
    sum.  Draw order per call, unchanged: AN, then one symbol stream per
    interferer, then noise, so seeded runs are reproducible.
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
    if rng is None:
        rng = np.random.default_rng()

    n_bits = bits.shape[0]
    rank = 0 if an is None else an.factor.shape[1]
    sources = disturbance.interferers
    streams = np.empty((2 * rank + 1 + len(sources), n_bits))
    vectors = []
    if rank:
        # complex_normal's draw: g = (a + i b) / sqrt(2), block a first.
        streams[: 2 * rank] = np.concatenate(rng.standard_normal((2, n_bits, rank)), axis=1).T
        hf = an.factor.T @ channel.matrix.T / np.sqrt(2.0)  # rows of (H F)^T
        vectors = [hf, 1j * hf]
    streams[2 * rank] = bits
    # One call draws the same stream as one call per interferer.
    streams[2 * rank + 1 :] = rng.integers(0, 2, size=(len(sources), n_bits)) * 2 - 1
    taps = np.stack([channel.taps] + [src.taps for src in sources])
    waveforms = np.stack([s] + [src.waveform for src in sources])
    energies = np.array([design.energy] + [src.energy for src in sources])
    vectors.append(np.sqrt(energies)[:, None] * _through_channel(taps, waveforms))
    y = (streams.T @ np.concatenate(vectors).view(float)).view(complex)
    if isi_enabled and channel.paths > 1:
        # The last M-1 chips of each bit spill into the head of the next window.
        y[1:, : channel.paths - 1] += y[:-1, channel.chips :]
    if disturbance.noise_variance > 0:
        # complex_normal's draw, scaled and added in place: no complex temporary.
        noise = rng.standard_normal((2,) + y.shape)
        noise *= np.sqrt(disturbance.noise_variance / 2.0)
        y.real += noise[0]
        y.imag += noise[1]
    return y


@dataclass(frozen=True)
class WiretapLink:
    """One receiver's view of the trial: channel, disturbance, effective Q."""

    channel: ConvolutionChannelMatrix
    disturbance: DisturbanceCovariance
    q: EffectiveQ


@dataclass(frozen=True)
class WiretapTrial:
    """One Monte Carlo draw: intended receiver link(s) plus the eavesdropper."""

    bobs: tuple
    eve: WiretapLink
    population: tuple = field(default=(), repr=False)


def _draw_link(cfg, rng, population):
    link = convolution_channel_matrix(draw_multipath_channel(cfg.paths, rng), cfg.chips)
    disturbance = build_disturbance_covariance(cfg, rng, population=population)
    return WiretapLink(channel=link, disturbance=disturbance, q=effective_q(link, disturbance))


def draw_wiretap_trial(cfg, rng, receivers=1):
    """Draw channels for ``receivers`` intended receivers and one eavesdropper.

    A single interferer population (count, energies, waveforms) is shared by
    every receiver; each receiver sees it through independent multipath
    channels.  Draw order: population, then each intended receiver, then the
    eavesdropper.
    """
    if receivers < 1:
        raise ValidationError(f"receivers must be >= 1, got {receivers}")
    population = draw_interferer_population(cfg, rng)
    bobs = tuple(_draw_link(cfg, rng, population) for _ in range(receivers))
    eve = _draw_link(cfg, rng, population)
    return WiretapTrial(bobs=bobs, eve=eve, population=population)
