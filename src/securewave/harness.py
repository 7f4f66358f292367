"""Monte Carlo experiment driver: sweeps, BER estimation, CSV emission.

Each sweep point runs ``trials`` independent channel realizations, applies
the selected design mode, and aggregates analytic post-filter SINRs (and,
for BER runs, simulated error counts) into a plot-ready table.  Per-trial
randomness comes from substreams derived deterministically from the master
seed, so results are byte-reproducible and order-independent.  Trials are
drawn one by one and solved as stacks (see ``solve_stack``); a stack runs
on across swept points that share one scenario, as every point of a
``gamma_db`` or ``emax`` sweep does.  A stack answers each trial once,
with its scores or its error, bit for bit as the trial's stack of one.
A stack's BER trials are simulated on the CPUs the process may run on,
each from its own substream, so results do not depend on how many.
"""

import operator
import os
import threading
from dataclasses import dataclass, fields, replace
from itertools import groupby
from typing import Optional

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import an as an_design
from . import channel as ch
from .errors import NoTransmitError, NumericalError, SecureWaveError, ValidationError
from .p2p import P2pProblem, WaveformDesign, design_p2p
from .sdr import MulticastProblem, multicast_design, solve_relaxation, sum_sinr_design
from .util import db_to_linear, first_errors, linear_to_db, take

__all__ = ["SweepSpec", "ResultRow", "ResultTable", "Outcome",
           "MODES", "design_trial", "solve_stack", "run_sweep",
           "estimate_ber", "format_results", "emit_results", "trial_rng"]

MODES = (
    "eigen-known-csi",
    "an-unknown-csi",
    "min-energy-no-an",
    "multicast-sdr",
    "multicast-min-energy-an",
    "sum-sinr",
)
SINGLE_RECEIVER_MODES = MODES[:3]
# Trials drawn and solved as one stack; bounds a stack's memory.
STACK_TRIALS = 100
SWEEP_VARIABLES = ("gamma_db", "l", "emax")
# Threads a stack's BER trials run on, the calling one included: one per
# CPU the process may run on.
_BER_THREADS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)


@dataclass
class SweepSpec:
    """One experiment: scenario, design mode, and the swept variable."""

    scenario: ch.ScenarioConfig
    mode: str
    sweep: str
    values: tuple
    gamma_db: float = 6.0
    e_max: float = 100.0
    receivers: int = 1
    sinr_average: str = "linear"
    bits_per_trial: int = 10000

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.sweep not in SWEEP_VARIABLES:
            raise ValidationError(
                f"unknown sweep variable {self.sweep!r}; expected one of {SWEEP_VARIABLES}"
            )
        values = tuple(float(v) for v in self.values)
        if not values:
            raise ValidationError("sweep values must be non-empty")
        for key, given in (("gamma_db", (self.gamma_db,)), ("sweep_values", values)):
            if not np.all(np.isfinite(given)):
                raise ValidationError(f"{key} must be finite, got {', '.join(map(str, given))}")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValidationError("sweep values must be strictly increasing")
        if self.sweep == "l" and any(v != int(v) or v < 2 for v in values):
            raise ValidationError("waveform-length sweep values must be integers >= 2")
        if self.sweep == "emax" and any(v <= 0 for v in values):
            raise ValidationError("energy sweep values must be positive")
        if self.receivers < 1:
            raise ValidationError(f"receivers must be >= 1, got {self.receivers}")
        if self.mode in SINGLE_RECEIVER_MODES and self.receivers != 1:
            raise ValidationError(f"mode {self.mode} is single-receiver (got K={self.receivers})")
        if self.sinr_average not in ("linear", "db"):
            raise ValidationError("sinr_average must be 'linear' or 'db'")
        if not (self.e_max > 0 and np.isfinite(self.e_max)):
            raise ValidationError(f"e_max must be positive, got {self.e_max}")
        self.values = values


@dataclass
class ResultRow:
    """Aggregates for one swept value (NaN where a metric was not computed)."""

    swept_value: float
    mean_sinr_eve_db: float
    sinr_eve_ci_db: float
    mean_sinr_bob_db: float
    sinr_bob_ci_db: float
    solvability: float
    an_fraction: float
    ber_bob: float
    ber_bob_ci: float
    ber_eve: float
    ber_eve_ci: float
    n_trials: int


# The CSV header: ResultRow's fields in declaration order.
CSV_COLUMNS = tuple(f.name for f in fields(ResultRow))


@dataclass
class ResultTable:
    rows: tuple

    def column(self, name):
        return np.array([getattr(row, name) for row in self.rows])


_WORD_MASK = (1 << 64) - 1


class _PhiloxKey(ISeedSequence):
    """The seed sequence that gives Philox its key as is: the master seed's
    two 64-bit words, low word first, the key that ``Philox(key=seed)``
    sets.  Passed as Philox's seed, it stands in for the ``SeedSequence``
    that Philox would otherwise build from OS entropy and then discard."""

    __slots__ = ("words",)

    def __init__(self, seed):
        if not 0 <= seed < 1 << 128:
            raise ValueError(f"seed must be in [0, 2**128), got {seed}")
        self.words = np.array([seed & _WORD_MASK, seed >> 64], dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or dtype is not np.uint64:
            raise ValueError("a Philox key is two 64-bit words")
        return self.words


def trial_rng(seed, value_index, trial_index):
    """Independent substream for one trial: documented counter-based split.

    The stream is Philox keyed by the master seed with the 256-bit counter's
    two high words set to (trial_index, value_index), the stream of
    ``Philox(key=seed, counter=[0, 0, trial_index, value_index])``;
    consecutive trials are separated by 2^128 blocks, so streams never
    overlap and any execution order (or parallel schedule) reproduces the
    same draws.  The key is handed to Philox directly (``_PhiloxKey``), so
    no OS entropy is drawn; a seed outside [0, 2^128) raises ValueError.
    Each call returns its own Generator.  A sweep draws each trial from its
    own stream, then solves its trials as stacks that may hold several
    swept points; a trial's draws and its results (design, SINRs, bit
    errors), bit for bit, do not depend on the stack it sits in or on the
    other points in that stack.
    """
    bitgen = np.random.Philox(_PhiloxKey(operator.index(seed)),
                              counter=[0, 0, trial_index, value_index])
    return np.random.Generator(bitgen)


def _resolve_point(spec, value):
    """Scenario, linear-scale gamma, and energy cap at one swept value."""
    scenario = spec.scenario
    gamma = float(db_to_linear(spec.gamma_db))
    e_max = spec.e_max
    if spec.sweep == "gamma_db":
        gamma = float(db_to_linear(value))
    elif spec.sweep == "l":
        scenario = replace(scenario, chips=int(value))
    else:
        e_max = float(value)
    return scenario, gamma, e_max


@dataclass(frozen=True)
class Outcome:
    """One design on a stacked trial draw, scored at every receiver.

    Every field is stacked (see ``design_trial``), ``errors`` included;
    ``an_cov`` is None when the mode sends no artificial noise, and
    ``sinr_bob`` has one entry per intended receiver.
    """

    design: WaveformDesign
    an_cov: Optional[an_design.AnCovariance]
    sinr_bob: tuple
    sinr_eve: float
    errors: np.ndarray

    @property
    def an_budget(self):
        return self.an_cov.budget if self.an_cov is not None else 0.0


def _multicast_designs(spec, draw, gamma, e_max, rngs):
    """The relaxations of every trial whose draw formed, solved as one stack
    (``solve_relaxation``), then ``multicast_design`` on each trial's own
    solution, rng, gamma and cap, as one stacked design.  A failed trial
    keeps its error (its draw's first) and NaN energy; ``info["bound"]``
    holds each trial's relaxation bound."""
    gamma, e_max = (np.broadcast_to(x, len(rngs)) for x in (gamma, e_max))
    waveform = np.zeros((len(rngs), draw.eve.q.shape[-1]), dtype=complex)
    energy, bound = np.full(len(rngs), np.nan), np.full(len(rngs), np.nan)
    errors = draw.errors.copy()
    formed = np.flatnonzero(np.equal(errors, None))
    if len(formed):
        # Only the known-eavesdropper mode sees Q_e, and so minimizes Eve's SINR.
        problems = MulticastProblem(
            q_bobs=tuple(link.q[formed] for link in draw.bobs),
            gammas=np.repeat(gamma[formed, None], len(draw.bobs), axis=1), e_max=e_max[formed],
            q_eve=draw.eve.q[formed] if spec.mode == "multicast-sdr" else None)
        solutions = solve_relaxation(problems)
    for k, t in enumerate(formed):
        errors[t] = solutions.errors[k]
        if errors[t] is not None:
            continue
        try:
            design, bound[t] = multicast_design(take(problems, k), rngs[t], take(solutions, k))
        except SecureWaveError as exc:
            errors[t] = exc
            continue
        waveform[t], energy[t] = design.waveform, design.energy
    return WaveformDesign(waveform=waveform, energy=energy, branch="sdr",
                          info={"bound": bound}, errors=errors)


def design_trial(spec, draw, gamma, e_max, rngs):
    """Run the spec's design mode on a stacked trial draw and score it.

    ``gamma`` and ``e_max`` are scalars or one value per trial, and
    ``rngs`` holds one generator per trial.  SINRs are analytic post-filter
    values, with the AN covariance loaded into every receiver's disturbance
    when the mode sends AN.  Returns a stacked Outcome whose ``errors``
    hold per trial None or the first error (NoTransmitError for a silent
    trial) that its draw, design or scoring met; such a trial scores NaN.
    Only the SDR modes read ``rngs``.
    """
    q_bobs = [link.q for link in draw.bobs]
    an_cov = None
    if spec.mode == "eigen-known-csi":
        design = design_p2p(P2pProblem(q_bob=q_bobs[0], q_eve=draw.eve.q,
                                       gamma=gamma, e_max=e_max))
    elif spec.mode == "min-energy-no-an":
        design = an_design.min_energy_design(q_bobs[0], gamma, e_max)
    elif spec.mode == "an-unknown-csi":
        design, an_cov = an_design.an_pipeline_single(q_bobs[0], gamma, e_max)
    elif spec.mode == "sum-sinr":
        design = sum_sinr_design(q_bobs, draw.eve.q, gamma, e_max)
    else:
        design = _multicast_designs(spec, draw, gamma, e_max, rngs)
        if spec.mode == "multicast-min-energy-an":
            an_cov = an_design.an_pipeline_multicast(design, q_bobs, e_max)

    def score(link):
        if an_cov is None:
            return ch.sinr(link.q, design.waveform, design.energy), None
        return ch.sinr_with_an(link.channel, link.disturbance, an_cov,
                               design.waveform, design.energy)

    sinrs, errors = zip(*(score(link) for link in draw.bobs + (draw.eve,)))
    return Outcome(design=design, an_cov=an_cov, sinr_bob=sinrs[:-1], sinr_eve=sinrs[-1],
                   errors=first_errors(draw.errors, design.errors, *errors))


def solve_stack(spec, draw, gamma, e_max, rngs):
    """Design and score every trial of a stacked draw in one ``design_trial``.

    ``gamma`` and ``e_max`` are scalars or one value per trial, so one
    stack can hold trials of several swept points.  Returns
    ``(scores, outcome)``.  Row t of ``scores`` holds trial t's sinr_eve,
    AN energy and sinr_bob_1..K, or NaN when ``outcome.errors[t]`` holds
    the error (NoTransmitError for a silent trial) that its draw or design
    met, the draw's first.  ``outcome`` is the stacked Outcome; a stack of
    one is a single trial's design.  A NaN score without an error breaks
    that contract: NumericalError.
    """
    outcome = design_trial(spec, draw, gamma, e_max, rngs)
    scores = np.stack(np.broadcast_arrays(outcome.sinr_eve, outcome.an_budget, *outcome.sinr_bob),
                      axis=-1)
    errors = outcome.errors
    scores[np.not_equal(errors, None)] = np.nan
    if np.isnan(scores[np.equal(errors, None)]).any():
        raise NumericalError(f"{spec.mode} left a trial without scores or an error")
    return scores, outcome


def _mean_and_ci_db(samples, average):
    """Mean SINR in dB plus a standard-error radius in dB.

    ``average='linear'`` takes the linear-scale mean and converts (the
    radius uses the delta method); ``average='db'`` averages the per-trial
    dB values directly.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.shape[0]
    if n == 0:
        return float("nan"), float("nan")
    values = linear_to_db(samples) if average == "db" else samples
    mean = float(np.mean(values))
    sem = float(np.std(values, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    if average == "db":
        return mean, sem
    return float(linear_to_db(mean)), (10.0 / np.log(10.0)) * sem / mean


def _aggregate(spec, value, scores, e_max_value, ber):
    solved = scores[~np.isnan(scores[:, 0])]
    eve_db, eve_ci = _mean_and_ci_db(solved[:, 0], spec.sinr_average)
    bob_db, bob_ci = _mean_and_ci_db(np.mean(solved[:, 2:], axis=-1), spec.sinr_average)
    an_fraction = (
        float(np.mean(solved[:, 1] / e_max_value)) if len(solved) else float("nan")
    )
    return ResultRow(
        swept_value=float(value),
        mean_sinr_eve_db=eve_db, sinr_eve_ci_db=eve_ci,
        mean_sinr_bob_db=bob_db, sinr_bob_ci_db=bob_ci,
        solvability=len(solved) / len(scores),
        an_fraction=an_fraction,
        ber_bob=ber.get("bob", float("nan")),
        ber_bob_ci=ber.get("bob_ci", float("nan")),
        ber_eve=ber.get("eve", float("nan")),
        ber_eve_ci=ber.get("eve_ci", float("nan")),
        n_trials=len(scores),
    )


def _stacks(points):
    """The sweep's (value_index, trial_index) pairs in that order, cut into
    stacks of at most ``STACK_TRIALS``; a stack never spans two scenarios."""
    for _, run in groupby(range(len(points)), key=lambda vi: points[vi][0]):
        pairs = [(vi, ti) for vi in run for ti in range(points[vi][0].trials)]
        for start in range(0, len(pairs), STACK_TRIALS):
            yield pairs[start : start + STACK_TRIALS]


def _sweep(spec, ber):
    """The trial loop shared by ``run_sweep`` and ``estimate_ber`` (``ber``).

    The sweep's trials are drawn in stacks (``_stacks``) that run on across
    swept points of one scenario.  Each stack is solved (``solve_stack``)
    with every trial's own gamma and energy cap; in a BER sweep the bits of
    its solvable trials before its first error other than NoTransmitError
    are then simulated (``_map_in_order``), and that error is raised: the
    first, in (value, trial) order, of the designs and the simulations.
    Scores and bit tallies are kept, and aggregated, per swept value.
    """
    points = [_resolve_point(spec, value) for value in spec.values]
    gammas = np.array([gamma for _, gamma, _ in points])
    e_maxes = np.array([e_max for _, _, e_max in points])
    scores = [[] for _ in points]
    tallies = [(0, 0, 0, 0)] * len(points)
    for pairs in _stacks(points):
        scenario = points[pairs[0][0]][0]
        value_index = np.array([vi for vi, _ in pairs])
        rngs = [trial_rng(scenario.seed, vi, ti) for vi, ti in pairs]
        draw = ch.draw_wiretap_trial(scenario, rngs, receivers=spec.receivers)
        stack_scores, outcome = solve_stack(
            spec, draw, gammas[value_index], e_maxes[value_index], rngs)
        errors = outcome.errors
        # The stack's first error that is not NoTransmitError ends the sweep.
        stop = next((t for t, error in enumerate(errors)
                     if error is not None and not isinstance(error, NoTransmitError)), None)
        if ber:
            sending = [t for t in range(len(errors) if stop is None else stop)
                       if errors[t] is None]
            counts = _map_in_order(
                lambda t: _trial_bit_errors(spec, take(outcome, t), take(draw, t),
                                            scenario, rngs[t]),
                sending)
            for t, trial_counts in zip(sending, counts):
                vi = value_index[t]
                tallies[vi] = tuple(a + b for a, b in zip(tallies[vi], trial_counts))
        if stop is not None:
            raise errors[stop]
        for vi in np.unique(value_index):
            scores[vi].append(stack_scores[value_index == vi])
    return ResultTable(rows=tuple(
        _aggregate(spec, value, np.concatenate(rows), e_max, ber=_ber_columns(*tally))
        for value, (_, _, e_max), rows, tally in zip(spec.values, points, scores, tallies)))


def run_sweep(spec):
    """Analytic-SINR sweep over the spec's swept variable."""
    return _sweep(spec, ber=False)


def _count_bit_errors(link, outcome, bits, isi_enabled, rng):
    """Sign-detection errors at the output of the link's max-SINR filter."""
    design, an_cov = outcome.design, outcome.an_cov
    w = ch.max_sinr_filter(link.channel, link.disturbance, design.waveform, an=an_cov)
    out = ch.simulate_received_block(design, link.channel, link.disturbance, bits, w,
                                     an=an_cov, isi_enabled=isi_enabled, rng=rng)
    return int(np.count_nonzero(np.sign(out.real) != bits))


def _map_in_order(fn, items):
    """``[fn(item) for item in items]`` on up to ``_BER_THREADS`` threads,
    the calling one included; none starts for fewer than two items.

    Items are handed out in order, and none after a call has raised, so
    every item before the first that raised has run: that first exception,
    in item order, is raised once every thread is done, as the loop would
    raise it.  ``fn`` must be safe to call from several threads at once.
    """
    results = [None] * len(items)
    failed = []
    lock = threading.Lock()
    handed = 0

    def work():
        nonlocal handed
        while True:
            with lock:
                if failed or handed == len(items):
                    return
                k = handed
                handed += 1
            try:
                results[k] = fn(items[k])
            except BaseException as exc:
                results[k] = exc
                with lock:
                    failed.append(k)

    threads = [threading.Thread(target=work)
               for _ in range(min(_BER_THREADS, len(items)) - 1)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if failed:
        raise results[min(failed)]
    return results


def _trial_bit_errors(spec, outcome, draw, scenario, rng):
    """Simulate one trial's bits: (Bob errors, Bob bits, Eve errors, Eve bits)."""
    n_bits = spec.bits_per_trial
    bits = rng.integers(0, 2, size=n_bits) * 2 - 1
    errors_bob = sum(_count_bit_errors(link, outcome, bits, scenario.isi_enabled, rng)
                     for link in draw.bobs)
    errors_eve = _count_bit_errors(draw.eve, outcome, bits, scenario.isi_enabled, rng)
    return errors_bob, n_bits * len(draw.bobs), errors_eve, n_bits


def _ber_columns(errors_bob, bits_bob, errors_eve, bits_eve):
    """Pooled BER and its binomial standard error; empty with no bits sent."""
    if not bits_bob:
        return {}
    p_bob = errors_bob / bits_bob
    p_eve = errors_eve / bits_eve
    return {
        "bob": p_bob, "bob_ci": float(np.sqrt(p_bob * (1.0 - p_bob) / bits_bob)),
        "eve": p_eve, "eve_ci": float(np.sqrt(p_eve * (1.0 - p_eve) / bits_eve)),
    }


def estimate_ber(spec):
    """Simulation-based BER sweep (sign detection after max-SINR filtering).

    Every receiver applies its own max-SINR filter (the eavesdropper's is
    fully informed, including the AN covariance when present), and its
    outputs are simulated directly (``channel.simulate_received_block``),
    from the draws that make the chip windows and in their order; errors
    are pooled over trials, bits, and intended receivers.
    """
    if spec.bits_per_trial < 1000:
        raise ValidationError(f"bits_per_trial must be >= 1000, got {spec.bits_per_trial}")
    return _sweep(spec, ber=True)


def _render(value):
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{value:.9g}"


def format_results(table):
    """Render a ResultTable as CSV text: fixed header, 9 significant digits."""
    if not table.rows:
        raise ValidationError("refusing to emit an empty result table")
    lines = [",".join(CSV_COLUMNS)]
    for row in table.rows:
        lines.append(",".join(_render(getattr(row, col)) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def emit_results(table, path):
    """Write ``format_results(table)`` to ``path``; return the path."""
    text = format_results(table)
    with open(path, "w", newline="") as handle:
        handle.write(text)
    return path
