"""Spans recorded from outside securewave, and the per-layer metrics.

The tracer replaces public functions at the module attribute each caller
actually looks up: ``from .x import y`` binds ``y`` into the importing
module, so e.g. the generalized eigensolver used by the p2p design is
``securewave.p2p.generalized_eigh``, not ``securewave.kernel``'s.  Each span
records its name, start, end, parent span and the ``(table, value_index,
trial_index)`` of the trial it ran in; spans stay in memory until written.
"""

import importlib
import math
import statistics
import time
from contextlib import contextmanager

# (module, attribute, span name).  The span name's prefix is the layer.
TARGETS = (
    ("securewave.harness", "run_sweep", "harness.run_sweep"),
    ("securewave.harness", "estimate_ber", "harness.estimate_ber"),
    ("securewave.harness", "emit_results", "harness.emit_results"),
    ("securewave.harness", "design_p2p", "p2p.design_p2p"),
    ("securewave.harness", "multicast_design", "sdr.multicast_design"),
    ("securewave.harness", "sum_sinr_design", "sdr.sum_sinr_design"),
    ("securewave.p2p", "eigen_design", "p2p.eigen_design"),
    ("securewave.p2p", "kkt_bisection", "p2p.kkt_bisection"),
    ("securewave.p2p", "generalized_eigh", "kernel.generalized_eigh"),
    ("securewave.sdr", "design_p2p", "p2p.design_p2p"),
    ("securewave.sdr", "solve_sdp", "sdp.solve_sdp"),
    ("securewave.sdr", "hermitian_eig", "kernel.hermitian_eig"),
    ("securewave.an", "min_energy_design", "an.min_energy_design"),
    ("securewave.an", "an_pipeline_single", "an.an_pipeline_single"),
    ("securewave.an", "an_pipeline_multicast", "an.an_pipeline_multicast"),
    ("securewave.an", "an_covariance", "an.an_covariance"),
    ("securewave.an", "hermitian_eig", "kernel.hermitian_eig"),
    ("securewave.an", "left_singular_basis", "kernel.left_singular_basis"),
    # Every public channel function except q_matrix, a type coercion that
    # other modules bind at import and that would only add empty spans.
    ("securewave.channel", "draw_wiretap_trial", "channel.draw_wiretap_trial"),
    ("securewave.channel", "draw_interferer_population", "channel.draw_interferer_population"),
    ("securewave.channel", "draw_multipath_channel", "channel.draw_multipath_channel"),
    ("securewave.channel", "convolution_channel_matrix", "channel.convolution_channel_matrix"),
    ("securewave.channel", "build_disturbance_covariance", "channel.build_disturbance_covariance"),
    ("securewave.channel", "effective_q", "channel.effective_q"),
    ("securewave.channel", "sinr", "channel.sinr"),
    ("securewave.channel", "sinr_with_an", "channel.sinr_with_an"),
    ("securewave.channel", "max_sinr_filter", "channel.max_sinr_filter"),
    ("securewave.channel", "simulate_received_block", "channel.simulate_received_block"),
)
TRIAL_RNG = ("securewave.harness", "trial_rng")
LAYERS = ("channel", "kernel", "p2p", "an", "sdr")


class CoverageError(RuntimeError):
    """A wrapper target is missing, or a layer ran no calls where it must."""


class Tracer:
    """Installs the wrappers and collects spans; one instance per traced pass."""

    def __init__(self):
        self.spans = []          # (name, start, end, parent, trial) or None while open
        self.failed = []         # indices of spans whose call raised
        self.results = {}        # span name -> list of return values kept for metrics
        self.trials = 0
        self._table = -1
        self._trial = None
        self._stack = []
        self._originals = []

    def _wrap(self, name, fn):
        spans, stack, failed = self.spans, self._stack, self.failed
        keep = self.results.setdefault(name, []) if name in _KEPT_RESULTS else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed.append(index)
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self._trial)
            if keep is not None:
                keep.append(_KEPT_RESULTS[name](result))
            return result

        return traced

    def _wrap_trial_rng(self, fn):
        def traced(seed, value_index, trial_index):
            self.trials += 1
            self._trial = (self._table, value_index, trial_index)
            return fn(seed, value_index, trial_index)
        return traced

    def start_table(self, index):
        """Tag the following spans with table ``index`` until its first trial."""
        self._table = index
        self._trial = None

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        targets = list(TARGETS) + [TRIAL_RNG + (None,)]
        try:
            for module_name, attr, name in targets:
                module = importlib.import_module(module_name)
                if not callable(getattr(module, attr, None)):
                    raise CoverageError(
                        f"trace target {module_name}.{attr} is missing; update "
                        "perfbench/tracing.py TARGETS to where callers look it up")
                original = getattr(module, attr)
                self._originals.append((module, attr, original))
                wrapper = (self._wrap_trial_rng(original) if name is None
                           else self._wrap(name, original))
                setattr(module, attr, wrapper)
            yield self
        finally:
            while self._originals:
                module, attr, original = self._originals.pop()
                setattr(module, attr, original)
            self._trial = None


def _sdr_method(result):
    design, _bound = result
    return design.info["method"]


_KEPT_RESULTS = {
    "sdp.solve_sdp": lambda solution: solution.iterations,
    "sdr.multicast_design": _sdr_method,
}


def counts(tracers):
    """Exact counts over a list of traced passes: calls per span name, trials,
    raised calls, the kept results, and the pencil solves under bisection."""
    calls, failed, results = {}, [], {}
    trials = pencils = 0
    for tracer in tracers:
        spans = tracer.spans
        for name, _start, _end, parent, _trial in spans:
            calls[name] = calls.get(name, 0) + 1
            if name == "kernel.generalized_eigh" and parent >= 0 \
                    and spans[parent][0] == "p2p.kkt_bisection":
                pencils += 1
        trials += tracer.trials
        failed += [spans[i][0] for i in tracer.failed]
        for name, kept in tracer.results.items():
            results.setdefault(name, []).extend(kept)
    return {"calls": calls, "trials": trials, "failed": sorted(failed),
            "results": results, "bisection_pencils": pencils,
            "passes": len(tracers)}


def check_coverage(cycle, workload):
    """Fail loudly when a span the workload is chosen for recorded no calls."""
    missing = [name for name in workload.dominant if not cycle["calls"].get(name)]
    if not cycle["trials"]:
        missing.append("harness.trial_rng")
    if missing:
        raise CoverageError(
            f"workload {workload.name} recorded zero calls for {', '.join(missing)}; "
            "a refactor moved the code these wrap, so the trace would call it free")


def _pct(values, q):
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered) / 100)) - 1]


def layer_metrics(tracers, cycle, no_transmit_trials, overhead_frac, config_parse_s):
    """Per-layer metrics: durations pool over every traced pass, while the
    counts in ``cycle`` (from ``counts`` over one cycle of input sets) are
    exact and repeat between runs at one seed."""
    durations, self_time = {}, {}
    pencil_self = 0.0
    total = 0.0
    for tracer in tracers:
        spans = tracer.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _trial in spans:
            if parent >= 0:
                child[parent] += end - start
        for index, (name, start, end, parent, _trial) in enumerate(spans):
            own = end - start - child[index]
            durations.setdefault(name, []).append(end - start)
            self_time[name] = self_time.get(name, 0.0) + own
            if parent < 0:
                total += end - start
            if name == "kernel.generalized_eigh" and parent >= 0 \
                    and spans[parent][0] == "p2p.kkt_bisection":
                pencil_self += own

    calls = cycle["calls"]
    trials = cycle["trials"]
    iterations = cycle["results"].get("sdp.solve_sdp", [])
    methods = cycle["results"].get("sdr.multicast_design", [])

    def n(name):
        return calls.get(name, 0)

    def stat(name, q, scale):
        values = durations.get(name)
        return _pct(values, q) * scale if values else 0.0

    def share(seconds):
        return seconds / total if total else 0.0

    layer_self = {layer: sum(t for name, t in self_time.items() if name.startswith(layer + "."))
                  for layer in LAYERS}
    harness_self = sum(self_time.get(name, 0.0) for name in
                       ("harness.run_sweep", "harness.estimate_ber"))
    sdp_seconds = sum(durations.get("sdp.solve_sdp", []))
    sdp_iterations = sum(iterations) * len(tracers) / cycle["passes"]
    us, ms = 1e6, 1e3
    metrics = {
        "channel.draw_wiretap_trial.calls": n("channel.draw_wiretap_trial"),
        "channel.draw_wiretap_trial.us_p50": stat("channel.draw_wiretap_trial", 50, us),
        "channel.draw_wiretap_trial.us_p99": stat("channel.draw_wiretap_trial", 99, us),
        "channel.draw_wiretap_trial.self_share": share(self_time.get("channel.draw_wiretap_trial", 0.0)),
        "channel.effective_q.calls": n("channel.effective_q"),
        "channel.effective_q.us_p50": stat("channel.effective_q", 50, us),
        "channel.sinr_with_an.us_p50": stat("channel.sinr_with_an", 50, us),
        "channel.simulate_received_block.calls": n("channel.simulate_received_block"),
        "channel.simulate_received_block.ms_p50": stat("channel.simulate_received_block", 50, ms),
        "channel.simulate_received_block.self_share": share(self_time.get("channel.simulate_received_block", 0.0)),
        "channel.max_sinr_filter.us_p50": stat("channel.max_sinr_filter", 50, us),
        "kernel.generalized_eigh.calls": n("kernel.generalized_eigh"),
        "kernel.generalized_eigh.us_p50": stat("kernel.generalized_eigh", 50, us),
        "kernel.generalized_eigh.self_share": share(self_time.get("kernel.generalized_eigh", 0.0)),
        "kernel.generalized_eigh.bisection_self_share": share(pencil_self),
        "kernel.hermitian_eig.calls": n("kernel.hermitian_eig"),
        "kernel.hermitian_eig.us_p50": stat("kernel.hermitian_eig", 50, us),
        "kernel.left_singular_basis.us_p50": stat("kernel.left_singular_basis", 50, us),
        "p2p.eigen_design.calls": n("p2p.eigen_design"),
        "p2p.eigen_design.us_p50": stat("p2p.eigen_design", 50, us),
        "p2p.kkt_bisection.calls": n("p2p.kkt_bisection"),
        "p2p.kkt_bisection.ms_p50": stat("p2p.kkt_bisection", 50, ms),
        "p2p.kkt_bisection.ms_p99": stat("p2p.kkt_bisection", 99, ms),
        "p2p.pencil_solves_per_bisection":
            cycle["bisection_pencils"] / n("p2p.kkt_bisection") if n("p2p.kkt_bisection") else 0.0,
        "p2p.bisection_share": n("p2p.kkt_bisection") / trials if trials else 0.0,
        "an.min_energy_design.us_p50": stat("an.min_energy_design", 50, us),
        "an.an_covariance.us_p50": stat("an.an_covariance", 50, us),
        "an.an_pipeline_multicast.us_p50": stat("an.an_pipeline_multicast", 50, us),
        "sdp.solve_sdp.calls": n("sdp.solve_sdp"),
        "sdp.solve_sdp.ms_p50": stat("sdp.solve_sdp", 50, ms),
        "sdp.solve_sdp.ms_p99": stat("sdp.solve_sdp", 99, ms),
        "sdp.solve_sdp.self_share": share(self_time.get("sdp.solve_sdp", 0.0)),
        "sdp.solve_sdp.failed": cycle["failed"].count("sdp.solve_sdp"),
        "sdp.iterations_per_solve": statistics.fmean(iterations) if iterations else 0.0,
        "sdp.ms_per_iteration": sdp_seconds * ms / sdp_iterations if sdp_iterations else 0.0,
        "sdr.multicast_design.ms_p50": stat("sdr.multicast_design", 50, ms),
        "sdr.extraction_share": methods.count("extraction") / len(methods) if methods else 0.0,
        "sdr.sum_sinr_design.us_p50": stat("sdr.sum_sinr_design", 50, us),
        "harness.self_share": share(harness_self),
        "harness.no_transmit_share": no_transmit_trials / trials if trials else 0.0,
        "harness.emit_results.ms": stat("harness.emit_results", 50, ms),
        "config.parse_ms": config_parse_s * ms,
        "trace.overhead_frac": overhead_frac,
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = share(layer_self[layer])
    return metrics


def write_spans(tracers, path):
    """Write every span as CSV, times in microseconds from the first span."""
    origin = min((s[1] for t in tracers for s in t.spans), default=0.0)
    with open(path, "w") as handle:
        handle.write("pass,index,name,start_us,end_us,parent,table,value_index,trial_index\n")
        for number, tracer in enumerate(tracers):
            for index, (name, start, end, parent, trial) in enumerate(tracer.spans):
                table, vi, ti = trial if trial is not None else ("", "", "")
                handle.write(f"{number},{index},{name},{(start - origin) * 1e6:.3f},"
                             f"{(end - origin) * 1e6:.3f},{parent},{table},{vi},{ti}\n")


def unit(name):
    """Unit of a per-layer metric, read from its name."""
    last = name.rsplit(".", 1)[-1]
    if last.startswith("us_"):
        return "us"
    if last == "ms" or last.startswith("ms_") or last.endswith("_ms"):
        return "ms"
    if last in ("calls", "failed", "pencil_solves_per_bisection", "iterations_per_solve"):
        return "count"
    return "ratio"
