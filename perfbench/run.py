"""securewave benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/`` and
the tables come from the shipped ``configs/``.  The loop is closed with one
client: a batch job that waits for each table before starting the next.
A run repeats whole cycles over the workload's input sets, which the seed
fixes, until ``--seconds`` have gone by.  With ``--trace 0`` the end-to-end
metrics are measured untraced; with ``--trace 1`` the per-layer metrics come
from wrapped public functions (see tracing.py), each traced pass preceded by
the same pass untraced to measure the tracing overhead.  The last line of
stdout is the JSON result; the machine record, per-table checks and raw
timings go to ``.bench_out/<workload>/``.
"""

import os

# BLAS is pinned before numpy loads: with OpenBLAS at its default of two
# threads on the 2-core host, ber-isi ran at 0.45x the one-thread
# throughput (see NOTES.md).
BLAS_THREADS = "1"
os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import tracing
from workloads import DEFAULT_SEED, ROOT, WORKLOADS, set_seed, setup

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
OUT = ROOT / ".bench_out"
# Set-up is timed in this many fresh interpreters.
SETUP_PROBES = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class ReferenceKernel:
    """A fixed numpy/scipy computation, timed around every table.

    The shared host's speed swings by up to 2x in phases that can outlast a
    whole run (see NOTES.md).  The kernel slows down with the host, so a
    table's wall time divided by the kernel time measured around it tracks
    the program's own cost; multiplied by ``seconds`` it reads in reference
    seconds, which on an idle core of the reference host approximate wall
    seconds.

    Small dense linear algebra and bulk array arithmetic slow down by
    different factors (~1.8x and ~1.4x in the same slow phase), so each
    workload uses the kind closest to its own work: ``linalg`` runs one of
    each, ``bulk`` two of the bulk part.
    """

    # Kernel time on an idle core of the reference host, a 2-vCPU Intel
    # Xeon KVM guest (numpy 2.4.6, scipy 1.17.1, OpenBLAS at one thread).
    # Fixed, because it defines the unit.
    SECONDS = {"linalg": 2.3e-3, "bulk": 1.3e-3}

    def __init__(self, kind):
        import numpy
        import scipy.linalg

        self.seconds = self.SECONDS[kind]
        self._kind = kind
        self._np = numpy
        self._solve = scipy.linalg.solve_triangular
        rng = numpy.random.default_rng(0)
        x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self._small = x @ x.conj().T + 8.0 * numpy.eye(8)
        self._block = rng.standard_normal((2000, 10)) + 1j * rng.standard_normal((2000, 10))
        self._mix = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))

    def _linalg(self):
        np, a = self._np, self._small
        for _ in range(40):
            low = np.linalg.cholesky(a)
            m = self._solve(low, a, lower=True, check_finite=False)
            _, vectors = np.linalg.eigh(0.5 * (m + m.conj().T))
            sum(float(abs(c)) for c in vectors[:, 0])

    def _bulk(self):
        for _ in range(6):
            y = self._block @ self._mix.T
            y[1:, :2] += y[:-1, 8:]
            self._np.count_nonzero(y.real[:, 0] > 0)

    def __call__(self):
        """Seconds taken by one run of the kernel."""
        start = time.perf_counter()
        if self._kind == "linalg":
            self._linalg()
        else:
            self._bulk()
        self._bulk()
        return time.perf_counter() - start


class Pass:
    """One run of every table of the workload at one master seed.

    Each table is timed from its sweep call until its CSV is written, and
    the reference kernel is timed before the first table and after each.
    """

    def __init__(self, prepared, seed, out_dir, kernel, tracer=None):
        self.seed = seed
        self.times = []
        self.kernel_seconds = kernel.seconds
        self.kernel_times = [kernel()]
        self.outputs = []       # CSV bytes, or None when the table raised
        self.trials = 0
        self.no_transmit = 0
        harness = prepared.harness
        specs = prepared.specs(seed)
        for index, (table, spec) in enumerate(zip(prepared.workload.tables, specs)):
            path = out_dir / f"{table.name}.csv"
            if tracer is not None:
                tracer.start_table(index)
            start = time.perf_counter()
            try:
                result = (harness.estimate_ber if table.ber else harness.run_sweep)(spec)
                if tracer is not None:
                    tracer.start_table(index)   # emission is the table's, not its last trial's
                harness.emit_results(result, path)
            except Exception:
                traceback.print_exc()
                result = None
            self.times.append(time.perf_counter() - start)
            self.kernel_times.append(kernel())
            if result is None:
                self.outputs.append(None)
                continue
            self.outputs.append(path.read_bytes())
            for row in result.rows:
                self.trials += row.n_trials
                self.no_transmit += round((1.0 - row.solvability) * row.n_trials)

    @property
    def seconds(self):
        return sum(self.times)

    @property
    def ref_seconds(self):
        """Table times in reference seconds, each scaled by the mean of the
        kernel times before and after it."""
        k = self.kernel_times
        return sum(t * 2.0 * self.kernel_seconds / (k[i] + k[i + 1])
                   for i, t in enumerate(self.times))


class Checker:
    """Checks every emitted table; repeats of one input set must match bytes.

    A table that raised, or whose CSV breaks a check, has failed, and any
    failed table makes the run incorrect: a raised table's trials and time
    drop out of the throughput, so counting it only in ``failed`` could let
    a regression read as a speed-up.
    """

    def __init__(self, prepared):
        self.prepared = prepared
        self.workload = prepared.workload
        self.seen = {}          # (table, seed) -> (SHA-256, problems) of the first CSV
        self.reports = []       # reference comparisons and every failure
        self.attempted = 0
        self.failed = 0

    def _reference(self, table, seed):
        path = REFERENCE / self.workload.name / f"{table.name}.csv"
        return path.read_bytes() if seed == DEFAULT_SEED else None

    def add(self, run):
        specs = self.prepared.specs(run.seed)
        for table, spec, data in zip(self.workload.tables, specs, run.outputs):
            self.attempted += 1
            identical = None
            if data is None:
                problems = ["raised (traceback on stderr)"]
                self.failed += 1
            else:
                key, digest = (table.name, run.seed), hashlib.sha256(data).digest()
                if key in self.seen:
                    first, problems = self.seen[key]
                    if digest != first:
                        problems = problems + ["CSV differs between passes at one seed"]
                else:
                    identical, problems = checks.check_table(
                        data, spec, table.ber, self._reference(table, run.seed))
                    self.seen[key] = digest, problems
                if problems:
                    self.failed += 1
            if problems or identical is not None:
                self.reports.append({"table": table.name, "seed": run.seed,
                                     "csv_identical": identical, "problems": problems})


def untraced_passes(prepared, seed, out_dir, seconds, checker, kernel):
    """Cycles through the first ``workload.sets`` input sets until
    ``seconds`` have gone by; returns (trials, seconds, reference seconds,
    median kernel seconds) per pass."""
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        for index in range(prepared.workload.sets):
            run = Pass(prepared, set_seed(seed, index), out_dir, kernel)
            checker.add(run)
            passes.append((run.trials, run.seconds, run.ref_seconds,
                           statistics.median(run.kernel_times)))
    return passes


def traced_cycles(prepared, seed, out_dir, seconds, checker, kernel):
    """Cycles through the first ``workload.sets`` input sets, each set run
    untraced and then traced, until ``seconds`` have gone by.

    Returns (tracers grouped by cycle, tracing overhead as a fraction of the
    untraced time, no-transmit trials of one cycle).
    """
    cycles = []
    plain = traced = 0.0
    no_transmit = 0
    deadline = time.perf_counter() + seconds
    while not cycles or time.perf_counter() < deadline:
        cycle = []
        for index in range(prepared.workload.sets):
            run = Pass(prepared, set_seed(seed, index), out_dir, kernel)
            checker.add(run)
            plain += run.ref_seconds
            tracer = tracing.Tracer()
            with tracer.installed():
                run = Pass(prepared, set_seed(seed, index), out_dir, kernel, tracer)
            checker.add(run)
            traced += run.ref_seconds
            cycle.append(tracer)
            if not cycles:
                no_transmit += run.no_transmit
        cycles.append(cycle)
    return cycles, traced / plain - 1.0, no_transmit


def setup_seconds(workload, seed, kernel):
    """Median set-up time, in reference seconds, over fresh interpreters
    started one at a time; also returns the wall-clock samples."""
    scaled, samples = [], []
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload.name, str(seed)]
    for _ in range(SETUP_PROBES):
        before = kernel()
        done = subprocess.run(probe, capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
        scaled.append(samples[-1] * 2.0 * kernel.seconds / (before + kernel()))
    return statistics.median(scaled), samples


def machine_record():
    import numpy
    import scipy

    def blas(module):
        try:
            return module.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError):
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "openblas_numpy": blas(numpy),
        "openblas_scipy": blas(scipy), "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD's commit, or 'unknown' in a checkout without git metadata; git
    does not look above the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    out_dir = OUT / workload.name / f"seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)

    prepared = setup(workload, args.seed)
    checker = Checker(prepared)
    record = {"workload": workload.name, "why": workload.why, "seed": args.seed,
              "trace": args.trace, "machine": machine_record()}

    kernel = ReferenceKernel(workload.kernel)
    if args.trace == 0:
        setup_s, setup_samples = setup_seconds(workload, args.seed, kernel)
        passes = untraced_passes(prepared, args.seed, out_dir, args.seconds, checker, kernel)
        trials = sum(p[0] for p in passes)
        metrics = {
            "trials_per_ref_s": (trials / sum(p[2] for p in passes), "1/ref_s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        record["trials_per_wall_s"] = trials / sum(p[1] for p in passes)
        record["setup_wall_samples_s"] = setup_samples
        record["passes"] = passes
    else:
        cycles, overhead, no_transmit = traced_cycles(
            prepared, args.seed, out_dir, args.seconds, checker, kernel)
        per_cycle = [tracing.counts(cycle) for cycle in cycles]
        tracing.check_coverage(per_cycle[0], workload)
        record["count_mismatch"] = any(c != per_cycle[0] for c in per_cycle[1:])
        tracers = [t for cycle in cycles for t in cycle]
        values = tracing.layer_metrics(tracers, per_cycle[0], no_transmit, overhead,
                                       prepared.config_parse_s)
        metrics = {name: (value, tracing.unit(name)) for name, value in values.items()}
        tracing.write_spans(cycles[0], out_dir / "spans.csv")
        record["cycles"] = len(cycles)
        record["counts"] = per_cycle[0]

    record["tables"] = checker.reports
    record["metrics"] = {name: value for name, (value, _) in metrics.items()}
    (out_dir / f"result-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for key, value in record["machine"].items():
        print(f"# {key}: {value}")
    for report in record["tables"]:
        if report["seed"] == args.seed or report["problems"]:
            print(f"# table {report['table']} seed {report['seed']}: "
                  f"csv_identical={report['csv_identical']} "
                  f"problems={report['problems'] or 'none'}")
    if "trials_per_wall_s" in record:
        print(f"# trials_per_wall_s: {record['trials_per_wall_s']}")
    print(f"# failed_frac: {checker.failed}/{checker.attempted}")
    print(json.dumps({
        "correct": checker.failed == 0 and not record.get("count_mismatch"),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
