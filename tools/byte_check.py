"""Check that two source trees print byte-identical CLI outputs.

Usage: python tools/byte_check.py PARENT_TREE CHANGE_TREE

Runs every command in ``COMMANDS`` and ``FAILING`` once in each tree (its
own ``src`` and ``configs``, one BLAS thread), compares stdout, stderr and
exit code, and prints one line per command.  A ``simulate-ber`` command,
whose trials run on every CPU the process may use, runs a second time in
the change tree pinned to one CPU, and must print the same there.  Exits 0
when every output is identical, every ``COMMANDS`` command succeeded in
both trees and every ``FAILING`` command failed in both, 1 otherwise, after
a short diff of the first differing lines of each (or the error of a
command that failed alike in both: identical failures show nothing).
"""

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# securewave CLI arguments, run from the tree's root.
COMMANDS = (
    ("sweep", "configs/eigen-known-csi.cfg", "--trials", "30"),
    ("sweep", "configs/an-unknown-csi.cfg", "--trials", "30"),
    ("sweep", "configs/min-energy-no-an.cfg", "--trials", "30"),
    ("sweep", "configs/sum-sinr.cfg", "--trials", "30"),
    ("sweep", "configs/multicast-sdr.cfg", "--trials", "3"),
    ("sweep", "configs/multicast-min-energy-an.cfg", "--trials", "3"),
    ("sweep", "configs/eigen-known-csi.cfg", "--emax", "3", "--trials", "40"),
    # A master seed above 2^64 sets the high word of every stream's key.
    ("sweep", "configs/eigen-known-csi.cfg", "--trials", "5", "--seed", "18446744073709551621"),
    # Sum-SINR designs at a tight cap: some trials take the stacked
    # root-find, next to silent ones.
    ("sweep", "configs/sum-sinr.cfg", "--emax", "1", "--trials", "20"),
    # Enough simulated bits (10^4 per trial and link) that a decision
    # flipped by roundoff in the receiver's output would show in a BER cell.
    ("simulate-ber", "configs/ber-uncoded.cfg", "--trials", "20"),
    ("simulate-ber", "configs/an-unknown-csi.cfg", "--trials", "10"),
    ("simulate-ber", "configs/multicast-min-energy-an.cfg", "--trials", "4"),
    # A cap of 8 puts silent and AN-sending SDR trials in one stack.
    ("sweep", "configs/multicast-min-energy-an.cfg", "--emax", "8", "--trials", "6"),
    ("simulate-ber", "configs/multicast-min-energy-an.cfg", "--emax", "8", "--trials", "2"),
    ("design-p2p", "configs/eigen-known-csi.cfg"),
    # A cap-active design: its JSON prints the root-find's energy, Eve's
    # SINR and waveform at full precision, where the sweeps print 9 digits.
    ("design-p2p", "configs/eigen-known-csi.cfg", "--seed", "4", "--emax", "5"),
    ("design-p2p", "configs/an-unknown-csi.cfg"),
    ("design-multicast", "configs/multicast-sdr.cfg"),
    ("design-multicast", "configs/multicast-min-energy-an.cfg"),
    # No config file: every scenario and sweep default applies.
    ("sweep", "--trials", "20"),
    ("design-p2p",),
    ("design-multicast", "--k", "2", "--l", "8"),
    ("sweep", "--mode", "sum-sinr", "--k", "3", "--trials", "10"),
    # The only command here whose SDR solution is not rank-1, so it takes
    # the Gaussian-randomization branch.
    ("design-multicast", "--mode", "multicast-sdr", "--k", "6", "--l", "6", "--gamma-db", "10",
     "--emax", "20", "--seed", "1"),
    # A min-energy design capped at the least energy the relaxation reaches:
    # the main solve stalls there, and the capless program answers it.
    ("design-multicast", "--mode", "multicast-min-energy-an", "--k", "2", "--l", "8",
     "--seed", "3", "--emax", "7.405883810106468"),
    # Eve's SINR at that same edge: the least-energy program's matrix
    # answers it too.
    ("design-multicast", "--mode", "multicast-sdr", "--k", "2", "--l", "8",
     "--seed", "3", "--emax", "7.4058838038841905"),
    # Eve's SINR 0.1% above the least energy: no waveform from its
    # relaxation fits the cap, and the least-energy design answers.
    ("design-multicast", "--mode", "multicast-sdr", "--k", "5", "--l", "16",
     "--seed", "1", "--emax", "6.070609502120958"),
    # The seed-3 min-energy cap edge as the first value of an emax sweep: its
    # trial (0, 0) is that design's draw, and the least-energy program
    # answers it inside a stack of trials that converge.
    ("sweep", "CAP_EDGE.cfg", "--trials", "4"),
)

# Configs written for the run, by the name that stands for their path in an
# argument list.  ``SINGULAR_R``'s noise is so small that 11 of the first 20
# trials (0, 2, 3, 7, ...) have a singular disturbance covariance R.
SINGULAR_R = "SINGULAR_R.cfg"
CONFIGS = {
    SINGULAR_R: "schema_version = 1\nnoise_variance = 1e-20\ninterferer_count = 9:10\nseed = 1\n",
    "CAP_EDGE.cfg": "schema_version = 1\nmode = multicast-min-energy-an\nk = 2\nl = 8\nseed = 3\n"
                    "sweep = emax\nsweep_values = 7.405883810106468,8,10\n",
}

# Commands that must fail alike in both trees: same exit code, stdout and
# stderr.  A sweep over ``SINGULAR_R`` must give the first singular trial's
# error.
FAILING = (
    ("sweep", SINGULAR_R, "--trials", "20"),
    ("sweep", SINGULAR_R, "--trials", "20", "--mode", "an-unknown-csi"),
    ("sweep", SINGULAR_R, "--trials", "20", "--mode", "min-energy-no-an"),
    ("sweep", SINGULAR_R, "--trials", "20", "--mode", "sum-sinr", "--k", "3"),
    ("sweep", SINGULAR_R, "--trials", "20", "--mode", "multicast-min-energy-an", "--k", "2"),
    ("simulate-ber", SINGULAR_R, "--trials", "20", "--mode", "an-unknown-csi"),
    ("design-p2p", SINGULAR_R),
    # Infeasible designs: NoTransmitError, exit 3.
    ("design-p2p", "--gamma-db", "40", "--emax", "1"),
    ("design-multicast", "--gamma-db", "40", "--emax", "1", "--k", "2", "--l", "8"),
    # A cap inside the least-energy program's precision band (between its
    # bound and its trace): NumericalError, exit 3.
    ("design-multicast", "--mode", "multicast-min-energy-an", "--k", "2", "--l", "8",
     "--seed", "6", "--emax", "5.118895747713758"),
    # A relaxation rank-1 only to roundoff at its least energy: its top
    # eigenvector needs more than the cap, NoTransmitError, exit 3.
    ("design-multicast", "--mode", "multicast-min-energy-an", "--k", "2", "--l", "8",
     "--seed", "21", "--emax", "7.58761426131615"),
    # AN for K receivers needs L >= K + 1 chips: a K >= L AN spec is invalid
    # input (DimensionError, exit 2) even when no trial transmits.
    ("sweep", "--mode", "multicast-min-energy-an", "--k", "8", "--l", "8", "--gamma-db", "40",
     "--trials", "3"),
    ("design-multicast", "--mode", "multicast-min-energy-an", "--k", "8", "--l", "8",
     "--gamma-db", "40"),
)

ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}


# The CPU a pinned rerun runs on; None where the platform cannot pin.
ONE_CPU = {min(os.sched_getaffinity(0))} if hasattr(os, "sched_setaffinity") else None


def run(tree, args, cpus=None):
    """(exit code, stdout, stderr) of ``securewave ARGS`` run in ``tree``,
    on the CPUs in ``cpus`` when given (the child pins itself)."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree, "src")), **ONE_THREAD)
    pin = None if cpus is None else lambda: os.sched_setaffinity(0, cpus)
    done = subprocess.run([sys.executable, "-m", "securewave.cli", *args], cwd=tree,
                          env=env, capture_output=True, text=True, check=False,
                          preexec_fn=pin)
    return done.returncode, done.stdout, done.stderr


def print_diff(old, new, labels, out):
    """Print the first lines of the diff of each of exit code, stdout and
    stderr that differs between ``old`` and ``new``."""
    for part, old_text, new_text in zip(("exit", "stdout", "stderr"), old, new):
        if old_text != new_text:
            diff = difflib.unified_diff(str(old_text).splitlines(), str(new_text).splitlines(),
                                        f"{labels[0]} {part}", f"{labels[1]} {part}",
                                        lineterm="")
            for text in list(diff)[:12]:
                print(f"    {text}", file=out)


def compare(parent, change, commands=COMMANDS, out=sys.stdout, failing=()):
    """Run ``commands`` and ``failing`` in both trees; return those whose
    outputs differ, between the trees or (``simulate-ber``) between the
    change tree's run and its run on ``ONE_CPU``, the ``commands`` that
    failed and the ``failing`` that succeeded.  A name of ``CONFIGS`` in an
    argument list stands for the path of a config holding its text."""
    differing = []
    with tempfile.TemporaryDirectory() as scratch:
        paths = {name: Path(scratch, name) for name in CONFIGS}
        for name, path in paths.items():
            path.write_text(CONFIGS[name])
        for args in commands + failing:
            must_fail = args in failing
            given = [str(paths.get(arg, arg)) for arg in args]
            before, after = run(parent, given), run(change, given)
            pinned = (run(change, given, ONE_CPU) if args[0] == "simulate-ber" and ONE_CPU
                      else after)
            if before != after:
                status = "DIFFERS"
            elif pinned != after:
                status = "ONE-CPU"
            elif (before[0] != 0) != must_fail:
                status = "PASSES" if must_fail else "FAILS"
            else:
                status = "fails" if must_fail else "same"
            print(f"{status:<9}{' '.join(args)}", file=out)
            if status in ("same", "fails"):
                continue
            differing.append(args)
            if status == "DIFFERS":
                print_diff(before, after, ("parent", "change"), out)
            elif status == "ONE-CPU":
                print_diff(after, pinned, ("change", "one-CPU"), out)
            else:
                print(f"    exit {before[0]}: {before[2].strip()}", file=out)
    return differing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="root of the reference source tree")
    parser.add_argument("change", help="root of the source tree under test")
    args = parser.parse_args(argv)
    differing = compare(args.parent, args.change, failing=FAILING)
    passed = sum(args not in differing for args in COMMANDS)
    failed = sum(args not in differing for args in FAILING)
    print(f"{passed}/{len(COMMANDS)} outputs identical and successful, "
          f"{failed}/{len(FAILING)} failures identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
