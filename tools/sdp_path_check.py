"""Check that two source trees solve the same SDPs bit for bit.

Usage: python tools/sdp_path_check.py PARENT_TREE CHANGE_TREE

Solves two sets of multicast SDP relaxations in each tree (its own ``src``,
one BLAS thread, one subprocess per tree), as stacks of lifted programs:

- shipped caps: trial (value, 0) of the master seeds k 2^32 + 12345,
  k < 240, at each of the six swept values of both shipped multicast
  configs, in stacks of 100 (2880 solves);
- cap edge: draws 0-29 of K = 2/L = 8 and K = 5/L = 16 at 6 dB, under both
  objectives, with caps E*(1 + d) around each draw's least energy E*, in
  stacks of 50 (960 solves).

Compares each solve's matrix, objective, bound, gap, violation, iteration
count, least-energy flag and error (type, message and diagnostics) bit for
bit, prints per set the identical count and the count of each outcome (in
the change tree) and the first differing solves, and exits 0 when every
solve is identical, 1 otherwise.
"""

import argparse
import collections
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np

from byte_check import ONE_THREAD

TOOLS = Path(__file__).resolve().parent
SHIPPED = ("configs/multicast-sdr.cfg", "configs/multicast-min-energy-an.cfg")
SHIPPED_SEEDS = 240
CAP_EDGE_SIZES = ((2, 8), (5, 16))
CAP_EDGE_DRAWS = 30
CAP_EDGE_DELTAS = (-1e-2, -1e-9, 0.0, 1e-10, 1e-8, 1e-6, 1e-3, 10.0)
FIELDS = ("matrix", "objective", "bound", "duality_gap", "max_violation", "trial_iterations",
          "least_energy")


def bits(value):
    """The bytes of a number or array as float64 (complex128 when complex)."""
    value = np.asarray(value)
    return value.astype(complex if np.iscomplexobj(value) else float).tobytes()


def solve(lifted, labels, size):
    """(label, outcome, record) of each lifted program, solved in stacks of
    ``size``; ``record`` holds the bytes of every compared field."""
    from securewave.sdp import SdpProblem, solve_sdp
    from securewave.util import take

    rows = []
    for start in range(0, len(lifted), size):
        chunk = lifted[start : start + size]
        solution = solve_sdp(SdpProblem(
            objective=np.stack([p.objective for p in chunk]),
            constraints=tuple((np.stack([p.constraints[k][0] for p in chunk]),
                               np.array([p.constraints[k][1] for p in chunk]))
                              for k in range(len(chunk[0].constraints))),
            trace_cap=np.array([p.trace_cap for p in chunk])))
        for t, label in enumerate(labels[start : start + size]):
            one, error = take(solution, t), solution.errors[t]
            record = {name: bits(getattr(one, name)) for name in FIELDS}
            if error is None:
                outcome = "least-energy" if one.least_energy else "converged"
            else:
                outcome = type(error).__name__
                record["error"] = (outcome, str(error),
                                   {key: bits(value) for key, value in error.diagnostics.items()})
            rows.append((label, outcome, record))
    return rows


def shipped_caps(seeds):
    """Trial (value, 0) of each seed at every swept value of both configs."""
    import securewave.channel as ch
    from securewave.config import load_config_file, sweep_spec_from_config
    from securewave.harness import _resolve_point, trial_rng
    from securewave.sdr import MulticastProblem, build_lifted_sdp

    lifted, labels = [], []
    for path in SHIPPED:
        for k in range(seeds):
            seed = k * 2**32 + 12345
            spec = sweep_spec_from_config(load_config_file(path), {"seed": seed})
            for vi, value in enumerate(spec.values):
                scenario, gamma, e_max = _resolve_point(spec, value)
                trial = ch.draw_wiretap_trial(scenario, trial_rng(seed, vi, 0),
                                              receivers=spec.receivers)
                lifted.append(build_lifted_sdp(MulticastProblem(
                    q_bobs=tuple(link.q for link in trial.bobs),
                    gammas=np.full(spec.receivers, gamma), e_max=e_max,
                    q_eve=trial.eve.q if spec.mode == "multicast-sdr" else None)))
                labels.append(f"{path} seed {seed} value {value}")
    return solve(lifted, labels, 100)


def cap_edge(draws):
    """Each size's draws, both objectives, at caps around E*."""
    import securewave.channel as ch
    from securewave.sdp import _solve_trace_form
    from securewave.sdr import MulticastProblem, build_lifted_sdp

    rows = []
    for receivers, chips in CAP_EDGE_SIZES:
        gammas = np.full(receivers, 10 ** 0.6)
        lifted, labels = [], []
        for seed in range(draws):
            trial = ch.draw_wiretap_trial(ch.ScenarioConfig(chips=chips, paths=3),
                                          np.random.default_rng(seed), receivers=receivers)
            q_bobs = tuple(link.q for link in trial.bobs)
            # E*: the trace of the capless min-energy program.
            least = _solve_trace_form(np.stack(q_bobs)[None], (2.0 * gammas)[None],
                                      np.eye(chips)[None])
            # A tree from before the per-trial arrays returns a list of
            # per-trial dicts; drop this branch once no compared parent does.
            least_y = least[0]["Y"] if isinstance(least, list) else least["Y"][0]
            e_star = float(np.trace(least_y).real)
            for objective, q_eve in (("min-energy", None), ("min-eve", trial.eve.q)):
                for d in CAP_EDGE_DELTAS:
                    lifted.append(build_lifted_sdp(MulticastProblem(
                        q_bobs=q_bobs, gammas=gammas, e_max=e_star * (1.0 + d), q_eve=q_eve)))
                    labels.append(f"K={receivers} L={chips} draw {seed} {objective} d={d:g}")
        rows += solve(lifted, labels, 50)
    return rows


def emit(draws=None):
    """Write both sets' rows to stdout as a pickle; ``draws`` cuts each set
    to its first seeds or draws."""
    sets = {"shipped caps": shipped_caps(draws or SHIPPED_SEEDS),
            "cap edge": cap_edge(draws or CAP_EDGE_DRAWS)}
    sys.stdout.buffer.write(pickle.dumps(sets))


def run(tree, draws=None):
    """The sets solved by ``tree``'s sources in a child process."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree, "src")), **ONE_THREAD)
    code = f"import sys; sys.path.insert(0, {str(TOOLS)!r}); import sdp_path_check; " \
           f"sdp_path_check.emit({draws!r})"
    done = subprocess.run([sys.executable, "-c", code], cwd=tree, env=env, capture_output=True,
                          check=True)
    return pickle.loads(done.stdout)


def compare(parent, change, draws=None, out=sys.stdout):
    """Solve both sets in both trees and print the comparison; return the
    labels of the solves that differ."""
    before, after = run(parent, draws), run(change, draws)
    differing = []
    for name, rows in after.items():
        moved = [(old, new) for old, new in zip(before[name], rows) if old != new]
        outcomes = collections.Counter(outcome for _, outcome, _ in rows)
        print(f"{name}: {len(rows) - len(moved)}/{len(rows)} identical; "
              + ", ".join(f"{outcome} {count}" for outcome, count in sorted(outcomes.items())),
              file=out)
        for (label, old, old_record), (_, new, new_record) in moved[:5]:
            fields = [key for key in {**old_record, **new_record}
                      if old_record.get(key) != new_record.get(key)]
            print(f"    {label}: parent {old}, change {new}; differs in {', '.join(fields)}",
                  file=out)
        differing += [label for (label, _, _), _ in moved]
    return differing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="root of the reference source tree")
    parser.add_argument("change", help="root of the source tree under test")
    args = parser.parse_args(argv)
    return 1 if compare(args.parent, args.change) else 0


if __name__ == "__main__":
    sys.exit(main())
