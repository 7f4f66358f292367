"""Command-line interface: design, BER simulation, and sweep subcommands.

Exit codes: 0 success, 2 invalid input or config, 3 infeasible or failed
design/solve, 1 unexpected error.  Failures print a single machine-readable
JSON line on stderr: {"error": <exception class>, "detail": <message>}.
"""

import argparse
import json
import sys

from .channel import draw_wiretap_trial
from .config import load_config_file, sweep_spec_from_config
from .errors import (
    NoTransmitError,
    NumericalError,
    SdpInfeasibleError,
    SecureWaveError,
    ValidationError,
)
from .harness import (
    MODES,
    SINGLE_RECEIVER_MODES,
    estimate_ber,
    format_results,
    run_sweep,
    solve_stack,
    trial_rng,
)
from .util import batch_of_one, db_to_linear, linear_to_db


def build_parser():
    parser = argparse.ArgumentParser(
        prog="securewave",
        description="Secure waveform design and Monte Carlo sweeps for "
                    "multipath wiretap channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("design-p2p", "design one single-receiver transmission and print it"),
        ("design-multicast", "design one multicast transmission and print it"),
        ("simulate-ber", "simulated bit-error-rate sweep (CSV output)"),
        ("sweep", "analytic SINR sweep (CSV output)"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", nargs="?", default=None,
                         help="flat key-value config file (defaults apply if omitted)")
        cmd.add_argument("--gamma-db", type=float, default=None,
                         help="intended receiver SINR requirement in dB")
        cmd.add_argument("--l", type=int, default=None, help="waveform length in chips")
        cmd.add_argument("--emax", type=float, default=None, help="per-bit energy cap")
        cmd.add_argument("--k", type=int, default=None, help="number of intended receivers")
        cmd.add_argument("--trials", type=int, default=None, help="Monte Carlo trials per point")
        cmd.add_argument("--seed", type=int, default=None, help="master seed")
        cmd.add_argument("--mode", default=None, choices=MODES, help="design mode")
        cmd.add_argument("--out", default=None, help="output path (stdout if omitted)")
    return parser


def _spec_from_args(args, default_mode):
    values = load_config_file(args.config) if args.config else {"schema_version": "1"}
    overrides = {
        "gamma_db": args.gamma_db,
        "l": args.l,
        "emax": args.emax,
        "k": args.k,
        "trials": args.trials,
        "seed": args.seed,
        "mode": args.mode if args.mode else values.get("mode", default_mode),
    }
    return sweep_spec_from_config(values, overrides)


def _write_text(text, out):
    """Write ``text``, ending in one newline, to stdout or the file ``out``."""
    if not text.endswith("\n"):
        text += "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as handle:
            handle.write(text)


def _cmd_design(args):
    single = args.command == "design-p2p"
    spec = _spec_from_args(args, "eigen-known-csi" if single else "multicast-sdr")
    if single != (spec.mode in SINGLE_RECEIVER_MODES):
        family = SINGLE_RECEIVER_MODES if single else "multicast modes"
        raise ValidationError(f"{args.command} supports {family}, got {spec.mode!r}")
    rngs = [trial_rng(spec.scenario.seed, 0, 0)]
    draw = draw_wiretap_trial(spec.scenario, rngs, receivers=spec.receivers)
    _, stack = solve_stack(spec, draw, db_to_linear(spec.gamma_db), spec.e_max, rngs)
    outcome = batch_of_one(stack)
    design = outcome.design
    sinr_bobs_db = [float(linear_to_db(x)) for x in outcome.sinr_bob]
    payload = {
        "mode": spec.mode,
        "gamma_db": spec.gamma_db,
        "emax": spec.e_max,
        "branch": design.branch,
        "energy": design.energy,
        "an_budget": outcome.an_budget,
        "sinr_eve_db": float(linear_to_db(outcome.sinr_eve)),
        "waveform": [[float(x.real), float(x.imag)] for x in design.waveform],
    }
    if single:
        payload["sinr_bob_db"] = sinr_bobs_db[0]
    else:
        payload["sdp_lower_bound"] = design.info.get("bound")
        payload["sinr_bobs_db"] = sinr_bobs_db
    _write_text(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return 0


def _cmd_table(args):
    spec = _spec_from_args(args, "eigen-known-csi")
    table = (run_sweep if args.command == "sweep" else estimate_ber)(spec)
    _write_text(format_results(table), args.out)
    return 0


_COMMANDS = {
    "design-p2p": _cmd_design,
    "design-multicast": _cmd_design,
    "simulate-ber": _cmd_table,
    "sweep": _cmd_table,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        _report_error(exc)
        return 2
    except (NoTransmitError, NumericalError, SdpInfeasibleError) as exc:
        _report_error(exc)
        return 3
    except (SecureWaveError, OSError) as exc:
        _report_error(exc)
        return 1


def _report_error(exc):
    sys.stderr.write(
        json.dumps({"error": type(exc).__name__, "detail": str(exc)}) + "\n"
    )


if __name__ == "__main__":
    sys.exit(main())
