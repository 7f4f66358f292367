"""Command-line interface: design, BER simulation, and sweep subcommands.

Exit codes: 0 success, 2 invalid input or config, 3 infeasible or failed
design/solve, 1 unexpected error.  Failures print a single machine-readable
JSON line on stderr: {"error": <exception class>, "detail": <message>}.
"""

import argparse
import json
import sys

import numpy as np

from . import an as an_design
from . import channel as ch
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
    trial_rng,
)
from .p2p import P2pProblem, design_p2p
from .sdr import MulticastProblem, multicast_design, sum_sinr_design
from .util import linear_to_db


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


def _waveform_payload(design):
    return [[float(x.real), float(x.imag)] for x in design.waveform]


def _write_text(text, out):
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", newline="") as handle:
            handle.write(text)


def _cmd_design_p2p(args):
    spec = _spec_from_args(args, "eigen-known-csi")
    if spec.mode not in SINGLE_RECEIVER_MODES:
        raise ValidationError(f"design-p2p supports {SINGLE_RECEIVER_MODES}, got {spec.mode!r}")
    gamma = 10.0 ** (spec.gamma_db / 10.0)
    rng = trial_rng(spec.scenario.seed, 0, 0)
    draw = ch.draw_wiretap_trial(spec.scenario, rng, receivers=1)
    bob = draw.bobs[0]
    an_cov = None
    if spec.mode == "eigen-known-csi":
        design = design_p2p(P2pProblem(q_bob=bob.q, q_eve=draw.eve.q,
                                       gamma=gamma, e_max=spec.e_max))
    elif spec.mode == "min-energy-no-an":
        design = an_design.min_energy_design(bob.q, gamma, spec.e_max)
    else:
        design, an_cov = an_design.an_pipeline_single(bob.q, gamma, spec.e_max)
    if an_cov is None:
        sinr_bob = ch.sinr(bob.q, design.waveform, design.energy)
        sinr_eve = ch.sinr(draw.eve.q, design.waveform, design.energy)
    else:
        sinr_bob = ch.sinr_with_an(bob.channel, bob.disturbance, an_cov,
                                   design.waveform, design.energy)
        sinr_eve = ch.sinr_with_an(draw.eve.channel, draw.eve.disturbance,
                                   an_cov, design.waveform, design.energy)
    payload = {
        "mode": spec.mode,
        "branch": design.branch,
        "energy": design.energy,
        "an_budget": an_cov.budget if an_cov is not None else 0.0,
        "sinr_bob_db": float(linear_to_db(sinr_bob)),
        "sinr_eve_db": float(linear_to_db(sinr_eve)),
        "waveform": _waveform_payload(design),
    }
    _write_text(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return 0


def _cmd_design_multicast(args):
    spec = _spec_from_args(args, "multicast-sdr")
    if spec.mode in SINGLE_RECEIVER_MODES:
        raise ValidationError(
            f"design-multicast supports multicast modes, got {spec.mode!r}"
        )
    gamma = 10.0 ** (spec.gamma_db / 10.0)
    rng = trial_rng(spec.scenario.seed, 0, 0)
    draw = ch.draw_wiretap_trial(spec.scenario, rng, receivers=spec.receivers)
    q_bobs = [link.q for link in draw.bobs]
    an_cov = None
    bound = None
    if spec.mode == "sum-sinr":
        design = sum_sinr_design(q_bobs, draw.eve.q, gamma, spec.e_max)
    else:
        problem = MulticastProblem(
            q_bobs=tuple(q_bobs), gammas=np.full(spec.receivers, gamma),
            e_max=spec.e_max, q_eve=draw.eve.q,
            samples=spec.randomization_samples,
        )
        sdr_mode = "min-eve" if spec.mode == "multicast-sdr" else "min-energy"
        design, bound = multicast_design(problem, sdr_mode, rng=rng)
        if spec.mode == "multicast-min-energy-an":
            an_cov = an_design.an_pipeline_multicast(design, q_bobs, spec.e_max)
    if an_cov is None:
        sinr_bobs = [ch.sinr(q, design.waveform, design.energy) for q in q_bobs]
        sinr_eve = ch.sinr(draw.eve.q, design.waveform, design.energy)
    else:
        sinr_bobs = [
            ch.sinr_with_an(link.channel, link.disturbance, an_cov,
                            design.waveform, design.energy)
            for link in draw.bobs
        ]
        sinr_eve = ch.sinr_with_an(draw.eve.channel, draw.eve.disturbance,
                                   an_cov, design.waveform, design.energy)
    payload = {
        "mode": spec.mode,
        "branch": design.branch,
        "energy": design.energy,
        "an_budget": an_cov.budget if an_cov is not None else 0.0,
        "sdp_lower_bound": bound,
        "sinr_bobs_db": [float(linear_to_db(x)) for x in sinr_bobs],
        "sinr_eve_db": float(linear_to_db(sinr_eve)),
        "waveform": _waveform_payload(design),
    }
    _write_text(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return 0


def _cmd_sweep(args):
    spec = _spec_from_args(args, "eigen-known-csi")
    _write_text(format_results(run_sweep(spec)), args.out)
    return 0


def _cmd_simulate_ber(args):
    spec = _spec_from_args(args, "eigen-known-csi")
    _write_text(format_results(estimate_ber(spec)), args.out)
    return 0


_COMMANDS = {
    "design-p2p": _cmd_design_p2p,
    "design-multicast": _cmd_design_multicast,
    "simulate-ber": _cmd_simulate_ber,
    "sweep": _cmd_sweep,
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
