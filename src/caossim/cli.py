"""Command-line front end.

Subcommands:
  plan generate|validate|slots   carrier-plan design and audit tables
  simulate <scenario.json>       run a scenario file
  reproduce <preset>             run a packaged preset experiment

Exit codes: 0 success, 1 validation failure or a scenario that needs more
memory than is available, 2 I/O failure.  The output directory can be
forced with the CAOSSIM_OUTDIR environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .freq_plan import available_slots, design_plan, validate_plan
from .runner import PlanRejectedError, run
from .scenario import ScenarioError, load_preset, load_scenario, preset_names, scenario_from_dict

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite positive number")
    return value


def _parse_float_list(text: str) -> list[float]:
    try:
        return [_positive_float(v) for v in text.split(",") if v.strip()]
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"bad frequency list {text!r}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caossim",
        description="Coded-access camera simulator: plan design, scenario runs, presets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="frequency-plan tools")
    plan_sub = plan.add_subparsers(dest="plan_command", required=True)

    gen = plan_sub.add_parser("generate", help="design a power-of-two carrier ladder")
    gen.add_argument("--T", type=_positive_float, required=True, help="slot duration, s")
    gen.add_argument("--p", type=int, required=True, help="sample-count exponent (Q = 2^p)")
    gen.add_argument("--m", type=int, required=True, help="base exponent (f1 = 2^(m-1) * delta_f)")
    gen.add_argument("--P", type=int, required=True, help="number of channels")
    gen.add_argument("--json", action="store_true", help="print machine-readable plan")

    val = plan_sub.add_parser("validate", help="audit an explicit frequency set")
    val.add_argument("--df", type=_positive_float, required=True, help="spectral resolution, Hz")
    val.add_argument("--fs", type=_positive_float, default=65536.0, help="sample rate, Sps")
    val.add_argument(
        "-f", "--frequencies", type=_parse_float_list, required=True,
        help="comma-separated carrier list, Hz",
    )

    slots = plan_sub.add_parser("slots", help="available even-multiple carrier slots")
    slots.add_argument("--fa", type=_positive_float, required=True, help="base carrier, Hz")
    slots.add_argument("--used", type=_parse_float_list, required=True)
    slots.add_argument("--horizon", type=int, default=8, help="largest multiple of fa")

    sim = sub.add_parser("simulate", help="run a scenario file")
    sim.add_argument("scenario", help="path to a scenario JSON document")
    sim.add_argument("--outdir", default=None)
    sim.add_argument("--permissive", action="store_true",
                     help="run an invalid plan anyway to demonstrate crosstalk")
    sim.add_argument("--log-display", action="store_true",
                     help="also write a log10-scaled PGM rendering")

    rep = sub.add_parser("reproduce", help="run a packaged preset")
    rep.add_argument("preset", nargs="?", help=f"one of: {', '.join(preset_names())}")
    rep.add_argument("--list", action="store_true", help="list available presets")
    rep.add_argument("--outdir", default=None)
    rep.add_argument("--log-display", action="store_true")

    return parser


def _cmd_plan(args: argparse.Namespace) -> int:
    if args.plan_command == "generate":
        plan = design_plan(args.T, args.p, args.m, args.P)
        note = validate_plan(plan.channels, plan.delta_f, plan.fs).mains_guard_note()
        if note:
            print(f"warning: {note}", file=sys.stderr)
        if args.json:
            print(json.dumps(dataclasses.asdict(plan), indent=2, sort_keys=True))
        else:
            print(f"delta_f={plan.delta_f:g} Hz  fs={plan.fs:g} Sps  Q={plan.Q}  T={plan.T:g} s")
            print("channels (Hz): " + ", ".join(f"{f:g}" for f in plan.channels))
            print("bins: " + ", ".join(str(b) for b in plan.bins))
        return EXIT_OK
    if args.plan_command == "validate":
        report = validate_plan(args.frequencies, args.df, args.fs)
        print(report.summary())
        return EXIT_OK if report.passed else EXIT_VALIDATION
    if args.plan_command == "slots":
        avail = available_slots(args.fa, args.used, args.horizon)
        print("used (Hz): " + ", ".join(f"{f:g}" for f in args.used))
        print("available (Hz): " + (", ".join(f"{f:g}" for f in avail) or "none"))
        return EXIT_OK
    raise AssertionError(args.plan_command)


def _apply_cli_flags(scenario, args):
    """The scenario with each given flag's key set, through the parser, which rejects a
    key the scenario's mode does not read."""
    flags = {key: True for key in ("permissive", "log_display") if getattr(args, key, False)}
    return scenario_from_dict({**scenario.to_dict(), **flags}) if flags else scenario


def _cmd_simulate(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except OSError as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, RecursionError) as exc:  # ScenarioError, bad JSON, bad UTF-8, too deep
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return _execute(scenario, args)


def _cmd_reproduce(args: argparse.Namespace) -> int:
    if args.list or args.preset is None:
        for name in preset_names():
            print(name)
        return EXIT_OK
    try:
        scenario = load_preset(args.preset)
    except ScenarioError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION
    return _execute(scenario, args)


def _execute(scenario, args) -> int:
    try:
        report = run(_apply_cli_flags(scenario, args), outdir=args.outdir)
    except PlanRejectedError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        # ScenarioError and any precondition violation raised by the pipeline
        print(f"scenario rejected: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except MemoryError as exc:
        print(f"scenario needs more memory than is available: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(report.metrics_text, end="")
    if report.outdir is not None:
        print(f"outputs written to {report.outdir}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "plan":
        try:
            return _cmd_plan(args)
        except ValueError as exc:  # a setting the plan functions reject
            print(f"plan {args.plan_command}: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "reproduce":
        return _cmd_reproduce(args)
    raise AssertionError(args.command)


if __name__ == "__main__":
    sys.exit(main())
