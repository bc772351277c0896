"""Command-line verification driver.

Subcommands:
    list                      enumerate the built-in scenarios
    verify [--scenario NAME]  run one scenario (or all) and emit a report
    spin --j J [...]          run the spin scenario with explicit parameters
    phase --n N               run the lattice phase-space scenario

Exit codes: 0 when every check passes, 1 when a check fails, 2 on invalid
input: a bad flag or config, a config file that cannot be read as UTF-8
JSON (nested too deep, an integer too long to convert, or an object that
repeats a key), or an --out path that cannot be written. Every such error
in main's call raises ConfigParseError (or UnknownScenarioError), and main
alone prints it as "error: ..." and returns 2. Reports are JSON on stdout or
--out.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .reporting import dumps
from .scenarios import (
    BUILTIN_SCENARIOS,
    ConfigParseError,
    UnknownScenarioError,
    run_all,
    run_scenario,
)


def _parse_half_integer(text: str) -> float:
    try:
        return float(Fraction(text))
    except (ValueError, ZeroDivisionError, OverflowError):
        raise argparse.ArgumentTypeError(
            f"expected a half-integer like 0.5 or 3/2, got {text!r}"
        ) from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symquant",
        description="Run and verify the built-in symmetry/quantization scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="enumerate built-in scenarios")

    p_verify = sub.add_parser("verify", help="run a scenario (or all) and report")
    p_verify.add_argument("--scenario", help="built-in scenario name")
    p_verify.add_argument("--config", help="path to a JSON configuration file")
    p_verify.add_argument("--out", help="write the report here instead of stdout")
    p_verify.add_argument("--tolerance", type=float,
                          help="blanket tolerance override for every check")

    p_spin = sub.add_parser("spin", help="spin component scenario")
    p_spin.add_argument("--j", type=_parse_half_integer, required=True,
                        help="spin quantum number (half-integer)")
    p_spin.add_argument("--ax", type=float, default=0.0)
    p_spin.add_argument("--ay", type=float, default=0.0)
    p_spin.add_argument("--az", type=float, default=1.0)
    p_spin.add_argument("--reduce", action="store_true",
                        help="include the orbit-reduction checks")
    p_spin.add_argument("--out")

    p_phase = sub.add_parser("phase", help="finite phase-space scenario")
    p_phase.add_argument("--n", type=int, required=True, help="lattice size")
    p_phase.add_argument("--out")

    return parser


_PARSER = _build_parser()


def _emit(report_or_list, out_path: str | None) -> int:
    text = dumps(report_or_list)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigParseError(f"cannot write report: {exc}") from exc
    else:
        sys.stdout.write(text)
    reports = report_or_list if isinstance(report_or_list, list) else [report_or_list]
    return 0 if all(r.all_passed for r in reports) else 1


def _unique_keys(pairs: list) -> dict:
    """A JSON object whose names are all distinct: json.load would keep the
    last value of a repeated name and drop the others."""
    obj = {}
    for name, value in pairs:
        if name in obj:
            raise ValueError(f"an object repeats the key {name!r}")
        obj[name] = value
    return obj


def _read_config(path: str) -> dict:
    # ValueError covers JSONDecodeError, UnicodeDecodeError, a repeated key
    # and an integer literal beyond Python's digit limit; RecursionError,
    # nesting too deep for the decoder
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigParseError(f"cannot read config: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigParseError("configuration must be a JSON object")
    return config


def _verify(args) -> int:
    """The config file (or {}), then --scenario, then the --tolerance
    merge, then run_scenario; with neither file nor scenario, run_all."""
    tolerances = {"*": args.tolerance} if args.tolerance is not None else None
    if not (args.config or args.scenario):
        return _emit(run_all(tolerances=tolerances), args.out)
    config = _read_config(args.config) if args.config else {}
    if args.scenario:
        if config.get("scenario") not in (None, args.scenario):
            raise ConfigParseError("--scenario disagrees with the config file")
        config["scenario"] = args.scenario
    given = config.get("tolerances", {})
    # tolerances that are not an object are left for run_scenario to refuse
    if tolerances and isinstance(given, dict):
        config["tolerances"] = {**given, **tolerances}
    return _emit(run_scenario(config), args.out)


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        if args.command == "list":
            for name in BUILTIN_SCENARIOS:
                print(name)
            return 0
        if args.command == "verify":
            return _verify(args)
        if args.command == "spin":
            config = {
                "scenario": "spin",
                "params": {
                    "j": args.j,
                    "direction": [args.ax, args.ay, args.az],
                    "reduce": bool(args.reduce),
                },
            }
            return _emit(run_scenario(config), args.out)
        if args.command == "phase":
            config = {"scenario": "phase", "params": {"n": args.n}}
            return _emit(run_scenario(config), args.out)
        raise AssertionError("unreachable")
    except (ConfigParseError, UnknownScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
