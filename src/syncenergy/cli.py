"""Command-line interface.

    syncenergy run <config|name>     execute one scenario, write CSV + summary
    syncenergy sweep <config|name>   scan one numeric axis, write a table
    syncenergy verify <config|name>  compare the two SE routes at dt and dt/2 (fd)
    syncenergy scenarios list        show the bundled scenario files

Configs are YAML files; a name that is not a file refers to a bundled
scenario, so a directory never hides one.  Exit codes: 0 success, 2
configuration or schema error or a config path or output directory the OS
refuses, 3 verification bound exceeded.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .config import ConfigError, apply_axis, load_document, parse_scenario, parse_sweep
from .pipeline import ESTIMATORS
from .runner import run_scenario, run_sweep, verify_scenario


def bundled_scenarios() -> dict:
    """Name -> path of every bundled YAML document, sorted by name."""
    return {path.stem: path for path in sorted(Path(__file__).with_name("scenarios").glob("*.yaml"))}


def _document(args, sweep: bool) -> dict:
    """``args.config``'s document with the overrides written in; the other kind is refused.

    A document, or a sweep's base, that is not a mapping is returned as it
    is, for the parser to name its type.
    """
    path = Path(args.config)
    if not path.is_file():
        path = bundled_scenarios().get(args.config.removesuffix(".yaml"), path)
    if not path.exists():
        raise ConfigError("", f"{args.config!r} is neither a file nor a bundled scenario")
    doc = load_document(path)
    if not isinstance(doc, dict):
        return doc
    if "sweep" in doc and not sweep:
        raise ConfigError("", "this is a sweep document; use the sweep command")
    if sweep and "sweep" not in doc:
        raise ConfigError("", "this is a scenario document; use the run command")
    prefix = "base." if sweep else ""
    for axis, value in (("grid.dt", args.dt), ("analysis.estimator", getattr(args, "estimator", None))):
        if value is not None and isinstance(doc.get("base") if sweep else doc, dict):
            doc = apply_axis(doc, prefix + axis, value)
    return doc


def _cmd_run(args) -> int:
    summary = run_scenario(parse_scenario(_document(args, sweep=False)), args.out_dir, args.emit_series)
    print(
        f"{summary['name']}: {summary['status']}"
        + (f", settle {summary['settle_time']:.3f} s" if summary["settle_time"] is not None else "")
        + (", diverged" if summary["diverged"] else "")
    )
    return 0


def _cmd_sweep(args) -> int:
    summary = run_sweep(parse_sweep(_document(args, sweep=True)), args.out_dir, args.emit_series)
    for row in summary["rows"]:
        label = row["status"] if row["status"] else f"error: {row['error']}"
        print(f"{summary['axis']} = {row['value']:g}: {label}")
    return 0


def _cmd_verify(args) -> int:
    config = parse_scenario(_document(args, sweep=False))
    report = verify_scenario(config)
    print(f"{config.name}: SE route agreement (fd estimator)")
    print(f"  dt = {config.grid.dt:g}: rel gap {report.coarse.rel_gap:.3e} "
          f"over {report.coarse.n_compared} samples")
    print(f"  dt = {config.grid.dt / 2:g}: rel gap {report.fine.rel_gap:.3e}")
    if report.order is not None:
        print(f"  observed convergence order {report.order:.2f}")
    elif math.isfinite(report.coarse.rel_gap) and math.isfinite(report.fine.rel_gap):
        print("  observed convergence order n/a (gap at machine zero)")
    else:
        print("  observed convergence order n/a (gap not finite)")
    print(f"  bound {report.bound:g}: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 3


def _cmd_scenarios(args) -> int:
    # every bundled document is a mapping with a description (tests/test_cli.py)
    for name, path in bundled_scenarios().items():
        doc = load_document(path)
        description = doc.get("base", doc)["description"].strip().splitlines()[0]
        print(f"{name:28s} [{'sweep' if 'sweep' in doc else 'scenario'}] {description}")
    return 0


# name, help, handler, --emit-series default (None: no output flags and no --estimator)
_COMMANDS = (
    ("run", "execute one scenario", _cmd_run, True),
    ("sweep", "scan one numeric axis over a base scenario", _cmd_sweep, False),
    ("verify", "check agreement of the two SE routes", _cmd_verify, None),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="syncenergy",
        description="Synchronization energy analysis of Park-vector time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, handler, emit_default in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("config", help="scenario YAML path or bundled scenario name")
        p.add_argument("--dt", type=float, default=None, help="override grid.dt")
        if emit_default is not None:
            p.add_argument("--estimator", choices=ESTIMATORS, default=None,
                           help="override analysis.estimator")
            p.add_argument("--out-dir", default=".", help="directory for output files")
            p.add_argument("--emit-series", action=argparse.BooleanOptionalAction,
                           default=emit_default, help="write per-run series CSV files")
        p.set_defaults(func=handler)
    p = sub.add_parser("scenarios", help="inspect bundled scenarios")
    p.add_argument("action", choices=("list",))
    p.set_defaults(func=_cmd_scenarios)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # a ConfigError with a path reads "at <path>: ..."
        print(f"config error {exc}" if getattr(exc, "path", "") else f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # names the path and the OS's reason
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
