"""Command-line interface.

    syncenergy run <config|name>     execute one scenario, write CSV + summary
    syncenergy sweep <config|name>   scan one numeric axis, write a table
    syncenergy verify <config|name>  compare the two SE routes at dt and dt/2
    syncenergy scenarios list        show the bundled scenario files

Configs are YAML files; a bare name refers to a bundled scenario.  Exit
codes: 0 success, 2 configuration or schema error or a config path or
output directory the OS refuses, 3 verification bound exceeded.
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources
from pathlib import Path

from .config import ConfigError, load_document, parse_scenario, parse_sweep
from .pipeline import ESTIMATORS
from .runner import run_scenario, run_sweep, verify_scenario


def bundled_scenarios() -> dict:
    """Name -> traversable path of every bundled YAML document."""
    root = resources.files("syncenergy").joinpath("scenarios")
    return {entry.name[: -len(".yaml")]: entry for entry in sorted(
        (e for e in root.iterdir() if e.name.endswith(".yaml")), key=lambda e: e.name
    )}


def _load_doc(ref: str) -> dict:
    path = Path(ref)
    if path.exists():
        return load_document(path)
    name = ref[: -len(".yaml")] if ref.endswith(".yaml") else ref
    bundled = bundled_scenarios()
    if name in bundled:
        with resources.as_file(bundled[name]) as concrete:
            return load_document(concrete)
    raise ConfigError("", f"{ref!r} is neither a file nor a bundled scenario")


def _apply_overrides(doc: dict, args) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError("", "expected a YAML mapping at top level")
    target = doc.get("base") if "sweep" in doc else doc
    if not isinstance(target, dict):
        return doc  # malformed; let the parser point at the real problem
    if args.dt is not None:
        grid = target.setdefault("grid", {})
        if isinstance(grid, dict):
            grid["dt"] = args.dt
    if args.estimator is not None:
        analysis = target.setdefault("analysis", {})
        if isinstance(analysis, dict):
            analysis["estimator"] = args.estimator
    return doc


def _cmd_run(args) -> int:
    doc = _apply_overrides(_load_doc(args.config), args)
    if "sweep" in doc:
        raise ConfigError("", "this is a sweep document; use the sweep command")
    summary = run_scenario(parse_scenario(doc), args.out_dir, args.emit_series)
    print(
        f"{summary['name']}: {summary['status']}"
        + (f", settle {summary['settle_time']:.3f} s" if summary["settle_time"] is not None else "")
        + (", diverged" if summary["diverged"] else "")
    )
    return 0


def _cmd_sweep(args) -> int:
    doc = _apply_overrides(_load_doc(args.config), args)
    if "sweep" not in doc:
        raise ConfigError("", "this is a scenario document; use the run command")
    summary = run_sweep(parse_sweep(doc), args.out_dir, args.emit_series)
    for row in summary["rows"]:
        label = row["status"] if row["status"] else f"error: {row['error']}"
        print(f"{summary['axis']} = {row['value']:g}: {label}")
    return 0


def _cmd_verify(args) -> int:
    doc = _apply_overrides(_load_doc(args.config), args)
    if "sweep" in doc:
        raise ConfigError("", "this is a sweep document; use the sweep command")
    config = parse_scenario(doc)
    report = verify_scenario(config)
    print(f"{config.name}: SE route agreement ({config.estimator} estimator)")
    print(f"  dt = {config.grid.dt:g}: rel gap {report.coarse.rel_gap:.3e} "
          f"over {report.coarse.n_compared} samples")
    print(f"  dt = {config.grid.dt / 2:g}: rel gap {report.fine.rel_gap:.3e}")
    if report.order is not None:
        print(f"  observed convergence order {report.order:.2f}")
    else:
        print("  observed convergence order n/a (gap at machine zero)")
    print(f"  bound {report.bound:g}: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 3


def _cmd_scenarios(args) -> int:
    for name, entry in bundled_scenarios().items():
        try:
            with resources.as_file(entry) as concrete:
                doc = load_document(concrete)
        except ConfigError:
            doc = None
        kind = "sweep" if isinstance(doc, dict) and "sweep" in doc else "scenario"
        desc = ""
        if isinstance(doc, dict):
            base = doc.get("base", doc)
            if isinstance(base, dict):
                desc = str(base.get("description", "")).strip().splitlines()[0] if base.get("description") else ""
        print(f"{name:28s} [{kind}] {desc}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="syncenergy",
        description="Synchronization energy analysis of Park-vector time series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p) -> None:
        p.add_argument("config", help="scenario YAML path or bundled scenario name")
        p.add_argument("--dt", type=float, default=None, help="override grid.dt")
        p.add_argument("--estimator", choices=ESTIMATORS, default=None,
                       help="override analysis.estimator")

    def outputs(p, emit_default: bool) -> None:
        p.add_argument("--out-dir", default=".", help="directory for output files")
        p.add_argument("--emit-series", action=argparse.BooleanOptionalAction,
                       default=emit_default, help="write per-run series CSV files")

    p_run = sub.add_parser("run", help="execute one scenario")
    common(p_run)
    outputs(p_run, emit_default=True)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="scan one numeric axis over a base scenario")
    common(p_sweep)
    outputs(p_sweep, emit_default=False)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="check agreement of the two SE routes")
    common(p_verify)
    p_verify.set_defaults(func=_cmd_verify)

    p_scen = sub.add_parser("scenarios", help="inspect bundled scenarios")
    p_scen.add_argument("action", choices=("list",))
    p_scen.set_defaults(func=_cmd_scenarios)

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
