"""The four workloads: seeded inputs, timed operations and their checks.

Inputs are the bundled scenario documents.  Seed 0 uses them as shipped
(plus the edits that define a workload, such as the PLL estimator or the
long grid); any other seed scales physical parameters by a factor drawn
from a range that keeps every verdict below.  The edited documents are
written as YAML files that the program reads like any user file.

Each operation is one call a user of the package makes.  Its ``run``
part is timed; its ``check`` part is not, and returns the list of
correctness failures (empty when the operation is correct).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

import syncenergy.cli
import syncenergy.config
import syncenergy.runner
import syncenergy.signals

# relative half-widths of the seeded scale factors; checked to keep each
# document's verdict (see NOTES.md)
SMIB_RANGES = {"H": 0.05, "D": 0.05, "Pm": 0.03}
SYNTH_RANGES = {
    "omega1": 0.1,
    "omega2": 0.1,
    "v_mag": 0.1,
    "i_mag": 0.1,
    "mod_depth": 0.1,
    "mod_freq": 0.1,
    "drift_rate": 0.1,
    "envelope_rate": 0.1,
}

# verdicts of the bundled documents, as their comments and README state
# (the zero-SE templates classify on their round-off floor)
EXPECTED = {
    "smib_h5_d5": "Synchronized",
    "smib_h5_d0": "BoundedNotSynchronized",
    "synth_dual_freq": "BoundedNotSynchronized",
    "synth_limit_cycle": "BoundedNotSynchronized",
    "synth_constant": "Synchronized",
    "synth_drift": "BoundedNotSynchronized",
    "synth_variance_cancel": "BoundedNotSynchronized",
    "sweep_distance": ("BoundedNotSynchronized", "BoundedNotSynchronized", "LossOfSynchronism"),
    "sweep_damping": ("BoundedNotSynchronized", "Synchronized"),
}

# about 1 000 001 samples per template; dt keeps each closed form and
# identity bound of the shipped document
LONG_GRIDS = {
    "synth_constant": (1000.0, 1e-3),
    "synth_dual_freq": (500.0, 5e-4),
    "synth_drift": (40.0, 4e-5),
    "synth_variance_cancel": (2.0, 2e-6),
    "synth_limit_cycle": (1000.0, 1e-3),
}

DOCUMENTS = {
    "run_series": ("smib_h5_d5", "synth_dual_freq"),
    "verify_sweep": ("smib_h5_d0", "sweep_distance", "sweep_damping"),
    "pll_estimator": ("smib_h5_d0", "synth_limit_cycle"),
    "analyze_long": tuple(LONG_GRIDS),
}

# convergence-order gate of acceptance check 03
MIN_VERIFY_ORDER = 1.8
# closed-form tolerances on the long templates, relative to 2 (V I)^2
DUAL_REL_TOL = 1e-6
NULL_REL_TOL = 1e-3


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def perturb(doc: dict, rng: random.Random) -> dict:
    """Scale the physical parameters of ``doc`` in place; return old/new."""
    system = doc["base"]["system"] if "sweep" in doc else doc["system"]
    ranges = SMIB_RANGES if system["kind"] == "smib" else SYNTH_RANGES
    axis = doc["sweep"]["axis"] if "sweep" in doc else None
    changes = {}
    for key, half_width in ranges.items():
        value = system.get(key)
        factor = 1.0 + rng.uniform(-half_width, half_width)  # drawn always: stable stream
        if not value or f"system.{key}" == axis:
            continue
        system[key] = round(value * factor, 6)
        changes[f"system.{key}"] = [value, system[key]]
    return changes


def write_inputs(workload: str, seed: int, src_dir: Path, in_dir: Path) -> tuple:
    """Write the workload's documents; return (paths by name, perturbations)."""
    scenarios = src_dir / "syncenergy" / "scenarios"
    rng = random.Random(seed)
    paths, changes = {}, {}
    in_dir.mkdir(parents=True, exist_ok=True)
    for name in DOCUMENTS[workload]:
        shipped = (scenarios / f"{name}.yaml").read_text(encoding="utf-8")
        doc = yaml.safe_load(shipped)
        edited = False
        if workload == "pll_estimator":
            doc["analysis"]["estimator"] = "pll"
            edited = True
        if workload == "analyze_long":
            t_end, dt = LONG_GRIDS[name]
            doc["grid"] = {"t_end": t_end, "dt": dt}
            edited = True
        if seed != 0:
            changes[name] = perturb(doc, rng)
            edited = True
        path = in_dir / f"{name}.yaml"
        text = yaml.safe_dump(doc, sort_keys=False) if edited else shipped
        path.write_text(text, encoding="utf-8")
        paths[name] = path
    return paths, changes


@dataclass
class Op:
    """One timed call; ``check(result, census)`` returns failure messages."""

    name: str
    run: Callable[[], object]
    check: Callable[[object, bool], list]


class Workload:
    """Operations of one workload plus the state their checks share."""

    def __init__(self, name: str, paths: dict, out_dir: Path) -> None:
        self.paths = paths
        self.out_dir = out_dir
        self.digests: dict = {}
        self.ops = getattr(self, f"_ops_{name}")()

    # -- digests ---------------------------------------------------------

    def record_digest(self, filename: str) -> list:
        """Digest an emitted file; fail when a repeat changes it."""
        digest = sha256_file(self.out_dir / filename)
        first = self.digests.setdefault(filename, digest)
        if first != digest:
            return [f"{filename}: digest changed within the run ({first[:12]} -> {digest[:12]})"]
        return []

    # -- run_series --------------------------------------------------------

    def _ops_run_series(self) -> list:
        ops = []
        for name in DOCUMENTS["run_series"]:
            ops += [self._emit_op(name), self._ingest_op(name)]
        return ops

    def _emit_op(self, name: str) -> Op:
        argv = ["run", str(self.paths[name]), "--out-dir", str(self.out_dir)]

        def run():
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                code = syncenergy.cli.main(argv)
            return code, stdout.getvalue()

        def check(result, census: bool) -> list:
            code, stdout = result
            failures = [] if code == 0 else [f"{name}: exit code {code}"]
            if not stdout.startswith(f"{name}: {EXPECTED[name]}"):
                failures.append(f"{name}: CLI printed {stdout.strip()!r}")
            failures += self._summary_checks(name, f"{name}.summary.json")
            return failures + self.record_digest(f"{name}.csv")

        return Op(f"run {name}", run, check)

    def _ingest_op(self, name: str) -> Op:
        csv_path = self.out_dir / f"{name}.csv"

        def run():
            data = syncenergy.runner.read_series_csv(csv_path)
            t = data["t"]
            grid = syncenergy.signals.TimeGrid(0.0, float(t[1] - t[0]), len(t))
            v = syncenergy.signals.ParkSeries(grid, data["v_d"], data["v_q"])
            i = syncenergy.signals.ParkSeries(grid, data["i_d"], data["i_q"])
            return data, syncenergy.runner.analyze(v, i, "fd")

        def check(result, census: bool) -> list:
            data, again = result
            failures = []
            if not np.array_equal(again.se.psi, data["psi_cf"], equal_nan=True):
                failures.append(f"{name}: re-analysed psi_cf differs from the emitted column")
            if census:
                failures += self._columns_match(name, data)
            return failures

        return Op(f"ingest {name}", run, check)

    def _summary_checks(self, name: str, filename: str, identity: bool = True) -> list:
        failures = self.record_digest(filename)
        summary = json.loads((self.out_dir / filename).read_text(encoding="utf-8"))
        if summary["status"] != EXPECTED[name]:
            failures.append(f"{name}: verdict {summary['status']}, expected {EXPECTED[name]}")
        if identity:
            bound = self._config(name).max_identity_gap
            gap = summary["identity_rel_gap"]
            if gap is None or not gap <= bound:
                failures.append(f"{name}: identity_rel_gap {gap} above bound {bound}")
        return failures

    def _columns_match(self, name: str, data: dict) -> list:
        # a second in-memory run, untimed; the first one's arrays are not
        # kept so they do not raise the measured peak memory
        run = syncenergy.runner.execute_scenario(self._config(name))
        bad = [
            col for col in run.config.columns
            if np.asarray(run.columns[col], dtype=float).tobytes() != data[col].tobytes()
        ]
        if list(data) != list(run.config.columns):
            bad.append("header")
        return [f"{name}: CSV read back differs from memory in {bad}"] if bad else []

    def _config(self, name: str):
        """Load and validate a scenario document, as a user's run does."""
        return syncenergy.config.parse_scenario(syncenergy.config.load_document(self.paths[name]))

    # -- verify_sweep ------------------------------------------------------

    def _ops_verify_sweep(self) -> list:
        ops = []
        name = "smib_h5_d0"

        def verify():
            return syncenergy.runner.verify_scenario(self._config(name))

        def check_verify(report, census: bool) -> list:
            failures = []
            if not report.passed:
                failures.append(f"verify {name}: gap {report.coarse.rel_gap} above bound {report.bound}")
            if report.order is None or not report.order >= MIN_VERIFY_ORDER:
                failures.append(f"verify {name}: convergence order {report.order} < {MIN_VERIFY_ORDER}")
            return failures

        ops.append(Op(f"verify {name}", verify, check_verify))
        for sweep_name in ("sweep_distance", "sweep_damping"):
            ops.append(self._sweep_op(sweep_name))
        return ops

    def _sweep_op(self, name: str) -> Op:
        path = self.paths[name]

        def run():
            sweep = syncenergy.config.parse_sweep(syncenergy.config.load_document(path))
            return syncenergy.runner.run_sweep(sweep, self.out_dir, emit_series=False)

        def check(summary, census: bool) -> list:
            failures = self.record_digest(summary["table_csv"])
            failures += self.record_digest(f"{name}.sweep.summary.json")
            statuses = tuple(row["status"] for row in summary["rows"])
            if statuses != EXPECTED[name]:
                failures.append(f"{name}: verdicts {statuses}, expected {EXPECTED[name]}")
            bound = syncenergy.config.load_document(path)["base"]["analysis"]["max_identity_gap"]
            for row in summary["rows"]:
                if row["error"]:
                    failures.append(f"{name} value {row['value']}: {row['error']}")
                elif not row["diverged"]:
                    gap = row["identity_rel_gap"]
                    if gap is None or not gap <= bound:
                        failures.append(f"{name} value {row['value']}: identity gap {gap} above {bound}")
            return failures

        return Op(f"sweep {name}", run, check)

    # -- pll_estimator -----------------------------------------------------

    def _ops_pll_estimator(self) -> list:
        return [self._pll_op(name) for name in DOCUMENTS["pll_estimator"]]

    def _pll_op(self, name: str) -> Op:
        def run():
            return syncenergy.runner.run_scenario(self._config(name), self.out_dir, emit_series=False)

        def check(summary, census: bool) -> list:
            failures = [] if summary["estimator"] == "pll" else [f"{name}: estimator {summary['estimator']}"]
            # the PLL route carries loop transients, so the fd identity
            # bound does not apply to it
            return failures + self._summary_checks(name, f"{name}.summary.json", identity=False)

        return Op(f"pll {name}", run, check)

    # -- analyze_long ------------------------------------------------------

    def _ops_analyze_long(self) -> list:
        return [self._long_op(name) for name in DOCUMENTS["analyze_long"]]

    def _long_op(self, name: str) -> Op:
        def run():
            config = self._config(name)
            v, i = syncenergy.runner.synthetic_signal(config.synthetic)
            result = syncenergy.runner.analyze(v, i, config.estimator, config.pll)
            verdict = syncenergy.runner.classify_sync(result.se, config.policy)
            identity = syncenergy.runner.identity_gap(result)
            return config, result, verdict, identity

        def check(outcome, census: bool) -> list:
            config, result, verdict, identity = outcome
            spec = config.synthetic
            failures = []
            if verdict.status.value != EXPECTED[name]:
                failures.append(f"{name}: verdict {verdict.status.value}, expected {EXPECTED[name]}")
            if not identity.rel_gap <= config.max_identity_gap:
                failures.append(f"{name}: identity gap {identity.rel_gap} above {config.max_identity_gap}")
            scale = 2.0 * (spec.v_mag * spec.i_mag) ** 2
            psi = result.se.psi[result.se.interior_mask() & result.se.valid]
            if spec.template == "dual_frequency":
                closed = (spec.omega1 - spec.omega2) ** 2 * scale
                err = float(np.max(np.abs(psi - closed))) / closed
                if not err <= DUAL_REL_TOL:
                    failures.append(f"{name}: SE off its closed form {closed} by {err:.3e} (relative)")
            elif spec.template != "amplitude_modulated":
                err = float(np.max(np.abs(psi))) / scale
                if not err <= NULL_REL_TOL:
                    failures.append(f"{name}: SE {err:.3e} x 2(VI)^2, expected zero")
            return failures

        return Op(f"long {name}", run, check)
