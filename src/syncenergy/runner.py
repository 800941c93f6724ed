"""Scenario execution, identity verification, sweeps, and file output.

Series files are CSV with a mandatory header and one row per sample.
Floats are written as the text ``repr`` gives, the shortest
representation that round-trips exactly, produced by orjson and
respelled, so re-running a scenario always produces byte-identical
output and a re-read series reproduces the analysis to machine
precision.  The writer formats the columns in chunks of rows, which
bounds its memory, and the reader parses them with ``np.loadtxt``.
Summary records are JSON with NaN mapped to null.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import orjson

from .config import CSV_COLUMNS, ConfigError, ScenarioConfig, SweepConfig, apply_axis, parse_scenario
from .metric import SyncStatus, SyncVerdict, classify_sync
from .pipeline import AnalysisResult, IdentityReport, analyze, identity_gap
from .simulator import smib_simulate, synthetic_signal
from .signals import TimeGrid


@dataclass
class ScenarioRun:
    """In-memory outcome of one scenario execution."""

    config: ScenarioConfig
    grid: TimeGrid
    columns: dict
    analysis: AnalysisResult
    verdict: SyncVerdict
    identity: IdentityReport
    diverged: bool


@dataclass
class VerifyReport:
    """Two-resolution agreement check of the SE routes."""

    coarse: IdentityReport
    fine: IdentityReport
    order: float | None
    bound: float
    passed: bool


def _switch_windows(config: ScenarioConfig, dt: float) -> tuple:
    # the routes are not compared next to a reactance switching: stencils
    # straddling it measure the jump
    if config.fault is None:
        return ()
    g = config.policy.guard_width(dt)
    return (
        (config.fault.t_apply - g, config.fault.t_apply + g),
        (config.fault.t_clear - g, config.fault.t_clear + g),
    )


def execute_scenario(config: ScenarioConfig) -> ScenarioRun:
    """Simulate or synthesize, analyze, and classify one scenario."""
    if config.kind == "smib":
        try:
            # its outputs are checked for non-finite samples, so numpy stays quiet
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                sim = smib_simulate(config.smib, config.fault, config.grid)
        except ValueError as exc:
            raise ConfigError("system", str(exc)) from exc
        grid = sim.grid
        v, i = sim.v_bus, sim.i_inj
        delta, omega_pu = sim.delta, sim.omega_pu
        diverged = sim.diverged
    else:
        v, i = synthetic_signal(config.synthetic)
        grid = config.grid
        delta = np.full(grid.n, math.nan)
        omega_pu = np.full(grid.n, math.nan)
        diverged = False

    try:
        analysis = analyze(v, i, config.estimator, config.pll)
    except ValueError as exc:
        # on a validated scenario: the amplitudes put the SE scale
        # 2 (max|v| max|i|)^2 past the float range, whatever dt is ...
        with np.errstate(over="ignore"):
            v_peak, i_peak = (float(np.max(np.hypot(x.d, x.q))) for x in (v, i))
        if not math.isfinite(2.0 * (v_peak * i_peak) * (v_peak * i_peak)):
            raise ConfigError(
                "system",
                f"the SE scale 2 (max|v| max|i|)^2 at max|v|={v_peak!r}, max|i|={i_peak!r} "
                f"is past the float range ({exc})",
            ) from exc
        # ... or derivatives overflow, or the record is too short
        raise ConfigError("grid.dt", f"{exc} when analysed at dt={grid.dt!r}") from exc
    verdict = classify_sync(analysis.se, config.policy)
    if diverged:
        # the angle cap fired: the rotor ran away.  A record truncated
        # this early grows polynomially, too slowly for the window-ratio
        # tests of the SE-only classifier, so the simulator's own
        # divergence signal decides.
        verdict = SyncVerdict(
            SyncStatus.LOSS_OF_SYNCHRONISM, None, verdict.peak_psi, verdict.tail_mean_psi
        )
    identity = identity_gap(analysis, _switch_windows(config, grid.dt))

    columns = {
        "t": grid.times(),
        "delta": delta,
        "omega_pu": omega_pu,
        "v_d": v.d,
        "v_q": v.q,
        "i_d": i.d,
        "i_q": i.q,
        "p": analysis.s.d,
        "q": analysis.s.q,
        "rho_v": analysis.cf_v.rho,
        "omega_v": analysis.cf_v.omega,
        "rho_i": analysis.cf_i.rho,
        "omega_i": analysis.cf_i.omega,
        "psi_cf": analysis.se.psi,
        "psi_numeric": analysis.psi_numeric,
        "psi_normalized": analysis.normalized,
        "freq_term": analysis.se.freq_term,
        "var_term": analysis.se.var_term,
    }
    return ScenarioRun(config, grid, columns, analysis, verdict, identity, diverged)


def verify_scenario(config: ScenarioConfig) -> VerifyReport:
    """Compare the SE routes at the configured dt and at dt/2.

    The observed convergence order is log2 of the gap ratio; it is None
    when either gap vanishes (exactly representable scenarios).
    """
    coarse = execute_scenario(config).identity
    fine_grid = TimeGrid(0.0, config.grid.dt / 2.0, 2 * config.grid.n - 1)
    fine_config = dataclasses.replace(config, grid=fine_grid)
    if config.synthetic is not None:
        fine_config = dataclasses.replace(
            fine_config, synthetic=dataclasses.replace(config.synthetic, grid=fine_grid)
        )
    fine = execute_scenario(fine_config).identity
    if coarse.rel_gap > 0.0 and fine.rel_gap > 0.0:
        order = math.log2(coarse.rel_gap / fine.rel_gap)
    else:
        order = None
    passed = coarse.rel_gap <= config.max_identity_gap
    return VerifyReport(coarse, fine, order, config.max_identity_gap, passed)


# rows formatted per write: bounds the text alive at once
_CHUNK_ROWS = 4096

_E, _PLUS, _MINUS, _ZERO = b"e+-0"


def _is_digit(codes: np.ndarray) -> np.ndarray:
    return (codes >= _ZERO) & (codes <= _ZERO + 9)


def _csv_rows(block: np.ndarray) -> np.ndarray:
    """CSV text of a fresh C-contiguous float64 block, one line per row.

    orjson writes each cell's shortest round-trip digits (Ryu), as
    ``repr`` does, but spells three things differently: exponents
    (``e16``, ``e-7`` for ``repr``'s ``e+16``, ``e-07``), non-finite
    cells (``null``) and 1e-5 <= |x| < 1e-4 (``0.0000d...`` for
    ``d...e-05``).  The last two are masked before ``dumps`` and spliced
    back as their ``repr``; the exponents get their ``+`` or ``0`` by
    one ``np.insert``.  Returns the text as uint8 codes, without the
    final newline; ``block`` is overwritten.
    """
    mag = np.abs(block)
    odd = ~np.isfinite(block) | ((mag >= 1e-5) & (mag < 1e-4))
    cells = block[odd]  # row-major, the order of their nulls in the text
    block[odd] = np.nan
    # "[[r0c0,r0c1],[r1c0,r1c1]]" -> "[[r0c0,r0c1\nr1c0,r1c1]]"
    text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY).replace(b"],[", b"\n")
    if cells.size:
        pieces = text.split(b"null")
        spliced = [b""] * (2 * len(pieces) - 1)
        spliced[::2] = pieces
        spliced[1::2] = ",".join(map(repr, cells.tolist())).encode("ascii").split(b",")
        text = b"".join(spliced)
    # only exponents hold an "e", and the trailing "]]" keeps e + 3 in range
    buf = np.frombuffer(text, dtype=np.uint8)
    e = np.flatnonzero(buf == _E)
    after = buf[e + 1]
    plus = e[_is_digit(after)] + 1
    minus = e[after == _MINUS]
    zero = minus[~_is_digit(buf[minus + 3])] + 2
    fill = np.repeat(np.array([_PLUS, _ZERO], dtype=np.uint8), (plus.size, zero.size))
    buf = np.insert(buf, np.concatenate((plus, zero)), fill)
    return buf[2:-2]


def write_series_csv(path, columns: dict, order: tuple = CSV_COLUMNS) -> None:
    """Write selected columns as CSV, ``_CHUNK_ROWS`` rows per write.

    Each cell is the text ``repr`` gives (exact round-trip), produced by
    orjson and respelled, so numpy's print options never reach the file.

    Raises
    ------
    ValueError
        If the selected columns differ in length.
    """
    arrays = [np.asarray(columns[name], dtype=float) for name in order]
    n = len(arrays[0]) if arrays else 0
    for name, col in zip(order, arrays):
        if len(col) != n:
            raise ValueError(f"column {name!r} holds {len(col)} samples, column {order[0]!r} holds {n}")
    with open(path, "wb") as fh:
        fh.write((",".join(order) + "\n").encode("utf-8"))
        for a in range(0, n, _CHUNK_ROWS):
            fh.write(_csv_rows(np.column_stack([col[a : a + _CHUNK_ROWS] for col in arrays])))
            fh.write(b"\n")


def read_series_csv(path) -> dict:
    """Read a series CSV back into arrays keyed by column name.

    The body is parsed by ``np.loadtxt``; a header-only file gives empty
    columns.  A ragged row, a non-numeric cell or a row width other than
    the header's raises ``ValueError``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        with warnings.catch_warnings():
            # a header-only file is a valid empty series, not a suspicious input
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(fh, delimiter=",", comments=None, dtype=float, ndmin=2)
    if data.size == 0:
        data = data.reshape(0, len(header))
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: rows hold {data.shape[1]} cells, the header names {len(header)}")
    return {name: data[:, k] for k, name in enumerate(header)}


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def summarize_run(run: ScenarioRun, series_file: str | None) -> dict:
    verdict = run.verdict
    return {
        "name": run.config.name,
        "kind": run.config.kind,
        "estimator": run.config.estimator,
        "status": verdict.status.value,
        "settle_time": _jsonable(verdict.settle_time),
        "peak_psi": _jsonable(verdict.peak_psi),
        "tail_mean_psi": _jsonable(verdict.tail_mean_psi),
        "diverged": run.diverged,
        "dt": run.grid.dt,
        "n_samples": run.grid.n,
        "t_end_effective": run.grid.t_end,
        "identity_rel_gap": _jsonable(run.identity.rel_gap),
        "identity_max_abs_gap": _jsonable(run.identity.max_abs_gap),
        "identity_scale": _jsonable(run.identity.scale),
        "series_csv": series_file,
    }


def run_scenario(config: ScenarioConfig, out_dir, emit_series: bool = True) -> dict:
    """Execute a scenario and write its series CSV and summary JSON.

    Returns the summary record.  A diverged simulation still succeeds:
    the series covers the samples computed before truncation and the
    summary carries ``diverged: true``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    run = execute_scenario(config)
    series_file = None
    if emit_series:
        series_file = f"{config.name}.csv"
        write_series_csv(out_dir / series_file, run.columns, config.columns)
    summary = summarize_run(run, series_file)
    (out_dir / f"{config.name}.summary.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8"
    )
    return summary


_SWEEP_FIELDS = (
    "value",
    "status",
    "settle_time",
    "peak_psi",
    "tail_mean_psi",
    "identity_rel_gap",
    "diverged",
    "error",
)


def _sweep_cell(value, ran: bool) -> str:
    """CSV text of one sweep-table field; ``ran`` is False on error rows."""
    if value is None:
        return "nan" if ran else ""  # unsettled run, or field never computed
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return value


def run_sweep(sweep: SweepConfig, out_dir, emit_series: bool = False) -> dict:
    """Run the base scenario once per axis value and tabulate the results.

    A failing value (invalid parameters, no equilibrium) is recorded in
    its row and the sweep continues.  Rows keep the order of the
    configured values.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for value in sweep.values:
        row = dict.fromkeys(_SWEEP_FIELDS)  # None: not computed for this row
        row.update(value=value, error="")
        try:
            config = parse_scenario(apply_axis(sweep.base_doc, sweep.axis, value))
            config = dataclasses.replace(config, name=sweep.run_name(value))
            run = execute_scenario(config)
            if emit_series:
                write_series_csv(out_dir / f"{config.name}.csv", run.columns, config.columns)
            row.update(
                status=run.verdict.status.value,
                settle_time=run.verdict.settle_time,
                peak_psi=run.verdict.peak_psi,
                tail_mean_psi=run.verdict.tail_mean_psi,
                identity_rel_gap=run.identity.rel_gap,
                diverged=run.diverged,
            )
        except (ConfigError, ValueError) as exc:
            row["error"] = str(exc)
        rows.append(row)

    table_file = f"{sweep.name}.sweep.csv"
    with open(out_dir / table_file, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("axis",) + _SWEEP_FIELDS)
        for row in rows:
            ran = row["status"] is not None
            writer.writerow([sweep.axis] + [_sweep_cell(row[name], ran) for name in _SWEEP_FIELDS])

    summary = {
        "name": sweep.name,
        "axis": sweep.axis,
        "values": list(sweep.values),
        "rows": [{name: _jsonable(value) for name, value in row.items()} for row in rows],
        "table_csv": table_file,
    }
    (out_dir / f"{sweep.name}.sweep.summary.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8"
    )
    return summary
