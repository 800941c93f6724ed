"""Scenario execution, identity verification, sweeps, and file output.

Series files are CSV with a mandatory header and one row per sample.
Floats are written as the text ``repr`` gives, the shortest
representation that round-trips exactly, produced by orjson and
respelled, so re-running a scenario always produces byte-identical
output and a re-read series reproduces the analysis to machine
precision.  The writer formats chunks of rows, and the reader parses
blocks of lines with orjson, which bounds the memory of both; the reader
takes exactly the writer's grammar.  Each hands a long series' second
half to a forked child.  Summary records are JSON with NaN mapped to
null.  Every output is written under a temporary name and renamed into
place once whole.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import math
import os
import re
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import orjson

from .config import CSV_COLUMNS, MAX_SAMPLES, ConfigError, ScenarioConfig, SweepConfig, apply_axis, parse_scenario
from .metric import SyncVerdict, classify_sync
from .pipeline import AnalysisResult, ForkedCall, IdentityReport, analyze, identity_gap, shared_array
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


# grids shorter than this simulate in turn: alternating in one process, two
# SMIB runs with one simulated in a forked child were the faster in 21 of 80
# pairs at 5 000 samples, 42 at 6 000, 57 at 7 000 and 77 at 20 000
_FORK_MIN_SAMPLES = 6000

# series of fewer cells than this are written in turn: alternating in one
# process, the write with a forked child was the faster in 0 of 20 pairs at
# 36 000 cells, 29 of 80 at 108 000, 54 at 144 000, 61 at 180 000, 75 at 360 000
_FORK_MIN_CELLS = 150_000

# series bodies shorter than this are read in turn: alternating in one
# process, the read with a forked child was the faster in 0 of 80 pairs at
# 1 MB of body, 5 at 2 MB, 23 at 2.5 MB, 45 at 3 MB, 67 at 3.5 MB
_FORK_MIN_BYTES = 3_000_000


def _simulate(config: ScenarioConfig):
    # its outputs are checked for non-finite samples, so numpy stays quiet
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return smib_simulate(config.smib, config.fault, config.grid)


def _simulation(config: ScenarioConfig | None) -> ForkedCall:
    """``config``'s SMIB simulation, forked past the break-even; none for a synthetic or no config."""
    fork = config is not None and config.kind == "smib" and config.grid.n >= _FORK_MIN_SAMPLES
    return ForkedCall(_simulate, config, fork=fork)


def execute_scenario(config: ScenarioConfig, simulation: ForkedCall | None = None) -> ScenarioRun:
    """Simulate (unless ``simulation``, from :func:`_simulation`, was started)
    or synthesize, analyze, and classify one scenario."""
    if config.kind == "smib":
        try:
            sim = simulation.result() if simulation else _simulate(config)
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
    verdict = classify_sync(analysis.se, config.policy, diverged)
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
    when either gap vanishes (exactly representable scenarios) or is not
    finite.  A SMIB scenario's dt/2 grid, past ``_FORK_MIN_SAMPLES``,
    simulates in a forked child while this process simulates and analyses
    the coarse grid; the report is the same either way.

    Raises
    ------
    ConfigError
        At ``grid.dt``, before anything runs, if the dt/2 grid would
        pass ``MAX_SAMPLES``.
    """
    n_fine = 2 * config.grid.n - 1
    if n_fine > MAX_SAMPLES:
        raise ConfigError(
            "grid.dt", f"verify runs {config.grid.n} samples and then {n_fine} at dt/2; at most {MAX_SAMPLES}"
        )
    fine_grid = TimeGrid(0.0, config.grid.dt / 2.0, n_fine)
    fine_config = dataclasses.replace(config, grid=fine_grid)
    if config.synthetic is not None:
        fine_config = dataclasses.replace(
            fine_config, synthetic=dataclasses.replace(config.synthetic, grid=fine_grid)
        )
    with _simulation(fine_config) as fine_sim:
        coarse = execute_scenario(config).identity
        fine = execute_scenario(fine_config, fine_sim).identity
    if 0.0 < coarse.rel_gap < math.inf and 0.0 < fine.rel_gap < math.inf:
        order = math.log2(coarse.rel_gap) - math.log2(fine.rel_gap)  # finite, unlike a ratio's log
    else:
        order = None
    passed = coarse.rel_gap <= config.max_identity_gap
    return VerifyReport(coarse, fine, order, config.max_identity_gap, passed)


# rows per chunk: bounds the text alive at once
_CHUNK_ROWS = 1024

_E, _MINUS, _COMMA, _LF = b"e-,\n"
_IS_DIGIT = np.array([bytes([c]).isdigit() for c in range(256)])
_NAN_INF = np.frombuffer(b"nan,inf,-inf", dtype=np.uint8).reshape(3, 4)


def _csv_rows(block: np.ndarray) -> np.ndarray:
    """CSV text of a fresh C-contiguous float64 block, one line per row.

    orjson writes each cell's shortest round-trip digits (Ryu), as
    ``repr`` does, but spells three things differently: exponents
    (``e16``, ``e-7`` for ``repr``'s ``e+16``, ``e-07``), non-finite
    cells (``null``) and 1e-5 <= |x| < 1e-4 (``0.0000d...`` for
    ``d...e-05``).  The raveled block is dumped once, non-finite cells
    as ``0.0`` (``-0.0`` for -inf), and respelled by numpy alone:
    non-finite cells and row ends are overwritten, ``0.0000`` is masked
    out and one ``np.insert`` adds the other bytes.  Returns uint8 codes,
    newline included; ``block`` is overwritten.
    """
    width = block.shape[1]
    cells = block.ravel()
    band = np.flatnonzero((np.abs(cells) >= 1e-5) & (np.abs(cells) < 1e-4))
    odd = np.flatnonzero(~np.isfinite(cells))
    kind = (cells[odd] == np.inf) + 2 * (cells[odd] == -np.inf)  # nan, inf, -inf
    cells[odd] = np.where(kind == 2, -0.0, 0.0)
    buf = np.frombuffer(orjson.dumps(cells, option=orjson.OPT_SERIALIZE_NUMPY), dtype=np.uint8).copy()
    # "[c0,c1,c2,c3]": cell k lies between bounds[k] and bounds[k + 1]
    bounds = np.concatenate(([0], np.flatnonzero(buf == _COMMA), [buf.size - 1]))
    buf[bounds[odd, None] + np.arange(1, 5)] = _NAN_INF[kind]  # "0.0," -> "nan,"
    buf[bounds[width::width]] = _LF
    # only exponents hold an "e", and the final newline keeps e + 3 in range
    e = np.flatnonzero(buf == _E)
    after = buf[e + 1]
    plus = e[_IS_DIGIT[after]] + 1
    minus = e[after == _MINUS]
    zero = minus[~_IS_DIGIT[buf[minus + 3]]] + 2
    # "0.0000d" and more digits -> "d" "." more digits "e-05"
    lead, end = bounds[band] + 1 + (cells[band] < 0), bounds[band + 1]
    dot = lead[end - lead > 7] + 7
    at = np.concatenate((plus, zero, dot, np.repeat(end, 4)))
    fill = np.concatenate((np.repeat(list(b"+0."), (plus.size, zero.size, dot.size)), np.tile(list(b"e-05"), end.size)))
    if band.size:
        keep = np.ones(buf.size, dtype=bool)
        keep[lead[:, None] + np.arange(6)] = False
        buf = buf[keep]
        at -= 6 * np.searchsorted(lead, at)
    return np.insert(buf, at, fill)[1:]


def _check_names(names) -> None:
    """Raise ``ValueError`` unless ``names`` can head a series CSV.

    A header is one line of names joined by ``,``, so each name must be
    non-empty, distinct and free of ``,``, ``\\n`` and ``\\r``.
    """
    if not names:
        raise ValueError("no columns named")
    for k, name in enumerate(names):
        if not name or any(c in name for c in ",\n\r"):
            raise ValueError(f"column name {name!r} is empty or holds ',', '\\n' or '\\r'")
        if name in names[:k]:
            raise ValueError(f"column name {name!r} is repeated")


@contextlib.contextmanager
def _whole_file(path, mode: str, **kwargs):
    """A new file named ``.tmp-`` and 16 random hex digits beside ``path``,
    renamed to ``path`` once the block ends, or deleted if anything raises."""
    tmp = Path(path).with_name(f".tmp-{os.urandom(8).hex()}")
    fh = open(tmp, "x" + mode, **kwargs)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_rows(fh, arrays, start: int, stop: int) -> None:
    """Write rows [start, stop) of ``arrays`` to ``fh``, ``_CHUNK_ROWS`` at a time, and flush it."""
    for a in range(start, stop, _CHUNK_ROWS):
        fh.write(_csv_rows(np.column_stack([col[a : min(a + _CHUNK_ROWS, stop)] for col in arrays])))
    fh.flush()


def write_series_csv(path, columns: dict, order: tuple = CSV_COLUMNS) -> None:
    """Write selected columns as CSV, ``_CHUNK_ROWS`` rows per write.

    Each cell is the text ``repr`` gives (exact round-trip), produced by
    orjson and respelled, so numpy's print options never reach the file.
    The rows past the midpoint go to an anonymous temporary file, copied
    onto the end after the header and the rows before it; from
    ``_FORK_MIN_CELLS`` cells on a forked child writes them meanwhile,
    with the same bytes.  An exception from either process is raised
    here, and ``path`` is left as it was.

    Raises
    ------
    ValueError
        Before the file is opened, if the selected columns differ in
        length, or if ``order`` is empty, repeats a name, or holds an
        empty name or one with ``,``, ``\\n`` or ``\\r``.
    """
    _check_names(order)
    arrays = [np.asarray(columns[name], dtype=float) for name in order]
    n = len(arrays[0])
    for name, col in zip(order, arrays):
        if len(col) != n:
            raise ValueError(f"column {name!r} holds {len(col)} samples, column {order[0]!r} holds {n}")
    half, fork = n // 2, n * len(arrays) >= _FORK_MIN_CELLS
    with _whole_file(path, "b") as fh, tempfile.TemporaryFile(dir=Path(path).parent) as tail:
        # the header is written after the fork: the child never flushes fh
        with ForkedCall(_write_rows, tail, arrays, half, n, fork=fork) as rest:
            fh.write((",".join(order) + "\n").encode("utf-8"))
            _write_rows(fh, arrays, 0, half)
            rest.result()
        tail.seek(0)
        shutil.copyfileobj(tail, fh)


# body text parsed per orjson call, cut at a line end: bounds the bytes and
# the Python floats alive at once, and what their freeing leaves resident
_BLOCK_BYTES = 1 << 16

# every byte a body may hold: the writer's digits, ".", "e", signs and
# separators, and the letters of inf and nan
_BODY_BYTES = b"0123456789.e+-,\ninfa"
_NOT_BODY_BYTE = re.compile(b"[^%s]" % re.escape(_BODY_BYTES))
_NON_FINITE = re.compile(rb"(-?inf|nan)")
_INT_MINUS_ZERO = re.compile(rb"-0(?<![^,\n]-0)(?=[,\n])")
_NL, _ROW_BREAK = b"\n", b"],["


def _block_cells(block: bytes, width: int, path, line: int) -> np.ndarray:
    """Parse ``block``, whole body lines from file line ``line`` on, into float64 rows.

    nan (and, in a block that holds one, inf and -inf) is masked to JSON
    ``null``, so orjson parses every cell; the masked infinities are put
    back in row-major order.  In a valid body "i" and "a" occur only in
    inf and nan, and a one-byte test is far cheaper than a scan for a
    token.
    """
    if block.translate(None, _BODY_BYTES):
        pos = _NOT_BODY_BYTE.search(block).start()
        line += block.count(_NL, 0, pos)
        raise ValueError(f"{path}, line {line}: byte {block[pos : pos + 1]!r} is in no series cell")
    if not block.endswith(_NL):
        raise ValueError(f"{path}, line {line + block.count(_NL)}: the last line has no newline")
    text, infinities = block, None
    if b"i" in text:
        parts = _NON_FINITE.split(text)
        infinities = [float(token) for token in parts[1::2]]
        text = b"null".join(parts[::2])
    elif b"a" in text:
        text = text.replace(b"nan", b"null")
    # "r0c0,r0c1\nr1c0,r1c1\n" -> "[[r0c0,r0c1],[r1c0,r1c1],[]]"
    text = b"[[" + text.replace(_NL, _ROW_BREAK) + b"]]"
    try:
        rows = orjson.loads(text)
    except orjson.JSONDecodeError as exc:
        line += text.count(_ROW_BREAK, 0, exc.pos)
        raise ValueError(f"{path}, line {line}: no row of series cells ({exc.msg})") from None
    rows.pop()
    try:
        cells = np.array(rows, dtype=float)
    except ValueError:  # ragged rows
        cells = None
    if cells is None or cells.shape[1] != width:
        k = next(k for k, row in enumerate(rows) if len(row) != width)
        line += k
        raise ValueError(f"{path}, line {line}: the header names {width} columns, the row holds {len(rows[k])}")
    if (cells == 0).any() and _INT_MINUS_ZERO.search(block):
        # orjson reads the JSON integer -0 as int 0; as -0.0 it keeps its sign
        return _block_cells(_INT_MINUS_ZERO.sub(b"-0.0", block), width, path, line)
    if infinities is not None:
        cells[np.isnan(cells)] = infinities
    return cells


def _pread(fd: int, size: int, offset: int) -> bytes:
    """``os.pread``; where it is missing (Windows, which has no ``os.fork``
    either, so no other process shares the file offset) a seek and a read."""
    if hasattr(os, "pread"):
        return os.pread(fd, size, offset)
    os.lseek(fd, offset, os.SEEK_SET)
    return os.read(fd, size)


def _read_rows(fd: int, start: int, stop: int, out, path, line: int) -> None:
    """Parse the lines in bytes [start, stop) of ``fd``, the first being file
    line ``line``, by ``_pread`` into ``out``, equal-length float64 arrays.
    ``ValueError`` unless they end at ``stop`` and fill ``out``."""
    row, size = 0, _BLOCK_BYTES
    while start < stop:
        want = min(size, stop - start)
        block = _pread(fd, want, start)
        if len(block) < want:
            break
        if start + want < stop:  # whole lines only; the last block ends at stop
            block = block[: block.rfind(_NL) + 1]
        if not block:
            size *= 2
            continue
        cells = _block_cells(block, len(out), path, line + row)
        if row + len(cells) > len(out[0]):
            break
        for column, values in zip(out, cells.T):
            column[row : row + len(cells)] = values
        row, start, size = row + len(cells), start + len(block), _BLOCK_BYTES
    if start != stop or row != len(out[0]):
        raise ValueError(f"{path}: the file changed while it was read")


def read_series_csv(path) -> dict:
    """Read a series CSV back into float64 arrays keyed by column name.

    The grammar is what ``write_series_csv`` writes.  Line 1 is the
    header: distinct, non-empty column names joined by ``,``.  Each
    further line is one row, one cell per column joined by ``,``, and
    every line ends in ``\\n``.  A cell is a JSON number with a
    lowercase ``e`` and a finite double value, or ``inf``, ``-inf`` or
    ``nan``.  A header-only file gives empty columns.  The body is
    parsed by orjson in blocks of about ``_BLOCK_BYTES`` of whole lines,
    into one array per column sized by a first pass that counts the
    lines.  From ``_FORK_MIN_BYTES`` of body on, a forked child parses the
    lines past the first line end at or after the body's byte midpoint into
    shared memory, copied into the columns, beside this process parsing
    those before it; both halves read with ``os.pread``, and the columns
    are the same bits as a read in turn, which parses the body in one pass.

    Raises
    ------
    ValueError
        Naming the file, for an empty file or a bad header, and for
        anything else outside the grammar (``+1.5``, ``.5``, ``1.``,
        ``01``, ``1E5``, ``NaN``, ``true``, an empty cell, a blank line,
        CRLF, a row of the wrong width, ``1e400``), with the 1-based
        line of the first bad row; or if the file changes while it is read.
    """
    with open(path, "rb") as fh:
        header = fh.readline()
        if not header:
            raise ValueError(f"{path}: empty file, no header")
        if not header.endswith(_NL):
            raise ValueError(f"{path}, line 1: the header has no newline")
        try:
            names = header[:-1].decode("utf-8").split(",")
            _check_names(names)
        except ValueError as exc:  # UnicodeDecodeError included
            raise ValueError(f"{path}, line 1: {exc}") from None
        fd = fh.fileno()
        mid = (len(header) + os.fstat(fd).st_size) // 2
        end, n, split, n1 = len(header), 0, None, 0
        while chunk := _pread(fd, _BLOCK_BYTES, end):
            if split is None and (k := chunk.find(_NL, max(mid - end, 0))) >= 0:
                split, n1 = end + k + 1, n + chunk.count(_NL, 0, k + 1)
            n += chunk.count(_NL)
            end += len(chunk)
        fork = end - len(header) >= _FORK_MIN_BYTES and hasattr(os, "fork")
        if split is None or not fork:  # read in turn, one pass covers the body
            split, n1 = end, n
        # one contiguous array per column, as the writer was given them.  A
        # forked child parses the tails into shared memory, copied in below:
        # columns in shared memory would take fresh pages where np.empty
        # reuses what the process freed, and raise the peak of a long run
        columns = {name: np.empty(n) for name in names}
        tails = [shared_array(n - n1) for _ in names] if fork else [column[n1:] for column in columns.values()]
        with ForkedCall(_read_rows, fd, split, end, tails, path, n1 + 2, fork=fork) as rest:
            _read_rows(fd, len(header), split, [column[:n1] for column in columns.values()], path, 2)
            rest.result()
        if fork:
            for column, tail in zip(columns.values(), tails):
                column[n1:] = tail
        if _pread(fd, 1, end):
            raise ValueError(f"{path}: the file changed while it was read")
    return columns


def _jsonable(value):
    """``value`` with each non-finite float, at any depth, as None (JSON null)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_jsonable(item) for item in value]
    return value


def _write_json(path: Path, record: dict) -> dict:
    """Write ``record`` as indented JSON, NaN and infinities as null; return what was written."""
    record = _jsonable(record)
    with _whole_file(path, "", encoding="utf-8") as fh:
        fh.write(json.dumps(record, indent=2) + "\n")
    return record


def summarize_run(run: ScenarioRun, series_file: str | None) -> dict:
    """The run's record: what ran, its verdict, grid and route agreement, floats as computed."""
    verdict = run.verdict
    return {
        "name": run.config.name,
        "kind": run.config.kind,
        "estimator": run.config.estimator,
        "status": verdict.status.value,
        "settle_time": verdict.settle_time,
        "peak_psi": verdict.peak_psi,
        "tail_mean_psi": verdict.tail_mean_psi,
        "diverged": run.diverged,
        "dt": run.grid.dt,
        "n_samples": run.grid.n,
        "t_end_effective": run.grid.t_end,
        "identity_rel_gap": run.identity.rel_gap,
        "identity_max_abs_gap": run.identity.max_abs_gap,
        "identity_scale": run.identity.scale,
        "series_csv": series_file,
    }


def _run_record(config: ScenarioConfig, out_dir: Path, emit_series: bool, simulation: ForkedCall | None = None) -> dict:
    """Execute a scenario, write its series CSV if asked, and return its record."""
    run = execute_scenario(config, simulation)
    series_file = None
    if emit_series:
        series_file = f"{config.name}.csv"
        write_series_csv(out_dir / series_file, run.columns, config.columns)
    return summarize_run(run, series_file)


def run_scenario(config: ScenarioConfig, out_dir, emit_series: bool = True) -> dict:
    """Execute a scenario and write its series CSV and summary JSON.

    Returns the summary record as written.  A diverged simulation still
    succeeds: the series covers the samples computed before truncation
    and the summary carries ``diverged: true``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    record = _run_record(config, out_dir, emit_series)
    return _write_json(out_dir / f"{config.name}.summary.json", record)


# the facts of a run's record that its sweep row repeats
_ROW_FACTS = ("status", "settle_time", "peak_psi", "tail_mean_psi", "identity_rel_gap", "diverged")
_SWEEP_FIELDS = ("value", *_ROW_FACTS, "error")


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
    configured values.  Returns the sweep summary record as written.
    Each odd row's SMIB simulation, past ``_FORK_MIN_SAMPLES``, runs in a
    forked child beside the even row before it, one child at a time;
    analysis and writes stay here, and the files keep their bytes.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows, configs = [], []
    for value in sweep.values:
        row = dict.fromkeys(_SWEEP_FIELDS)  # None: not computed for this row
        row.update(value=value, error="")
        config = None
        try:
            config = parse_scenario(apply_axis(sweep.base_doc, sweep.axis, value))
            config = dataclasses.replace(config, name=sweep.run_name(value))
        except ValueError as exc:  # a ConfigError included
            row["error"] = str(exc)
        rows.append(row)
        configs.append(config)
    for k in range(0, len(rows), 2):
        odd = configs[k + 1] if k + 1 < len(rows) else None
        with _simulation(odd) as odd_sim:
            for row, config, simulation in zip(rows[k : k + 2], configs[k : k + 2], (None, odd_sim)):
                if config is None:
                    continue
                try:
                    record = _run_record(config, out_dir, emit_series, simulation)
                    row.update((name, record[name]) for name in _ROW_FACTS)
                except ValueError as exc:  # a ConfigError included
                    row["error"] = str(exc)

    table_file = f"{sweep.name}.sweep.csv"
    with _whole_file(out_dir / table_file, "", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("axis",) + _SWEEP_FIELDS)
        for row in rows:
            ran = row["status"] is not None
            writer.writerow([sweep.axis] + [_sweep_cell(row[name], ran) for name in _SWEEP_FIELDS])

    summary = {
        "name": sweep.name,
        "axis": sweep.axis,
        "values": list(sweep.values),
        "rows": rows,
        "table_csv": table_file,
    }
    return _write_json(out_dir / f"{sweep.name}.sweep.summary.json", summary)
