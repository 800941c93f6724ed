"""Scenario execution, CSV/JSON emission, sweeps, and route verification."""

import csv
import dataclasses
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from syncenergy import runner
from syncenergy.config import CSV_COLUMNS, ConfigError, apply_axis, load_document, parse_scenario, parse_sweep
from syncenergy.metric import SyncStatus
from syncenergy.runner import (
    execute_scenario,
    read_series_csv,
    run_scenario,
    run_sweep,
    verify_scenario,
    write_series_csv,
)
from syncenergy.signals import TimeGrid

SMIB_DOC = yaml.safe_load("""
name: case
system:
  kind: smib
  H: 5.0
  D: 0.0
  x_gen: 0.3
  x_line_prefault: 0.2
  x_line_fault: 1.0
  x_line_postfault: 0.2
fault:
  t_apply: 1.0
  t_clear: 1.1
grid:
  t_end: 5.0
  dt: 0.001
""")

ESCAPE_DOC = yaml.safe_load("""
name: escape
system:
  kind: smib
  H: 5.0
  D: 5.0
  x_gen: 0.3
  x_line_prefault: 0.8
  x_line_fault: 999.0
  x_line_postfault: 0.8
fault:
  t_apply: 1.0
  t_clear: 1.1
grid:
  t_end: 20.0
  dt: 0.001
""")

TONE_DOC = yaml.safe_load("""
name: tone
system:
  kind: synthetic
  template: dual_frequency
  omega1: 2.0
  omega2: 1.0
grid:
  t_end: 2.0
  dt: 0.001
""")


# --------------------------------------------------------- execute_scenario

def test_execute_smib_scenario():
    run = execute_scenario(parse_scenario(SMIB_DOC))
    assert run.verdict.status is SyncStatus.BOUNDED_NOT_SYNCHRONIZED
    assert not run.diverged
    assert run.grid.n == 5001
    assert set(run.columns) == set(CSV_COLUMNS)
    assert run.identity.rel_gap < 0.01


def test_execute_synthetic_scenario_has_nan_machine_columns():
    run = execute_scenario(parse_scenario(TONE_DOC))
    assert np.isnan(run.columns["delta"]).all()
    assert np.isnan(run.columns["omega_pu"]).all()
    np.testing.assert_allclose(run.columns["psi_cf"][2:-2], 2.0, rtol=1e-9)


def test_execute_divergent_scenario_overrides_verdict():
    """Truncation by the angle cap is itself the loss-of-synchronism signal,
    whatever the short post-fault record would classify as."""
    run = execute_scenario(parse_scenario(ESCAPE_DOC))
    assert run.diverged
    assert run.grid.n < 20001
    assert run.verdict.status is SyncStatus.LOSS_OF_SYNCHRONISM
    assert run.verdict.settle_time is None


# --------------------------------------------------------------- series CSV

def test_series_csv_roundtrip_is_exact(tmp_path):
    run = execute_scenario(parse_scenario(TONE_DOC))
    path = tmp_path / "tone.csv"
    write_series_csv(path, run.columns)
    back = read_series_csv(path)
    assert tuple(back) == CSV_COLUMNS
    for name in CSV_COLUMNS:
        np.testing.assert_array_equal(
            back[name], run.columns[name], err_msg=name
        )


def test_series_csv_ignores_numpy_print_options(tmp_path):
    """Floats are written as repr spells them, not by numpy's str, which follows print options."""
    path = tmp_path / "legacy.csv"
    with np.printoptions(legacy="1.13"):
        write_series_csv(path, {"t": np.array([0.1 + 0.2, 1.0 / 3.0])}, ("t",))
    assert path.read_text(encoding="utf-8") == "t\n0.30000000000000004\n0.3333333333333333\n"


def test_series_csv_respects_column_selection(tmp_path):
    run = execute_scenario(parse_scenario(TONE_DOC))
    path = tmp_path / "slim.csv"
    write_series_csv(path, run.columns, ("t", "psi_cf"))
    back = read_series_csv(path)
    assert tuple(back) == ("t", "psi_cf")


def test_series_csv_nan_round_trips(tmp_path):
    run = execute_scenario(parse_scenario(TONE_DOC))
    path = tmp_path / "nan.csv"
    write_series_csv(path, run.columns, ("t", "delta"))
    back = read_series_csv(path)
    assert np.isnan(back["delta"]).all()


def test_series_csv_header_only_reads_as_empty_columns(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("t,p\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = read_series_csv(path)
    assert tuple(back) == ("t", "p")
    for column in back.values():
        assert column.shape == (0,)
        assert column.dtype == float


@pytest.mark.parametrize("body", [
    "0.0,1.0\n2.0\n",  # ragged row
    "0.0,1.0\n2.0,x\n",  # non-numeric cell
    "0.0,1.0\n#2.0,3.0\n",  # not a comment: a non-numeric cell
    "0.0\n1.0\n",  # every row narrower than the header
    "0.0,1.0,2.0\n",  # a row wider than the header
])
def test_series_csv_malformed_body_raises_value_error(tmp_path, body):
    path = tmp_path / "bad.csv"
    path.write_text("t,p\n" + body, encoding="utf-8")
    with pytest.raises(ValueError):
        read_series_csv(path)


@pytest.mark.parametrize("cell", [
    "+1.5", ".5", "1.", "01", "1E5", "Infinity", "NaN", "-nan", " 1.5", "1e400",
    "true", "false", "null", '"1.0"', "[1.0]", "{}", "",
])
def test_series_csv_refuses_cells_outside_the_writer_grammar(tmp_path, cell):
    """Spellings np.loadtxt took, and JSON tokens that are no numbers, are refused at their line."""
    path = tmp_path / "bad.csv"
    path.write_text(f"t,p,q\n0.0,1.0,2.0\n1.0,{cell},2.0\n3.0,4.0,5.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}, line 3: ")):
        read_series_csv(path)


@pytest.mark.parametrize("body, line", [
    ("0.0,1.0\r\n", 2),  # CRLF line end
    ("0.0,1.0\n\n2.0,3.0\n", 3),  # blank line
    ("0.0,1.0\n2.0\n4.0,5.0\n", 3),  # ragged row
    ("0.0,1.0\n2.0,3.0,4.0\n", 3),  # a row wider than the header
    ("0.0,1.0\n2.0,3.0", 3),  # the last line has no newline
])
def test_series_csv_refusal_names_the_line_of_the_first_bad_row(tmp_path, body, line):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"t,p\n" + body.encode("ascii"))
    with pytest.raises(ValueError, match=re.escape(f"{path}, line {line}: ")):
        read_series_csv(path)


def test_series_csv_bad_cell_past_the_first_block_names_its_line(tmp_path):
    n_good = runner._BLOCK_BYTES // 4 + 1000  # 4 bytes a row: the bad row sits in the second block
    path = tmp_path / "long.csv"
    path.write_bytes(b"t\n" + b"0.0\n" * n_good + b"1.0\n+1.5\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}, line {n_good + 3}: ")):
        read_series_csv(path)


def _split(data: bytes) -> tuple:
    """The reader's split of a series file: the first line end at or after
    the body's byte midpoint, and the rows before it."""
    start = data.index(b"\n") + 1
    split = data.index(b"\n", (start + len(data)) // 2) + 1
    return split, data.count(b"\n", start, split)


@pytest.mark.parametrize("fork", [True, False], ids=["forked", "in-turn"])
@pytest.mark.parametrize("half", ["first", "second"])
@pytest.mark.parametrize("change", ["grow", "shrink"])
def test_series_csv_refuses_a_file_that_changes_while_it_is_read(tmp_path, monkeypatch, nothing_left, change, half,
                                                                 fork):
    """The line count of the first pass sized the columns and, for a forked
    read, split them in two halves; a file that then gains or loses whole
    rows, while either half (read in turn, in one pass, the block holding
    that half's first line) is read, is refused, not read short or past its
    end."""
    path = tmp_path / "moving.csv"
    rng = np.random.default_rng(7)
    write_series_csv(path, {"t": np.arange(20_000) * 1e-3, "p": rng.standard_normal(20_000)}, ("t", "p"))
    data = path.read_bytes()
    split, n1 = _split(data)
    assert split - data.index(b"\n") > 3 * runner._BLOCK_BYTES and len(data) - split > 3 * runner._BLOCK_BYTES
    start, first_line = (data.index(b"\n") + 1, 2) if half == "first" else (split, n1 + 2)
    block_cells = runner._block_cells

    def changing(block, width, path_, line):
        if line <= first_line < line + block.count(b"\n"):  # the block holding the half's first line
            if change == "grow":
                with open(path, "ab") as fh:
                    fh.write(b"0.0,0.0\n" * 10)
            else:  # at a line end two blocks into the half, so no half row is left
                os.truncate(path, data.index(b"\n", start + 2 * runner._BLOCK_BYTES) + 1)
        return block_cells(block, width, path_, line)

    monkeypatch.setattr(runner, "_block_cells", changing)
    monkeypatch.setattr(runner, "_FORK_MIN_BYTES", 0 if fork else len(data))
    with pytest.raises(ValueError, match="changed while it was read"):
        read_series_csv(path)


@pytest.mark.parametrize("text, fault", [
    ("", "empty file"),
    ("t,p", "line 1: the header has no newline"),
    ("t,t\n0.0,1.0\n", "line 1: column name 't' is repeated"),
    ("t,\n0.0,1.0\n", "line 1: column name '' is empty"),
    ("\n", "line 1: column name '' is empty"),
])
def test_series_csv_refuses_a_bad_header(tmp_path, text, fault):
    path = tmp_path / "header.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}") + ".*" + re.escape(fault)):
        read_series_csv(path)


@pytest.mark.parametrize("order, fault", [
    (("t", "t"), "column name 't' is repeated"),
    (("t", ""), "column name '' is empty"),
    (("a,b",), "column name 'a,b' is empty or holds"),
    (("a\nb",), "column name 'a\\nb' is empty or holds"),
    (("a\rb",), "column name 'a\\rb' is empty or holds"),
    ((), "no columns named"),
])
def test_series_csv_writer_refuses_a_header_it_cannot_read_back(tmp_path, order, fault):
    path = tmp_path / "names.csv"
    columns = {name: np.zeros(3) for name in order}
    with pytest.raises(ValueError, match=re.escape(fault)):
        write_series_csv(path, columns, order)
    assert not path.exists()


def test_series_csv_refuses_columns_of_different_lengths(tmp_path):
    path = tmp_path / "ragged.csv"
    columns = {"t": np.zeros(5), "p": np.zeros(4)}
    with pytest.raises(ValueError, match=r"column 'p' holds 4 samples, column 't' holds 5"):
        write_series_csv(path, columns, ("t", "p"))
    assert not path.exists()


def _repr_series_csv(path, columns, order):
    """Reference writer: every cell formatted by ``repr``, one row at a time."""
    arrays = [np.asarray(columns[name], dtype=float).tolist() for name in order]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(order) + "\n")
        for row in zip(*arrays):
            fh.write(",".join(map(repr, row)) + "\n")


def _loadtxt_series_csv(path):
    """Reference reader: the body parsed by ``np.loadtxt``."""
    with open(path, "r", encoding="utf-8") as fh:
        names = fh.readline().rstrip("\n").split(",")
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(fh, delimiter=",", comments=None, dtype=float, ndmin=2)
    data = data.reshape(-1, len(names))
    return {name: data[:, k] for k, name in enumerate(names)}


def _assert_same_bits(got, want):
    assert tuple(got) == tuple(want)
    for name in want:
        assert got[name].shape == want[name].shape and got[name].dtype == float, name
        nan = np.isnan(want[name])
        np.testing.assert_array_equal(np.isnan(got[name]), nan, err_msg=name)
        assert got[name][~nan].tobytes() == want[name][~nan].tobytes(), name


def _finite_spelling(x: float, digits: int) -> str:
    """``x`` in the writer's repr or with ``digits`` mantissa digits (e+NN / e-0N exponents)."""
    return repr(x) if digits < 0 else f"{x:.{digits}e}"


_FINITE_CELL = st.builds(
    _finite_spelling, st.floats(allow_nan=False, allow_infinity=False), st.integers(-1, 17)
).filter(lambda text: np.isfinite(float(text)))  # a rounded spelling may pass the float range

_CELL = st.one_of(
    _FINITE_CELL,
    st.integers(-(10**25), 10**25).map(str),  # JSON ints, also past 64 bits
    st.sampled_from(["-0", "0", "-0.0", "0.0", "-0e0", "1e-0", "1e+00", "5e-324", "inf", "-inf", "nan"]),
)


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(1, 4),
    block_bytes=st.sampled_from([1, 32, 256, runner._BLOCK_BYTES]),  # 1: every line its own block
    fork_min_bytes=st.sampled_from([0, runner._FORK_MIN_BYTES]),  # 0: the second half in a forked child
    data=st.data(),
)
def test_series_csv_reader_matches_loadtxt_on_the_writer_grammar(width, block_bytes, fork_min_bytes, data):
    rows = data.draw(st.lists(st.lists(_CELL, min_size=width, max_size=width), max_size=40))
    names = CSV_COLUMNS[:width]
    body = "".join(",".join(row) + "\n" for row in rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cells.csv"
        path.write_text(",".join(names) + "\n" + body, encoding="utf-8")
        with mock.patch.object(runner, "_BLOCK_BYTES", block_bytes), \
                mock.patch.object(runner, "_FORK_MIN_BYTES", fork_min_bytes):
            got = read_series_csv(path)
        want = _loadtxt_series_csv(path)
    _assert_same_bits(got, want)


def _decade_neighbours(*decades):
    return [x for d in decades for x in (np.nextafter(d, 0.0), d, np.nextafter(d, np.inf))]


# cells no random bit pattern is likely to hit, and the edges where the
# spellings of repr and orjson part: 1e-5 <= |x| < 1e-4 and |x| >= 1e16
_SPECIAL_FLOATS = np.array([
    0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324, 1e-310, 2.2250738585072009e-308,
    2.2250738585072014e-308, np.finfo(float).max, -np.finfo(float).max, 0.1 + 0.2, 1.0 / 3.0,
    1.5e-5, -1.5e-5, 5e-05, 1.234e-05, -9.99e-05, 1.2345678901234567e-05,
    *_decade_neighbours(1e-5, -1e-5, 1e-4, -1e-4, 1e16, -1e16),
])


def _bit_patterns(n_rows: int, names, seed: int) -> dict:
    """Columns of random bit patterns, one cell in ten drawn from ``_SPECIAL_FLOATS``."""
    rng = np.random.default_rng(seed)
    columns = {}
    for name in names:
        col = rng.integers(0, 2**64, size=n_rows, dtype=np.uint64, endpoint=False).view(float)
        where = rng.random(n_rows) < 0.1
        col[where] = rng.choice(_SPECIAL_FLOATS, size=int(where.sum()))
        columns[name] = col
    return columns


# both sides of the writer's chunk edges, ending on an odd and an even chunk count
_CHUNK_EDGES = [k * runner._CHUNK_ROWS + d for k in (1, 2, 3) for d in (-1, 0, 1)]


@settings(max_examples=30, deadline=None)
@given(
    # 4 095 rows of one column (~22 bytes a cell) span two reader blocks,
    # 20 000 rows many
    n_rows=st.sampled_from([0, 1, 4095, 20_000, *_CHUNK_EDGES]),
    names=st.permutations(CSV_COLUMNS).flatmap(lambda p: st.integers(1, 5).map(lambda k: tuple(p[:k]))),
    seed=st.integers(0, 2**32 - 1),
    fork_min_cells=st.sampled_from([0, runner._FORK_MIN_CELLS]),  # 0: the second half in a forked child
)
@example(n_rows=2 * runner._CHUNK_ROWS + 1, names=CSV_COLUMNS, seed=0, fork_min_cells=0)
def test_series_csv_round_trips_every_bit_pattern(n_rows, names, seed, fork_min_cells):
    columns = _bit_patterns(n_rows, names, seed)
    threads = threading.active_count()
    with tempfile.TemporaryDirectory() as tmp:
        path, reference = Path(tmp) / "bits.csv", Path(tmp) / "reference.csv"
        with mock.patch.object(runner, "_FORK_MIN_CELLS", fork_min_cells):
            write_series_csv(path, columns, names)
        assert threading.active_count() == threads  # no thread outlives the write
        _repr_series_csv(reference, columns, names)
        assert path.read_bytes() == reference.read_bytes()
        assert n_rows < 4095 or path.stat().st_size > runner._BLOCK_BYTES
        back = read_series_csv(path)
    _assert_same_bits(back, columns)


@pytest.mark.parametrize("failing", [1, 2])  # chunk 1 in the calling process, chunk 2 in the child
def test_series_csv_writer_raises_a_formatting_error_from_either_process(tmp_path, monkeypatch, nothing_left,
                                                                          failing):
    n_rows = 4 * runner._CHUNK_ROWS
    columns = {"t": np.arange(float(n_rows)), "p": np.ones(n_rows)}
    parent, format_rows = os.getpid(), runner._csv_rows

    def flaky(block):
        chunk = int(block[0, 0]) // runner._CHUNK_ROWS
        assert (os.getpid() == parent) == (chunk < 2)
        if chunk == failing:
            raise RuntimeError(f"chunk {failing}")
        return format_rows(block)

    monkeypatch.setattr(runner, "_csv_rows", flaky)
    monkeypatch.setattr(runner, "_FORK_MIN_CELLS", 0)
    with pytest.raises(RuntimeError) as raised:
        write_series_csv(tmp_path / "s.csv", columns, ("t", "p"))
    assert (type(raised.value), str(raised.value)) == (RuntimeError, f"chunk {failing}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_series_csv_writes_the_same_bytes_forked_and_in_turn(tmp_path, monkeypatch, nothing_left, counting_forks,
                                                              without_fork, offset):
    """A series of at least ``_FORK_MIN_CELLS`` cells has its second half written by a forked child."""
    names = ("t", "p", "q")
    columns = _bit_patterns(3001, names, 12)
    monkeypatch.setattr(runner, "_FORK_MIN_CELLS", 3 * 3001 + offset)
    _repr_series_csv(tmp_path / "reference.csv", columns, names)
    _, forks = counting_forks(write_series_csv, tmp_path / "written.csv", columns, names)
    assert forks == (offset <= 0)
    without_fork(write_series_csv, tmp_path / "in_turn.csv", columns, names)
    want = (tmp_path / "reference.csv").read_bytes()
    assert (tmp_path / "written.csv").read_bytes() == want
    assert (tmp_path / "in_turn.csv").read_bytes() == want
    assert sorted(path.name for path in tmp_path.iterdir()) == ["in_turn.csv", "reference.csv", "written.csv"]


@pytest.mark.parametrize("earlier", [False, True], ids=["new", "replacing"])
@pytest.mark.parametrize("at", ["write", "rename"])
@pytest.mark.parametrize("output", ["series", "json"])
def test_a_failed_write_leaves_no_file_and_no_temporary(tmp_path, monkeypatch, output, at, earlier):
    """A write that fails half-way (a full disk) or at its rename leaves no
    truncated file under the final name, no temporary file, and an earlier
    whole file as it was."""
    full_disk = OSError(28, "No space left on device")
    path = tmp_path / ("s.csv" if output == "series" else "s.summary.json")
    if earlier:
        path.write_bytes(b"t,p\n0.0,1.0\n")
    if at == "rename":
        monkeypatch.setattr(runner.os, "replace", mock.Mock(side_effect=full_disk))
    elif output == "series":
        format_rows = runner._csv_rows

        def flaky(block):
            if int(block[0, 0]) // runner._CHUNK_ROWS == failing:
                raise full_disk
            return format_rows(block)

        monkeypatch.setattr(runner, "_csv_rows", flaky)
        monkeypatch.setattr(runner, "_FORK_MIN_CELLS", 0)  # the second half in a forked child
    else:
        monkeypatch.setattr(runner.json, "dumps", mock.Mock(side_effect=full_disk))
    n_rows = 4 * runner._CHUNK_ROWS
    # a series write fails once in each half: chunk 1 in this process, chunk 2 in the child
    for failing in (1, 2) if output == "series" and at == "write" else (None,):
        with pytest.raises(OSError, match="No space left on device"):
            if output == "series":
                write_series_csv(path, {"t": np.arange(float(n_rows)), "p": np.ones(n_rows)}, ("t", "p"))
            else:
                runner._write_json(path, {"name": "s"})
        assert [p.name for p in tmp_path.iterdir()] == ([path.name] if earlier else [])
        if earlier:
            assert path.read_bytes() == b"t,p\n0.0,1.0\n"


@pytest.mark.parametrize("module, unwanted", [
    ("syncenergy.cli", ("concurrent.futures", "logging", "multiprocessing")),
    ("syncenergy.config", ("syncenergy.runner", "syncenergy.cli", "orjson",
                           "concurrent.futures", "multiprocessing")),
], ids=["cli", "config"])
def test_importing_the_package_loads_no_executor(module, unwanted):
    """No import loads concurrent.futures, which loads logging and queue,
    a start-up cost of every run: the package forks with os and pickle
    alone, no pool of threads or processes.  Importing
    one module loads only what that module needs: config, which parses the
    documents, needs neither the runner nor its CSV codec."""
    code = f"import sys, {module}; print(sorted(set({unwanted!r}) & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(runner.__file__).parents[1]))  # this copy of the package
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"


def test_a_run_leaves_no_executor_and_no_thread(tmp_path):
    """A full run, series included, uses the second core by forking alone:
    no executor is loaded and no thread but the main one is left."""
    code = ("import sys, threading; from syncenergy import cli; "
            f"assert cli.main(['run', 'smib_h5_d5', '--out-dir', {str(tmp_path)!r}]) == 0; "
            "print('concurrent.futures' in sys.modules, threading.active_count())")
    env = dict(os.environ, PYTHONPATH=str(Path(runner.__file__).parents[1]))  # this copy of the package
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.endswith("\nFalse 1\n")
    assert (tmp_path / "smib_h5_d5.csv").stat().st_size > 0


# ------------------------------------------------------------- run_scenario

def test_run_scenario_emits_csv_and_summary(tmp_path):
    summary = run_scenario(parse_scenario(SMIB_DOC), tmp_path)
    assert (tmp_path / "case.csv").exists()
    on_disk = json.loads((tmp_path / "case.summary.json").read_text())
    assert on_disk == summary
    assert summary["status"] == "BoundedNotSynchronized"
    assert summary["settle_time"] is None
    assert summary["diverged"] is False
    assert summary["series_csv"] == "case.csv"
    assert summary["n_samples"] == 5001


def test_outputs_are_created_as_the_umask_allows(tmp_path):
    """Written under a temporary name, the outputs still get the mode an
    ordinary open gives, not mkstemp's 0600."""
    umask = os.umask(0o022)
    os.umask(umask)
    run_scenario(parse_scenario(TONE_DOC), tmp_path)
    modes = {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()}
    assert modes == {"tone.csv": 0o666 & ~umask, "tone.summary.json": 0o666 & ~umask}


def test_run_scenario_can_skip_series(tmp_path):
    summary = run_scenario(parse_scenario(TONE_DOC), tmp_path, emit_series=False)
    assert not (tmp_path / "tone.csv").exists()
    assert summary["series_csv"] is None
    assert (tmp_path / "tone.summary.json").exists()


def test_run_scenario_reports_truncated_grid(tmp_path):
    summary = run_scenario(parse_scenario(ESCAPE_DOC), tmp_path, emit_series=False)
    assert summary["diverged"] is True
    assert summary["status"] == "LossOfSynchronism"
    assert summary["t_end_effective"] < 5.0


# ---------------------------------------------------------------- run_sweep

def test_run_sweep_tabulates_and_continues_past_errors(tmp_path):
    doc = {
        "sweep": {"axis": "system.H", "values": [5.0, -1.0, 10.0]},
        "base": SMIB_DOC,
    }
    summary = run_sweep(parse_sweep(doc), tmp_path)
    rows = summary["rows"]
    assert [row["value"] for row in rows] == [5.0, -1.0, 10.0]
    assert rows[0]["status"] == "BoundedNotSynchronized"
    assert rows[1]["status"] is None
    assert "inertia H must be positive" in rows[1]["error"]
    assert rows[2]["status"] == "BoundedNotSynchronized"
    assert rows[0]["peak_psi"] > rows[2]["peak_psi"]

    table = (tmp_path / "case.sweep.csv").read_text().splitlines()
    assert table[0] == "axis," + ",".join(
        ("value", "status", "settle_time", "peak_psi", "tail_mean_psi",
         "identity_rel_gap", "diverged", "error")
    )
    assert len(table) == 4
    assert table[1].startswith("system.H,5.0,BoundedNotSynchronized,")


def test_run_sweep_records_a_failing_simulation_at_system(tmp_path):
    doc = {"sweep": {"axis": "system.Pm", "values": [5.0, 0.9]}, "base": SMIB_DOC}
    rows = run_sweep(parse_sweep(doc), tmp_path)["rows"]
    assert rows[0]["status"] is None
    assert rows[0]["error"].startswith("at system: no equilibrium: Pm=5.0 exceeds the maximum transfer")
    assert rows[1]["status"] == "BoundedNotSynchronized"


def _table_text(value) -> str:
    """How the sweep table spells a summary field of a run that ran."""
    if value is None:
        return "nan"
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else value


# horizons cut short, but long enough for a settle time (D = 5) and a divergence (x4)
@pytest.mark.parametrize("name, t_end", [("sweep_damping", 60.0), ("sweep_distance", 5.0), ("sweep_inertia", 5.0)])
def test_sweep_rows_agree_with_the_run_summary_of_their_value(tmp_path, bundled_dir, name, t_end):
    """A sweep row carries the facts of the run summary at its value, and its table spells them."""
    with resources.as_file(bundled_dir.joinpath(f"{name}.yaml")) as path:
        doc = load_document(path)
    doc["base"]["grid"]["t_end"] = t_end
    sweep = parse_sweep(doc)
    summary = run_sweep(sweep, tmp_path / "sweep")
    with open(tmp_path / "sweep" / summary["table_csv"], encoding="utf-8", newline="") as fh:
        table = list(csv.DictReader(fh))
    facts = ("status", "settle_time", "peak_psi", "tail_mean_psi", "identity_rel_gap", "diverged")
    assert len(summary["rows"]) == len(table) == len(sweep.values)
    for value, row, cells in zip(sweep.values, summary["rows"], table):
        config = parse_scenario(apply_axis(sweep.base_doc, sweep.axis, value))
        config = dataclasses.replace(config, name=sweep.run_name(value))
        run = run_scenario(config, tmp_path / "runs", emit_series=False)
        assert row["error"] == ""
        assert {key: row[key] for key in facts} == {key: run[key] for key in facts}
        assert {key: cells[key] for key in facts} == {key: _table_text(run[key]) for key in facts}


def test_run_sweep_can_emit_member_series(tmp_path):
    doc = {
        "sweep": {"axis": "system.omega1", "values": [3.0]},
        "base": TONE_DOC,
    }
    summary = run_sweep(parse_sweep(doc), tmp_path, emit_series=True)
    assert (tmp_path / "tone__system_omega1_3.csv").exists()
    assert summary["rows"][0]["status"] == "BoundedNotSynchronized"


def test_sweep_axis_may_name_a_field_in_a_section_the_base_omits(tmp_path):
    """The base has no analysis section: each row runs as if its value were
    written into an explicit analysis.classifier section.  Damped, the swing
    falls below eps_sync times its peak within 30 s at 1e-3 only."""
    base = dict(SMIB_DOC, system=dict(SMIB_DOC["system"], D=5.0), grid={"t_end": 30.0, "dt": 0.001})
    sweep = parse_sweep({"sweep": {"axis": "analysis.classifier.eps_sync", "values": [1e-6, 1e-3]}, "base": base})
    rows = run_sweep(sweep, tmp_path / "sweep")["rows"]
    assert [row["status"] for row in rows] == ["BoundedNotSynchronized", "Synchronized"]
    facts = ("status", "settle_time", "peak_psi", "tail_mean_psi", "identity_rel_gap", "diverged")
    for value, row in zip(sweep.values, rows):
        explicit = dict(base, name=sweep.run_name(value), analysis={"classifier": {"eps_sync": value}})
        run = run_scenario(parse_scenario(explicit), tmp_path / "runs", emit_series=False)
        assert row["error"] == ""
        assert {key: row[key] for key in facts} == {key: run[key] for key in facts}


# ---------------------------------------------------------- verify_scenario

def test_verify_reports_second_order_shrink():
    config = parse_scenario(TONE_DOC)
    report = verify_scenario(config)
    assert report.passed
    assert report.coarse.rel_gap < 1e-6
    assert report.fine.rel_gap < report.coarse.rel_gap
    assert report.order == pytest.approx(2.0, abs=0.3)


def test_verify_fails_on_unmeetable_bound():
    config = dataclasses.replace(parse_scenario(TONE_DOC), max_identity_gap=1e-12)
    report = verify_scenario(config)
    assert not report.passed
    assert report.bound == 1e-12


def test_verify_halves_the_step():
    config = parse_scenario(TONE_DOC)
    report = verify_scenario(config)
    assert report.coarse.n_compared == config.grid.n - 4
    assert report.fine.n_compared == 2 * config.grid.n - 1 - 4


@pytest.mark.parametrize("doc", [TONE_DOC, SMIB_DOC], ids=["synthetic", "smib"])
def test_verify_analyses_both_grids_with_fd(doc):
    """The identity verify checks holds for the stencil's frequencies, so a
    scenario under pll gets the fd report, where the PLL's gap is larger."""
    config = parse_scenario(doc)
    pll = dataclasses.replace(config, estimator="pll")
    report = verify_scenario(pll)
    assert repr(report) == repr(verify_scenario(config))
    assert execute_scenario(pll).identity.rel_gap > report.coarse.rel_gap


def test_verify_refuses_a_grid_it_would_double_past_the_sample_budget(monkeypatch):
    doc = dict(TONE_DOC, grid={"t_end": 5.0, "dt": 1.0e-6})
    config = parse_scenario(doc)
    assert config.grid.n == 5_000_001  # parses; at dt/2 it would take 10 000 001

    def never(config):
        raise AssertionError("verify ran a scenario it had to refuse")

    monkeypatch.setattr(runner, "execute_scenario", never)
    with pytest.raises(ConfigError, match=r"at grid\.dt: verify runs 5000001 samples and then 10000001 at dt/2"):
        verify_scenario(config)


# ----------------------------------------- SMIB simulations in a forked child

def _long(doc, t_end=7.0):
    """``doc`` on a grid of t_end / 1e-3 + 1 samples (7 001: past the fork's break-even)."""
    return dict(doc, grid={"t_end": t_end, "dt": 0.001})


def _files(directory: Path) -> dict:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


@pytest.mark.parametrize("doc", [_long(SMIB_DOC, 2.0), _long(SMIB_DOC, 3.0), _long(SMIB_DOC), TONE_DOC],
                         ids=["smib-2001", "smib-3001", "smib-7001", "synthetic"])
def test_verify_gives_the_same_report_with_and_without_fork(nothing_left, counting_forks, without_fork, doc):
    """The dt/2 grid simulates in a child where it reaches the break-even."""
    config = parse_scenario(doc)
    report, forks = counting_forks(verify_scenario, config)
    assert forks == (config.kind == "smib" and 2 * config.grid.n - 1 >= runner._FORK_MIN_SAMPLES)
    assert repr(report) == repr(without_fork(verify_scenario, config))


@pytest.mark.parametrize("values, t_end", [([0.0, 5.0, 10.0], 7.0), ([0.0, 5.0, 10.0, 2.0], 7.0),
                                           ([0.0, 5.0, 10.0], 5.0)])
def test_sweep_gives_the_same_files_with_and_without_fork(tmp_path, nothing_left, counting_forks, without_fork,
                                                          values, t_end):
    """Each odd row simulates in a child beside the even row before it, where
    its grid reaches the break-even, and each series past the writer's
    break-even writes its second half in a child; records, table and series
    keep their bytes."""
    sweep = parse_sweep({"sweep": {"axis": "system.D", "values": values}, "base": _long(SMIB_DOC, t_end)})
    summary, forks = counting_forks(run_sweep, sweep, tmp_path / "forked", emit_series=True)
    base = parse_scenario(sweep.base_doc)
    n = base.grid.n
    assert forks == ((len(values) // 2 if n >= runner._FORK_MIN_SAMPLES else 0)
                     + (len(values) if n * len(base.columns) >= runner._FORK_MIN_CELLS else 0))
    assert summary == without_fork(run_sweep, sweep, tmp_path / "in_turn", emit_series=True)
    assert len(_files(tmp_path / "forked")) == len(values) + 2
    assert _files(tmp_path / "forked") == _files(tmp_path / "in_turn")


def test_a_sweep_row_whose_simulation_fails_in_the_child_keeps_its_error(tmp_path, nothing_left, counting_forks,
                                                                         without_fork):
    sweep = parse_sweep({"sweep": {"axis": "system.Pm", "values": [0.9, 5.0]}, "base": _long(SMIB_DOC)})
    summary, forks = counting_forks(run_sweep, sweep, tmp_path / "forked")
    assert forks == 1
    rows = summary["rows"]
    assert rows[0]["status"] == "BoundedNotSynchronized" and rows[1]["status"] is None
    assert rows[1]["error"].startswith("at system: no equilibrium: Pm=5.0 exceeds the maximum transfer")
    assert summary == without_fork(run_sweep, sweep, tmp_path / "in_turn")


def test_an_error_writing_the_even_row_kills_and_reaps_the_odd_rows_child(tmp_path, monkeypatch, nothing_left):
    """The odd row's child would simulate for a minute; the even row's
    OSError ends it at once."""
    parent, simulate = os.getpid(), runner.smib_simulate

    def slow_in_child(*args):
        if os.getpid() != parent:
            time.sleep(60.0)
        return simulate(*args)

    def full_disk(path, columns, order):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(runner, "smib_simulate", slow_in_child)
    monkeypatch.setattr(runner, "write_series_csv", full_disk)
    sweep = parse_sweep({"sweep": {"axis": "system.D", "values": [0.0, 5.0]}, "base": _long(SMIB_DOC)})
    start = time.perf_counter()
    with pytest.raises(OSError, match="No space left on device"):
        run_sweep(sweep, tmp_path, emit_series=True)
    assert time.perf_counter() - start < 30.0


# ------------------------------------- the series reader's second half in a child

def _series_file(path) -> dict:
    """6 000 rows of three columns of bit patterns written to ``path``; the columns."""
    columns = _bit_patterns(6000, ("t", "p", "q"), 11)
    write_series_csv(path, columns, tuple(columns))
    return columns


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_series_csv_reads_the_same_bits_forked_and_in_turn(tmp_path, monkeypatch, nothing_left, counting_forks,
                                                            without_fork, offset):
    """A body of at least ``_FORK_MIN_BYTES`` has its second half parsed in a forked child."""
    path = tmp_path / "bits.csv"
    columns = _series_file(path)
    body = path.stat().st_size - len("t,p,q\n")
    monkeypatch.setattr(runner, "_FORK_MIN_BYTES", body + offset)
    back, forks = counting_forks(read_series_csv, path)
    assert forks == (offset <= 0)
    _assert_same_bits(back, columns)
    _assert_same_bits(without_fork(read_series_csv, path), columns)
    assert all(column.flags.c_contiguous and column.flags.owndata for column in back.values())


@pytest.mark.parametrize("fork", [True, False], ids=["forked", "in-turn"])
def test_series_csv_read_in_turn_parses_the_body_in_one_pass(tmp_path, monkeypatch, nothing_left, without_fork,
                                                              fork):
    """Read in turn (a short body, or no os.fork), one ``_read_rows`` call
    covers the body; forked, this process parses the rows before the split."""
    path = tmp_path / "bits.csv"
    columns = _series_file(path)
    data = path.read_bytes()
    header, split = data.index(b"\n") + 1, _split(data)[0]
    calls, read_rows = [], runner._read_rows

    def recording(fd, start, stop, *args):
        calls.append((start, stop))
        return read_rows(fd, start, stop, *args)

    monkeypatch.setattr(runner, "_read_rows", recording)
    monkeypatch.setattr(runner, "_FORK_MIN_BYTES", 0 if fork else len(data))
    _assert_same_bits(read_series_csv(path), columns)
    whole = [(header, len(data)), (len(data), len(data))]  # the second call reads the empty tail
    assert calls == ([(header, split)] if fork else whole)
    if fork:
        calls.clear()
        _assert_same_bits(without_fork(read_series_csv, path), columns)
        assert calls == whole


@pytest.mark.parametrize("bad, fault", [
    (b"+1.5", "no row of series cells"),
    (b"1.0,x", "is in no series cell"),
    (b"1.0,2.0,3.0,4.0", "the header names 3 columns, the row holds 4"),
])
def test_series_csv_names_a_bad_row_in_the_childs_half_as_the_in_turn_read(tmp_path, monkeypatch, nothing_left,
                                                                           without_fork, bad, fault):
    path = tmp_path / "bad.csv"
    _series_file(path)
    data = path.read_bytes()
    split, n1 = _split(data)
    at = data.index(b"\n", split + 3000) + 1  # a row some lines past the split, in the child's half
    path.write_bytes(data[:at] + bad + data[data.index(b"\n", at) :])
    line = n1 + 2 + data.count(b"\n", split, at)
    monkeypatch.setattr(runner, "_FORK_MIN_BYTES", 0)
    with pytest.raises(ValueError) as forked:
        read_series_csv(path)
    with pytest.raises(ValueError) as in_turn:
        without_fork(read_series_csv, path)
    assert str(forked.value) == str(in_turn.value)
    assert str(forked.value).startswith(f"{path}, line {line}: ") and fault in str(forked.value)


def test_series_csv_names_the_first_halfs_bad_row_and_ends_the_child(tmp_path, monkeypatch, nothing_left):
    """With a bad row in each half, the first is reported; the child, which
    would parse for a minute, is killed and reaped at once."""
    path = tmp_path / "bad.csv"
    _series_file(path)
    data = path.read_bytes()
    split, _ = _split(data)
    first = data.index(b"\n", 1000) + 1
    second = data.index(b"\n", split + 1000) + 1
    path.write_bytes(data[:first] + b"+" + data[first:second] + b"+" + data[second:])
    parent, block_cells = os.getpid(), runner._block_cells

    def slow_in_child(*args):
        if os.getpid() != parent:
            time.sleep(60.0)
        return block_cells(*args)

    monkeypatch.setattr(runner, "_block_cells", slow_in_child)
    monkeypatch.setattr(runner, "_FORK_MIN_BYTES", 0)
    line = data.count(b"\n", 0, first) + 1
    start = time.perf_counter()
    with pytest.raises(ValueError, match=re.escape(f"{path}, line {line}: ")):
        read_series_csv(path)
    assert time.perf_counter() - start < 30.0


@pytest.mark.parametrize("name", ["smib_h5_d5", "synth_dual_freq"])
def test_bundled_series_read_back_bit_for_bit(tmp_path, scenario_runs, nothing_left, counting_forks, without_fork,
                                              name):
    """The emitted series of a bundled scenario reads back to the run's
    columns, forked (both bodies pass the break-even) and in turn."""
    run = scenario_runs(name)
    path = tmp_path / f"{name}.csv"
    write_series_csv(path, run.columns, run.config.columns)
    want = {column: run.columns[column] for column in run.config.columns}
    back, forks = counting_forks(read_series_csv, path)
    assert forks == 1
    _assert_same_bits(back, want)
    _assert_same_bits(without_fork(read_series_csv, path), want)
