"""Scenario execution, CSV/JSON emission, sweeps, and route verification."""

import dataclasses
import json

import numpy as np
import pytest
import yaml

from syncenergy.config import CSV_COLUMNS, parse_scenario, parse_sweep
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
    """Floats are written by repr, not by numpy's str, which follows print options."""
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
    back = read_series_csv(path)
    assert tuple(back) == ("t", "p")
    for column in back.values():
        assert column.shape == (0,)
        assert column.dtype == float


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


def test_run_sweep_can_emit_member_series(tmp_path):
    doc = {
        "sweep": {"axis": "system.omega1", "values": [3.0]},
        "base": TONE_DOC,
    }
    summary = run_sweep(parse_sweep(doc), tmp_path, emit_series=True)
    assert (tmp_path / "tone__system_omega1_3.csv").exists()
    assert summary["rows"][0]["status"] == "BoundedNotSynchronized"


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
