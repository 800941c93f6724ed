"""Command-line behavior: subcommands, overrides, and exit codes."""

import json
import warnings

import pytest

from syncenergy.cli import bundled_scenarios, main

TONE_YAML = """
name: tone
system:
  kind: synthetic
  template: dual_frequency
  omega1: 2.0
  omega2: 1.0
grid:
  t_end: 2.0
  dt: 0.001
"""

TIGHT_YAML = TONE_YAML + """
analysis:
  max_identity_gap: 1.0e-12
"""

SWEEP_YAML = """
sweep:
  axis: system.mod_depth
  values: [0.0, 0.3]
base:
  name: ripple
  description: Voltage amplitude modulation depth sweep
  system:
    kind: synthetic
    template: amplitude_modulated
    mod_freq: 3.0
  grid:
    t_end: 2.0
    dt: 0.001
"""


@pytest.fixture()
def tone_file(tmp_path):
    path = tmp_path / "tone.yaml"
    path.write_text(TONE_YAML, encoding="utf-8")
    return path


def test_bundled_scenarios_inventory():
    names = set(bundled_scenarios())
    assert {"smib_h5_d0", "smib_h10_d5", "smib_x4", "synth_constant",
            "sweep_inertia"} <= names
    assert all(not name.endswith(".yaml") for name in names)


def test_run_scenario_file(tone_file, tmp_path, capsys):
    code = main(["run", str(tone_file), "--out-dir", str(tmp_path / "out")])
    assert code == 0
    assert "tone: BoundedNotSynchronized" in capsys.readouterr().out
    assert (tmp_path / "out" / "tone.csv").exists()
    assert (tmp_path / "out" / "tone.summary.json").exists()


def test_run_bundled_scenario_by_name(tmp_path, capsys):
    code = main(["run", "synth_constant", "--out-dir", str(tmp_path),
                 "--no-emit-series"])
    assert code == 0
    assert "synth_constant: Synchronized" in capsys.readouterr().out
    assert not (tmp_path / "synth_constant.csv").exists()


def test_run_dt_override_changes_grid(tone_file, tmp_path):
    code = main(["run", str(tone_file), "--out-dir", str(tmp_path / "o"),
                 "--dt", "0.002", "--no-emit-series"])
    assert code == 0
    summary = json.loads((tmp_path / "o" / "tone.summary.json").read_text())
    assert summary["dt"] == 0.002
    assert summary["n_samples"] == 1001


def test_run_estimator_override_recorded(tone_file, tmp_path):
    main(["run", str(tone_file), "--out-dir", str(tmp_path / "o"),
          "--estimator", "pll", "--no-emit-series"])
    summary = json.loads((tmp_path / "o" / "tone.summary.json").read_text())
    assert summary["estimator"] == "pll"


def test_unknown_reference_exits_2(capsys):
    code = main(["run", "no_such_scenario"])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_config_exits_2_with_path(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(TONE_YAML.replace("dt: 0.001", "dt: -0.001"), encoding="utf-8")
    code = main(["run", str(bad)])
    assert code == 2
    assert "config error at grid.dt" in capsys.readouterr().err


def test_run_refuses_a_name_that_leaves_the_out_dir(tmp_path, capsys):
    doc = tmp_path / "work" / "escape.yaml"
    doc.parent.mkdir()
    doc.write_text(TONE_YAML.replace("name: tone", 'name: "../escape"'), encoding="utf-8")
    out = tmp_path / "work" / "out"
    assert main(["run", str(doc), "--out-dir", str(out)]) == 2
    assert "config error at name" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["escape.yaml", "work"]


def test_run_refuses_a_name_past_the_file_name_limit(tmp_path, capsys):
    doc = tmp_path / "long.yaml"
    doc.write_text(TONE_YAML.replace("name: tone", "name: " + "n" * 300), encoding="utf-8")
    assert main(["run", str(doc), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error at name: ") and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["long.yaml"]


@pytest.mark.parametrize("system, path", [
    ("template: variance_cancelling\n  envelope_rate: 1.0e+3", "system.envelope_rate"),
    ("template: dual_frequency\n  omega1: 4000", "system.omega1"),
])
def test_run_refuses_an_unresolved_synthetic_template(tmp_path, capsys, system, path):
    doc = tmp_path / "synth.yaml"
    doc.write_text(f"name: synth\nsystem:\n  kind: synthetic\n  {system}\ngrid:\n  t_end: 2.0\n  dt: 0.001\n",
                   encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(doc), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"config error at {path}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_exits_2_when_derivatives_overflow(tmp_path, capsys):
    """On a grid this fine the differentiated series overflow to inf: the
    run is refused at grid.dt, without numpy warnings on the way."""
    doc = tmp_path / "fine.yaml"
    doc.write_text("""
name: fine
system:
  kind: smib
  H: 5.0
  D: 5.0
  x_gen: 0.3
  x_line_prefault: 0.2
  x_line_fault: 1.0
  x_line_postfault: 0.2
grid:
  t_end: 4.0e-200
  dt: 1.0e-200
""", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", str(doc), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error at grid.dt" in err
    assert "non-finite" in err and "dt=1e-200" in err
    assert "RuntimeWarning" not in err
    assert not list(out.glob("*.csv"))


def test_run_rejects_sweep_document(tmp_path, capsys):
    path = tmp_path / "sw.yaml"
    path.write_text(SWEEP_YAML, encoding="utf-8")
    assert main(["run", str(path)]) == 2
    assert "use the sweep command" in capsys.readouterr().err


def test_sweep_rejects_scenario_document(tone_file, capsys):
    assert main(["sweep", str(tone_file)]) == 2
    assert "use the run command" in capsys.readouterr().err


def test_sweep_runs_and_prints_rows(tmp_path, capsys):
    path = tmp_path / "sw.yaml"
    path.write_text(SWEEP_YAML, encoding="utf-8")
    code = main(["sweep", str(path), "--out-dir", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "system.mod_depth = 0: Synchronized" in out
    assert "system.mod_depth = 0.3: BoundedNotSynchronized" in out
    assert (tmp_path / "out" / "ripple.sweep.csv").exists()


def test_verify_passes_and_prints_order(tone_file, capsys):
    code = main(["verify", str(tone_file)])
    assert code == 0
    out = capsys.readouterr().out
    assert "observed convergence order" in out
    assert "PASS" in out


def test_verify_unmeetable_bound_exits_3(tmp_path, capsys):
    path = tmp_path / "tight.yaml"
    path.write_text(TIGHT_YAML, encoding="utf-8")
    code = main(["verify", str(path)])
    assert code == 3
    assert "FAIL" in capsys.readouterr().out


def test_scenarios_list_shows_kind_tags(capsys):
    assert main(["scenarios", "list"]) == 0
    out = capsys.readouterr().out
    assert "smib_h5_d5" in out
    assert "[sweep]" in out and "[scenario]" in out


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
