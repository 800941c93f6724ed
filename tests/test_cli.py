"""Command-line behavior: subcommands, overrides, and exit codes."""

import base64
import contextlib
import copy
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
import yaml
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_config import BUNDLED_DOCS, EDITS, _damage, _leaves

from syncenergy.cli import bundled_scenarios, main
from syncenergy.config import load_document

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


SMIB_YAML = """
name: machine
system:
  kind: smib
  H: 5.0
  D: 5.0
  x_gen: 0.3
  x_line_prefault: 0.2
  x_line_fault: 1.0
  x_line_postfault: 0.2
fault:
  t_apply: 1.0
  t_clear: 1.1
grid:
  t_end: 2.0
  dt: 0.002
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


def test_an_override_fills_a_null_section(tmp_path):
    """``analysis:`` with no value is an empty section, which --estimator fills."""
    path = tmp_path / "tone.yaml"
    path.write_text(TONE_YAML + "analysis:\n", encoding="utf-8")
    assert main(["run", str(path), "--out-dir", str(tmp_path / "o"), "--estimator", "pll", "--no-emit-series"]) == 0
    summary = json.loads((tmp_path / "o" / "tone.summary.json").read_text())
    assert summary["estimator"] == "pll"


@pytest.mark.parametrize("dt, code", [("0.18", 2), ("0.16", 2), ("0.1", 0)])
def test_pll_run_exits_2_at_grid_dt_past_the_step_bound(tmp_path, capsys, dt, code):
    """Past pll.DT_MAX (0.1531 s) the loop cannot lock: constant phasors
    would read as not synchronized, so the step is refused at grid.dt, also
    below 0.1708 s, where the loop is still stable."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", "synth_constant", "--estimator", "pll", "--dt", dt,
                     "--out-dir", str(tmp_path), "--no-emit-series"]) == code
    out, err = capsys.readouterr()
    if code:
        assert err.startswith("config error at grid.dt: the PLL's discrete loop cannot lock unless dt < 0.1531 s")
        assert err.count("\n") == 1 and f"dt={dt}" in err and out == ""
        assert not list(tmp_path.iterdir())
    else:
        assert err == "" and out.startswith("synth_constant: Synchronized")


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


def _int_limit():
    """Python's reason for refusing the 5 000-digit int, which begins ``Exceeds the limit (4300 digits)``."""
    try:
        int("7" * 5000)
    except ValueError as exc:
        assert str(exc).startswith("Exceeds the limit (4300 digits) for integer string conversion")
        return str(exc)
    return None


@pytest.mark.parametrize(
    "text, line",
    [
        ("a: [\n", "config error: not valid YAML at line 2, column 1: "
                   "expected the node content, but found '<stream end>'"),
        ("a: [", "config error: not valid YAML at line 1, column 5: "
                 "expected the node content, but found '<stream end>'"),
        ("a:\n  b: 1\n c: 2\n", "config error: not valid YAML at line 3, column 2: "
                                "expected <block end>, but found '<block mapping start>'"),
        # PyYAML marks no line for a reader error; its text is kept, on one line
        ("a: 1\x00\n", "config error: not valid YAML: unacceptable character #x0000: special "
                       'characters are not allowed in "<unicode string>", position 4'),
        # valid YAML, but not a mapping
        ("- a\n- b\n", "config error: expected a mapping, got list"),
        # YAML 1.2 keys are unique: the second occurrence is refused where it stands
        ("name: dup\nsystem:\n  kind: synthetic\n  template: dual_frequency\n  omega1: 2.0\n  omega1: 5.0\n",
         "config error: not valid YAML at line 6, column 3: found the key 'omega1' twice"),
        ("system: {kind: synthetic, omega1: 2.0, omega1: 5.0}\n",
         "config error: not valid YAML at line 1, column 40: found the key 'omega1' twice"),
        # PyYAML's composer recurses once per level, and stops far short of 5 000
        ("name: " + "[" * 5000 + "]" * 5000 + "\n", "config error: not valid YAML: nested too deeply to read"),
        # a scalar its constructor refuses is reported where it stands, with Python's reason
        ("a: 2001-13-45\n", "config error: not valid YAML at line 1, column 4: month must be in 1..12"),
        ("a: !!float abc\n", "config error: not valid YAML at line 1, column 4: "
                              "could not convert string to float: 'abc'"),
        ("a: !!int abc\n", "config error: not valid YAML at line 1, column 4: "
                            "invalid literal for int() with base 10: 'abc'"),
        pytest.param("a: " + "7" * 5000 + "\n", f"config error: not valid YAML at line 1, column 4: {_int_limit()}",
                     marks=pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                                              reason="this Python sets no limit on the digits of an int")),
    ],
    ids=["open-flow-then-newline", "open-flow", "bad-indent", "no-mark", "list-at-top-level",
         "repeated-key-block", "repeated-key-flow", "nested-5000-deep",
         "bad-date", "bad-float", "bad-int", "int-past-the-digit-limit"],
)
def test_yaml_syntax_error_exits_2_on_one_line(tmp_path, capsys, text, line):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text, encoding="utf-8")
    assert main(["run", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line + "\n"


def _alias_chain(levels=6, width=10):
    """A flow list of ``levels`` anchored lists, each holding ``width`` aliases of the one before.

    Its text is a few hundred bytes; written out in full, the lists hold
    ``width ** levels`` numbers at the last level alone.
    """
    chain = [f"&a0 [{', '.join(['1.0'] * width)}]"]
    chain += [f"&a{k} [{', '.join([f'*a{k - 1}'] * width)}]" for k in range(1, levels)]
    return f"[{', '.join(chain)}]"


@pytest.mark.parametrize("command, text, line", [
    ("run", SMIB_YAML.replace("H: 5.0", f"H: {_alias_chain()}"),
     "config error at system.H: expected a number, got list"),
    ("run", TONE_YAML + f"output:\n  columns: [{_alias_chain()}]\n",
     "config error at output.columns[0]: expected a string, got list"),
    ("sweep", SWEEP_YAML.replace("values: [0.0, 0.3]", f"values: [{_alias_chain()}]"),
     "config error at sweep.values[0]: expected a number, got list"),
], ids=["system.H", "output.columns", "sweep.values"])
def test_a_refusal_does_not_expand_a_yaml_alias(tmp_path, capsys, command, text, line):
    """A refused list is named by its type. At 6 levels a refusal that spelled
    the list out would print about 5 MB: enough to fail, too little to exhaust memory."""
    path = tmp_path / "alias.yaml"
    path.write_text(text, encoding="utf-8")
    assert len(text) < 600
    assert main([command, str(path), "--out-dir", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line + "\n" and len(captured.err) < 300


@pytest.mark.parametrize("text, line", [
    ("name: 0x" + "f" * 5000 + "\n", "config error at name: expected a string, got int"),
    (SMIB_YAML.replace("H: 5.0", "H: !!binary " + base64.b64encode(bytes(range(256)) * 40).decode()),
     "config error at system.H: expected a number, got bytes"),
    (SMIB_YAML.replace("H: 5.0", 'H: "' + "\\L" * 3000 + '"'),
     "config error at system.H: expected a number, got " + repr("\u2028" * 3000)[:100] + "..."),
    (SMIB_YAML.replace("kind: smib", 'kind: "' + "\\L" * 3000 + '"'),
     "config error at system.kind: expected one of smib, synthetic, got " + repr("\u2028" * 3000)[:100] + "..."),
], ids=["int-past-the-digit-limit", "binary", "line-separators-at-H", "line-separators-at-kind"])
def test_a_refusal_names_a_value_in_about_100_characters(tmp_path, capsys, text, line):
    """An int too long for repr and bytes are named by their type, and
    any other repr is cut at 100 characters: the line stays short
    however long the value's text."""
    path = tmp_path / "long.yaml"
    path.write_text(text, encoding="utf-8")
    assert len(text) > 5000
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line + "\n" and len(captured.err.encode("utf-8")) < 300


@pytest.mark.parametrize("command, text, line", [
    ("run", TONE_YAML.replace("grid:\n  t_end: 2.0\n  dt: 0.001\n", "grid: 5\n"),
     "config error at grid: expected a mapping, got int"),
    ("sweep", SWEEP_YAML.replace("  grid:\n    t_end: 2.0\n    dt: 0.001\n", "  grid: 5\n"),
     "config error at base.grid: expected a mapping, got int"),
    ("sweep", SWEEP_YAML.split("base:")[0], "config error at base: required section missing"),
], ids=["run-grid", "sweep-base-grid", "sweep-no-base"])
def test_an_override_refuses_a_section_that_is_no_mapping_at_its_path(tmp_path, capsys, command, text, line):
    path = tmp_path / "doc.yaml"
    path.write_text(text, encoding="utf-8")
    assert main([command, str(path), "--dt", "0.01", "--out-dir", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == line + "\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv, path, reason",
    [
        (["run", "synth_constant", "--out-dir", "afile"], "afile", "File exists"),
        (["run", "synth_constant", "--out-dir", "afile/sub"], "afile/sub", "Not a directory"),
        (["run", "adir"], "adir", "Is a directory"),
        (["sweep", "adir"], "adir", "Is a directory"),
        (["verify", "adir"], "adir", "Is a directory"),
    ],
)
def test_cli_exits_2_naming_a_path_the_os_refuses(tmp_path, monkeypatch, capsys, argv, path, reason):
    (tmp_path / "afile").write_text("", encoding="utf-8")
    (tmp_path / "adir").mkdir()
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
    assert repr(path) in captured.err and reason in captured.err, captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir", "afile"]


@pytest.mark.parametrize("command, name, first_line, summary", [
    ("run", "synth_constant", "synth_constant: Synchronized", "synth_constant.summary.json"),
    ("sweep", "sweep_distance", "system.x_line_scale = 1: ", "sweep_distance.sweep.summary.json"),
], ids=["run", "sweep"])
def test_an_out_dir_named_after_a_bundled_scenario_does_not_hide_it(tmp_path, monkeypatch, capsys,
                                                                     command, name, first_line, summary):
    """The first run makes the directory ``name``; a path that is not a file
    never hides a bundled name, so the second run reads the same document."""
    monkeypatch.chdir(tmp_path)
    outputs = []
    for _ in range(2):
        assert main([command, name, "--out-dir", name, "--dt", "0.01"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1] and outputs[0].err == ""
    assert outputs[0].out.startswith(first_line)
    assert (tmp_path / name / summary).is_file()


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


@pytest.mark.parametrize("rate, dt, code", [
    (350.0, 1.0e-2, 2), (350.0, 1.0e-3, 2), (350.0, 5.0e-4, 2),
    # below the bound of rate ~ 348.34 set by the current envelope's second derivative
    (348.3, 1.0e-2, 0), (348.3, 1.0e-3, 0), (348.3, 5.0e-4, 0), (348.3, 2.0e-4, 0),
])
def test_variance_cancelling_runs_or_exits_2_at_its_rate(tmp_path, capsys, rate, dt, code):
    doc = tmp_path / "vc.yaml"
    doc.write_text(f"name: vc\nsystem:\n  kind: synthetic\n  template: variance_cancelling\n"
                   f"  envelope_rate: {rate}\ngrid:\n  t_end: 2.0\n  dt: {dt}\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(doc), "--out-dir", str(tmp_path / "out"), "--no-emit-series"]) == code
    err = capsys.readouterr().err
    assert err.startswith("config error at system.envelope_rate: ") if code else err == ""


@pytest.mark.parametrize("system, message", [
    ({"Pm": 5.0}, "no equilibrium: Pm=5.0 exceeds the maximum transfer 2.2000"),
    # the rotor state overflows when the fault applies, and math.sin(inf) fails
    ({"H": 2.0e-308}, "rotor state left the float range in the RK4 step from t=1.0 (math domain error)"),
    # the network solution overflows: (E e^{j delta} - V_inf) / (j x_total)
    ({"E": 1.0e308, "Pm": 0.0}, "d contains non-finite samples"),
    # E V_inf underflows to 0, and the equilibrium angle would divide by it
    ({"E": 1.0e-200, "V_inf": 1.0e-200}, "the product E V_inf of E=1e-200 and V_inf=1e-200 underflows to 0"),
])
def test_run_exits_2_at_system_when_the_machine_fails_to_simulate(tmp_path, capsys, system, message):
    doc = yaml.safe_load(SMIB_YAML)
    doc["system"].update(system)
    path = tmp_path / "machine.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error at system: {message}\n"
    assert not list(tmp_path.glob("out/*"))  # the output directory is empty or was never made


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


def _early_file(tmp_path) -> Path:
    """smib_x4's machine at H = 1e-4 and dt = 0.5: its angle passes the cap
    by the third sample, and the run keeps five, the fewest the analysis takes."""
    doc = yaml.safe_load(bundled_scenarios()["smib_x4"].read_text(encoding="utf-8"))
    doc.update(name="early", fault={"t_apply": 0.5, "t_clear": 1.0}, grid={"t_end": 4.0, "dt": 0.5})
    doc["system"]["H"] = 1.0e-4
    path = tmp_path / "early.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


def test_a_run_that_diverges_before_its_fifth_sample_reports_loss_of_synchronism(tmp_path, capsys):
    """The angle cap fires only from the fifth sample on, so a run that
    diverges at once still succeeds, with the record the analysis needs."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(_early_file(tmp_path)), "--out-dir", str(tmp_path / "out")]) == 0
    assert capsys.readouterr() == ("early: LossOfSynchronism, diverged\n", "")
    summary = json.loads((tmp_path / "out" / "early.summary.json").read_text(encoding="utf-8"))
    assert (summary["status"], summary["diverged"], summary["n_samples"]) == ("LossOfSynchronism", True, 5)


def test_verify_prints_no_nan_order_when_both_gaps_are_not_finite(tmp_path, capsys):
    """A run that diverges by its third sample compares no sample at either
    dt: verify says so instead of printing nan gaps, and fails."""
    code = main(["verify", str(_early_file(tmp_path))])
    assert code == 3
    out = capsys.readouterr().out
    assert out.splitlines()[1:] == [
        "  dt = 0.5: no sample compared",
        "  dt = 0.25: no sample compared",
        "  observed convergence order n/a (no sample compared)",
        "  bound 0.1: FAIL (no sample compared)",
    ]
    assert "nan" not in out and "inf" not in out


def test_verify_prints_no_order_when_both_gaps_are_zero(capsys):
    """Under fd both routes of a constant scenario are exactly 0: the gaps are
    0 at dt and dt/2, no order exists, and the check passes."""
    assert main(["verify", "synth_constant"]) == 0
    out = capsys.readouterr().out
    assert "  dt = 0.001: rel gap 0.000e+00 over " in out
    assert "  dt = 0.0005: rel gap 0.000e+00\n" in out
    assert "  observed convergence order n/a (gap at machine zero)\n" in out
    assert "PASS" in out


def test_verify_takes_no_estimator_option(capsys):
    """verify checks the fd identity, so ``--estimator`` is a usage error there."""
    with pytest.raises(SystemExit) as exc:
        main(["verify", "smib_h5_d0", "--estimator", "pll"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --estimator pll" in capsys.readouterr().err


def test_verify_of_a_pll_document_prints_the_fd_report(tmp_path, capsys):
    """``analysis.estimator: pll`` in the document changes nothing verify prints."""
    assert main(["verify", "synth_dual_freq"]) == 0
    shipped = capsys.readouterr()
    doc = load_document(bundled_scenarios()["synth_dual_freq"])
    doc["analysis"] = dict(doc.get("analysis") or {}, estimator="pll")
    path = tmp_path / "synth_dual_freq.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr() == shipped
    assert "(fd estimator)" in shipped.out and "PASS" in shipped.out


def test_verify_unmeetable_bound_exits_3(tmp_path, capsys):
    path = tmp_path / "tight.yaml"
    path.write_text(TIGHT_YAML, encoding="utf-8")
    code = main(["verify", str(path)])
    assert code == 3
    assert "FAIL" in capsys.readouterr().out


def test_verify_exits_2_when_dt_over_2_passes_the_sample_budget(tmp_path, capsys):
    path = tmp_path / "fine.yaml"
    path.write_text(TONE_YAML.replace("t_end: 2.0", "t_end: 6.0").replace("dt: 0.001", "dt: 1.0e-6"),
                    encoding="utf-8")
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "config error at grid.dt: verify runs 6000001 samples and then 12000001 at dt/2; at most 10000000\n"
    )


def test_scenarios_list_shows_kind_tags(capsys):
    assert main(["scenarios", "list"]) == 0
    out = capsys.readouterr().out
    assert "smib_h5_d5" in out
    assert "[sweep]" in out and "[scenario]" in out
    # every bundled document is a mapping with a description, which the
    # listing reads without a fallback: one line each, ending in its first line
    lines = out.splitlines()
    assert len(lines) == len(bundled_scenarios())
    for line, (name, path) in zip(lines, bundled_scenarios().items()):
        doc = load_document(path)
        assert isinstance(doc, dict)
        description = doc.get("base", doc).get("description")
        assert isinstance(description, str) and description.strip(), name
        kind = "sweep" if "sweep" in doc else "scenario"
        assert line.startswith(f"{name} ") and f" [{kind}] " in line
        assert line.endswith(description.strip().splitlines()[0])


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# ------------------------------------------------------------ CLI contract

def _small(name):
    """A bundled document on a 1001-sample grid; the fault times stay on it."""
    doc = copy.deepcopy(BUNDLED_DOCS[name])
    scenario = doc.get("base", doc)
    scenario["grid"] = {"t_end": 2.0, "dt": 2.0e-3}
    return doc


def _leaf(name, *path):
    return list(_leaves(_small(name))).index(path)


@pytest.mark.parametrize("name, system", [
    ("synth_variance_cancel.yaml", {"v_mag": 1.0e308, "envelope_rate": 7.0}),
    ("smib_x3.yaml", {"E": 1.0e308}),
])
@pytest.mark.parametrize("dt", [2.0e-3, 1.0e-3])
def test_run_exits_2_at_system_when_the_amplitudes_overflow_the_se_scale(tmp_path, capsys, name, system, dt):
    """The SE scale 2 (max|v| max|i|)^2 is past the float range, which no dt
    mends: the run is refused at system, not at grid.dt."""
    doc = _small(name)
    doc["system"].update(system)
    doc["grid"]["dt"] = dt
    path = tmp_path / "doc.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error at system: the SE scale 2 (max|v| max|i|)^2 at max|v|="), err
    assert "is past the float range" in err and err.count("\n") == 1


@settings(deadline=None, max_examples=400)
@given(name=st.sampled_from(sorted(BUNDLED_DOCS)), edits=EDITS)
# a machine that fails to simulate: no equilibrium, a math domain error,
# an overflowing network solution
@example(name="smib_h5_d5.yaml", edits=[(_leaf("smib_h5_d5.yaml", "system", "Pm"), 5.0)])
@example(name="smib_h5_d5.yaml", edits=[(_leaf("smib_h5_d5.yaml", "system", "H"), 2.0e-308)])
@example(name="smib_h5_d5.yaml", edits=[(_leaf("smib_h5_d5.yaml", "system", "E"), 1.0e308),
                                        (_leaf("smib_h5_d5.yaml", "system", "Pm"), 0.0)])
# amplitudes that put the SE scale past the float range
@example(name="synth_variance_cancel.yaml",
         edits=[(_leaf("synth_variance_cancel.yaml", "system", "v_mag"), 1.0e308),
                (_leaf("synth_variance_cancel.yaml", "system", "envelope_rate"), 7.0)])
@example(name="smib_x3.yaml", edits=[(_leaf("smib_x3.yaml", "system", "E"), 1.0e308)])
# a voltage envelope v_mag (1 + mod_depth) past the float range
@example(name="synth_limit_cycle.yaml",
         edits=[(_leaf("synth_limit_cycle.yaml", "system", "v_mag"), 1.6e308),
                (_leaf("synth_limit_cycle.yaml", "system", "mod_depth"), 0.9)])
# sweep errors: a defect in the base, an empty axis, an invalid first value
@example(name="sweep_inertia.yaml", edits=[(_leaf("sweep_inertia.yaml", "base", "system", "D"), {"dt": 1})])
@example(name="sweep_inertia.yaml", edits=[(_leaf("sweep_inertia.yaml", "sweep", "axis"), "")])
@example(name="sweep_inertia.yaml", edits=[(_leaf("sweep_inertia.yaml", "sweep", "values"), [-1.0, 5.0])])
# an axis through a field that is not a section
@example(name="sweep_inertia.yaml", edits=[(_leaf("sweep_inertia.yaml", "sweep", "axis"), "name.x")])
def test_cli_runs_or_exits_2_at_a_field_of_the_document(name, edits):
    """A damaged bundled document runs (exit 0) or exits 2 with one line
    ``config error at <path>``, the path inside the document's own
    sections; no traceback, no warning, and no file outside --out-dir."""
    doc = _damage(_small(name), edits)
    scenario = doc.get("base", doc)
    grid = scenario.get("grid") if isinstance(scenario, dict) else None
    if isinstance(grid, dict):
        t_end, dt = grid.get("t_end"), grid.get("dt")
        numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (t_end, dt))
        # a grid the parser accepts stays within 10^4 samples
        assume(not numbers or not 0 < dt <= t_end or t_end <= 1e4 * dt)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        path = tmp / "doc.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
        command = "sweep" if "sweep" in doc else "run"
        try:
            os.chdir(tmp)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main([command, str(path), "--out-dir", str(tmp / "out"), "--no-emit-series"])
        finally:
            os.chdir(cwd)
        written = sorted(str(p.relative_to(tmp)) for p in tmp.rglob("*"))
    assert code in (0, 2)
    if code == 2:
        message = err.getvalue()
        assert message.startswith("config error at ") and message.count("\n") == 1, message
        field = message[len("config error at "):].split(":")[0]
        assert field.split(".")[0].split("[")[0] in BUNDLED_DOCS[name], message
    else:
        assert err.getvalue() == ""
    assert all(p == "doc.yaml" or p == "out" or p.startswith("out/") for p in written), written
