"""Scenario and sweep document validation."""

import math

import pytest
import yaml

from syncenergy.config import (
    CSV_COLUMNS,
    MAX_SAMPLES,
    ConfigError,
    apply_axis,
    load_document,
    parse_scenario,
    parse_sweep,
)

SMIB_DOC = """
name: case
description: minimal machine case
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
"""

SYNTH_DOC = """
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


def _doc(text):
    return yaml.safe_load(text)


def _with(text, path, value):
    doc = _doc(text)
    node = doc
    parts = path.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
    if value is None:
        node.pop(parts[-1], None)
    else:
        node[parts[-1]] = value
    return doc


# ---------------------------------------------------------------- scenarios

def test_minimal_smib_scenario_parses():
    cfg = parse_scenario(_doc(SMIB_DOC))
    assert cfg.name == "case"
    assert cfg.kind == "smib"
    assert cfg.grid.n == 5001 and cfg.grid.dt == 0.001
    assert cfg.smib.H == 5.0
    assert cfg.smib.omega_n == pytest.approx(2.0 * math.pi * 60.0)
    assert cfg.fault.t_apply == 1.0
    assert cfg.synthetic is None
    assert cfg.estimator == "fd"
    assert cfg.max_identity_gap == 0.01
    assert cfg.columns == CSV_COLUMNS


def test_policy_disturbance_defaults_to_fault_clearing():
    cfg = parse_scenario(_doc(SMIB_DOC))
    assert cfg.policy.disturbance_end == 1.1
    nofault = _with(SMIB_DOC, "fault", None)
    assert parse_scenario(nofault).policy.disturbance_end is None


def test_pll_frame_follows_machine_frequency():
    cfg = parse_scenario(_with(SMIB_DOC, "system.f_nominal", 50.0))
    assert cfg.smib.omega_n == pytest.approx(100.0 * math.pi)
    assert cfg.pll.omega_o == pytest.approx(100.0 * math.pi)


def test_line_scale_multiplies_only_healthy_reactances():
    cfg = parse_scenario(_with(SMIB_DOC, "system.x_line_scale", 3.0))
    assert cfg.smib.x_line_prefault == pytest.approx(0.6)
    assert cfg.smib.x_line_postfault == pytest.approx(0.6)
    assert cfg.smib.x_line_fault == pytest.approx(1.0)


def test_synthetic_scenario_parses():
    cfg = parse_scenario(_doc(SYNTH_DOC))
    assert cfg.kind == "synthetic"
    assert cfg.smib is None and cfg.fault is None
    assert cfg.synthetic.template == "dual_frequency"
    assert cfg.synthetic.omega1 == 2.0
    assert cfg.synthetic.grid == cfg.grid


def test_output_columns_subset_preserves_canonical_order():
    doc = _with(SMIB_DOC, "output.columns", ["psi_cf", "t", "p"])
    cfg = parse_scenario(doc)
    assert cfg.columns == ("t", "p", "psi_cf")


def test_classifier_thresholds_are_configurable():
    doc = _with(SMIB_DOC, "analysis.classifier", {"eps_sync": 1e-4, "tail_window": 2.0})
    cfg = parse_scenario(doc)
    assert cfg.policy.eps_sync == 1e-4
    assert cfg.policy.tail_window == 2.0


# ----------------------------------------------------------------- rejects

@pytest.mark.parametrize(
    "path, value, fragment",
    [
        ("name", None, "name: required"),
        ("system.kind", "pendulum", "system.kind: expected one of"),
        ("system.H", None, "system.H: required"),
        ("system.H", "five", "system.H: expected a number"),
        ("system.H", True, "system.H: expected a number"),
        ("system.bogus", 1.0, "system.bogus: unknown key"),
        ("grid.dt", -0.001, "grid.dt: must be positive"),
        ("grid.extra", 1.0, "grid.extra: unknown key"),
        ("fault.t_apply", 0.10007, "not a multiple of grid dt"),
        ("fault.t_apply", 7.0, "outside the grid"),
        ("fault.t_clear", 0.5, "clear after"),
        ("analysis.estimator", "magic", "analysis.estimator: expected one of"),
        ("analysis.max_identity_gap", 0.0, "must be positive"),
        ("output.columns", ["nope"], "unknown column"),
        ("output.columns", [], "non-empty list"),
    ],
)
def test_scenario_rejections_carry_dotted_paths(path, value, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_scenario(_with(SMIB_DOC, path, value))


@pytest.mark.parametrize("t_end, dt", [
    (120.0, 1.0e-320),  # t_end/dt overflows to inf
    (120.0, 1.0e-300),  # finite, far past any array size
    (120.0, 1.0e-9),  # 1.2e11 samples
    (float(MAX_SAMPLES), 1.0),  # one sample over the budget
])
def test_grid_sample_budget_is_enforced_at_dt(t_end, dt):
    doc = _with(SYNTH_DOC, "grid", {"t_end": t_end, "dt": dt})
    with pytest.raises(ConfigError, match="grid.dt: t_end/dt gives .* samples; at most") as info:
        parse_scenario(doc)
    assert info.value.path == "grid.dt"


def test_grid_at_the_sample_budget_parses():
    doc = _with(SYNTH_DOC, "grid", {"t_end": float(MAX_SAMPLES - 1), "dt": 1.0})
    assert parse_scenario(doc).grid.n == MAX_SAMPLES


def test_scenario_rejects_negative_inertia_via_model_validation():
    with pytest.raises(ConfigError, match="at system: inertia H must be positive"):
        parse_scenario(_with(SMIB_DOC, "system.H", -2.0))


def test_synthetic_rejects_fault_section():
    doc = _with(SYNTH_DOC, "fault", {"t_apply": 0.5, "t_clear": 0.6})
    with pytest.raises(ConfigError, match="no fault section"):
        parse_scenario(doc)


def test_empty_and_non_mapping_documents_rejected():
    with pytest.raises(ConfigError, match="empty"):
        parse_scenario({})
    with pytest.raises(ConfigError, match="expected a mapping"):
        parse_scenario([1, 2, 3])


def test_unknown_top_level_key_rejected():
    with pytest.raises(ConfigError, match="at extra: unknown key"):
        parse_scenario(_with(SMIB_DOC, "extra", 1.0))


# ------------------------------------------------------------------- sweeps

def _sweep_doc(values):
    return {
        "sweep": {"axis": "system.H", "values": values},
        "base": _doc(SMIB_DOC),
    }


def test_sweep_parses_and_probes_base():
    sw = parse_sweep(_sweep_doc([5.0, 10.0]))
    assert sw.axis == "system.H"
    assert sw.values == (5.0, 10.0)
    assert sw.name == "case"


def test_sweep_axis_values_validated():
    with pytest.raises(ConfigError, match="sweep.values"):
        parse_sweep(_sweep_doc([]))
    with pytest.raises(ConfigError, match=r"sweep.values\[1\]"):
        parse_sweep(_sweep_doc([5.0, "ten"]))


def test_sweep_rejects_values_sharing_a_run_name():
    # both values print as "5" under the :g run-name format, so the second
    # run's output files would overwrite the first's
    with pytest.raises(ConfigError, match=r"at sweep.values\[2\]: .*sweep.values\[0\]"):
        parse_sweep(_sweep_doc([5.0, 6.0, 5.0000001]))


def test_sweep_axis_must_point_into_base():
    doc = _sweep_doc([5.0])
    doc["sweep"]["axis"] = "machine.H"
    with pytest.raises(ConfigError, match="axis parent section not found"):
        parse_sweep(doc)


def test_sweep_rejects_invalid_base():
    doc = _sweep_doc([5.0])
    del doc["base"]["system"]["x_gen"]
    with pytest.raises(ConfigError, match="system.x_gen"):
        parse_sweep(doc)


def test_apply_axis_deep_copies():
    base = _doc(SMIB_DOC)
    out = apply_axis(base, "system.H", 10.0)
    assert out["system"]["H"] == 10.0
    assert base["system"]["H"] == 5.0


# ---------------------------------------------------------------- documents

def test_load_document_accepts_single_yaml(tmp_path):
    path = tmp_path / "one.yaml"
    path.write_text(SMIB_DOC, encoding="utf-8")
    cfg = parse_scenario(load_document(path))
    assert cfg.name == "case"


def test_load_document_rejects_multi_doc_and_bad_yaml(tmp_path):
    multi = tmp_path / "multi.yaml"
    multi.write_text("name: a\n---\nname: b\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="single YAML document"):
        load_document(multi)
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: [unclosed\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_document(bad)
