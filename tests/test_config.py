"""Scenario and sweep document validation."""

import copy
import math
import pickle
from importlib import resources

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from syncenergy.config import (
    CSV_COLUMNS,
    MAX_SAMPLES,
    NAME_MAX_BYTES,
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
        pytest.param("output.columns", ["nope"], r"output.columns\[0\]: expected one of t, delta",
                     id="output.columns-value13-unknown column"),
        ("output.columns", [], "non-empty list"),
        ("fault.t_apply", 1.0e308, r"fault.t_apply: 1e\+308 is not a multiple of grid dt=0.001"),
        ("name", "", "name: must be a file name"),
        ("name", ".", "name: must be a file name"),
        ("name", "..", "name: must be a file name"),
        ("name", "../escape", "name: must be a file name"),
        ("name", "a/b", "name: must be a file name"),
        ("name", "a\\b", "name: must be a file name"),
        ("name", "a\0b", "name: must be a file name"),
        ("system.omega_n", 100.0, "system.omega_n: unknown key"),
        # an int past the float range is refused, not an OverflowError
        pytest.param("system.H", 10**400, "system.H: must be finite", id="system.H-int1e400"),
        # the policy fields are read in declared order: guard before disturbance_end
        ("analysis.classifier", {"disturbance_end": "x", "guard": "x"},
         "analysis.classifier.guard: expected a number"),
        # the longest output file, <name>.sweep.summary.json, must fit 255 bytes
        pytest.param("name", "n" * 237, r"name: the file name 'n+'\.\.\.\.sweep\.summary\.json takes 256",
                     id="name-237-bytes"),
        pytest.param("name", "\u00e9" * 119, "name: .* takes 257 bytes", id="name-238-utf8-bytes"),
        pytest.param("name", "a\ud800", "name: must be UTF-8 text", id="name-lone-surrogate"),
        # a falsy section is blamed on the section, as a truthy one is
        ("grid", [], "at grid: expected a mapping, got list"),
        ("grid", 0, "at grid: expected a mapping, got int"),
        ("grid", "", "at grid: expected a mapping, got str"),
        ("grid", False, "at grid: expected a mapping, got bool"),
        # 2 pi f_nominal overflows: refused at the field, not by the PLL's omega_o check
        ("system.f_nominal", 1.0e308, r"system.f_nominal: 2 pi f_nominal is past the float range at 1e\+308"),
        # refused at the field the document holds, not at the omega_n it derives
        ("system.f_nominal", -60.0, "at system.f_nominal: must be positive"),
        ("system.f_nominal", 0.0, "at system.f_nominal: must be positive"),
        ("system", None, "at system: required section missing"),
        ("output.columns", ["t", 5], r"at output.columns\[1\]: expected a string, got 5"),
        ("output.columns", 5, "at output.columns: expected a non-empty list, got 5"),
        ("system.H", [5.0], "at system.H: expected a number, got list"),
    ],
)
def test_scenario_rejections_carry_dotted_paths(path, value, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_scenario(_with(SMIB_DOC, path, value))


@pytest.mark.parametrize("path", ["grid.dt", ""])
def test_config_error_survives_pickling(path):
    """A ConfigError sent from a forked child keeps its text and both fields."""
    exc = pickle.loads(pickle.dumps(ConfigError(path, "bad"), pickle.HIGHEST_PROTOCOL))
    assert type(exc) is ConfigError
    assert (str(exc), exc.path, exc.message) == (str(ConfigError(path, "bad")), path, "bad")


def test_longest_name_parses():
    name = "n" * (NAME_MAX_BYTES - len(".sweep.summary.json"))
    assert parse_scenario(_with(SMIB_DOC, "name", name)).name == name


@pytest.mark.parametrize(
    "system, grid, path, fragment",
    [
        # e^(rate t^2 / 2) overflows at t_end = 2 once rate passes 354.9
        ({"template": "variance_cancelling", "envelope_rate": 1.0e3}, None,
         "system.envelope_rate", "reaches e\\^2000 at t=2.0, past the float range"),
        ({"template": "variance_cancelling", "envelope_rate": 355.0}, None,
         "system.envelope_rate", "past the float range"),
        # |omega| dt >= pi: the samples alias the rotation
        ({"omega1": 4000.0}, None, "system.omega1", "4000.0 rad/s aliases at dt=0.001"),
        ({"omega2": -math.pi / 0.001}, None, "system.omega2", "aliases"),
        ({"template": "variance_cancelling", "envelope_rate": 0.5, "omega1": 4000.0}, None,
         "system.omega1", "aliases"),
        ({"template": "amplitude_modulated", "mod_depth": 0.3, "mod_freq": 4000.0}, None,
         "system.mod_freq", "aliases"),
        # the drift template's end frequency is drift_rate * t_end
        ({"template": "frequency_drift", "drift_rate": 2000.0}, None,
         "system.drift_rate", "4000.0 rad/s aliases"),
        ({"omega1": 40.0}, {"t_end": 2.0, "dt": 0.1}, "system.omega1", "aliases at dt=0.1"),
        # the second derivative i_mag (rate + rate^2 t^2) e^(rate t^2/2) of the
        # current envelope, which the analysis takes, overflows once rate passes 348.34
        ({"template": "variance_cancelling", "envelope_rate": 350.0}, None,
         "system.envelope_rate", "second derivative reaches e\\^713.1 at t=2.0, past the float range"),
        ({"template": "variance_cancelling", "envelope_rate": 1.0, "i_mag": 1.0e308}, None,
         "system.envelope_rate", "second derivative reaches e\\^712.8 at t=2.0"),
        # the current envelope itself, where rate + rate^2 t^2 < 1
        ({"template": "variance_cancelling", "envelope_rate": 0.1, "i_mag": 1.7e308}, None,
         "system.envelope_rate", "current envelope i_mag e\\^\\(rate t\\^2/2\\) or its second derivative"),
        # the amplitude_modulated voltage envelope peaks at v_mag (1 + mod_depth)
        ({"template": "amplitude_modulated", "mod_depth": 0.9, "mod_freq": 3.0, "v_mag": 1.6e308}, None,
         "system.v_mag", r"v_mag \(1 \+ mod_depth\) is past the float range at 1\.6e\+308"),
    ],
)
def test_synthetic_template_limits_carry_dotted_paths(system, grid, path, fragment):
    doc = _doc(SYNTH_DOC)
    doc["system"].update(system)
    doc["grid"] = grid or doc["grid"]
    with pytest.raises(ConfigError, match=fragment) as info:
        parse_scenario(doc)
    assert info.value.path == path


@pytest.mark.parametrize("system", [
    {"template": "variance_cancelling", "envelope_rate": 348.3},
    {"omega1": 0.999 * math.pi / 0.001, "omega2": -3141.0},
    {"template": "frequency_drift", "drift_rate": 1570.0},
    # a field the template does not read is not checked
    {"template": "constant_phasor", "omega1": 4000.0},
])
def test_synthetic_templates_within_limits_parse(system):
    doc = _doc(SYNTH_DOC)
    doc["system"].update(system)
    assert parse_scenario(doc).synthetic.template == system.get("template", "dual_frequency")


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


def test_grid_of_four_samples_is_refused_at_grid():
    """The length rule is TimeGrid's, reported at the grid section in its words."""
    doc = _with(SYNTH_DOC, "grid", {"t_end": 3.0, "dt": 1.0})
    with pytest.raises(ConfigError, match="^at grid: grid needs at least 5 samples, got n=4$") as info:
        parse_scenario(doc)
    assert info.value.path == "grid"


def test_scenario_rejects_negative_inertia_via_model_validation():
    with pytest.raises(ConfigError, match="at system: inertia H must be positive"):
        parse_scenario(_with(SMIB_DOC, "system.H", -2.0))


def test_synthetic_system_takes_no_grid_key():
    """The spec's grid comes from the grid section, never from system."""
    with pytest.raises(ConfigError, match="at system.grid: unknown key"):
        parse_scenario(_with(SYNTH_DOC, "system.grid", 1.0))


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
    with pytest.raises(ConfigError, match=r"sweep.values\[0\]: must be finite"):
        parse_sweep(_sweep_doc([10**400]))


def test_sweep_rejects_values_sharing_a_run_name():
    # both values print as "5" under the :g run-name format, so the second
    # run's output files would overwrite the first's
    with pytest.raises(ConfigError, match=r"at sweep.values\[2\]: .*sweep.values\[0\]"):
        parse_sweep(_sweep_doc([5.0, 6.0, 5.0000001]))


def test_sweep_rejects_a_run_name_past_the_file_name_limit():
    doc = _sweep_doc([5.0, 1234567.0])
    doc["base"]["name"] = "n" * (NAME_MAX_BYTES - len(".sweep.summary.json"))
    # <name>__system_H_1.23457e+06.csv takes 236 + 22 + 4 = 262 bytes
    with pytest.raises(ConfigError, match=r"at sweep.values\[1\]: .*\.csv takes 262 bytes; at most 255"):
        parse_sweep(doc)


def test_sweep_axis_must_point_into_base():
    doc = _sweep_doc([5.0])
    doc["sweep"]["axis"] = "machine.H"
    with pytest.raises(ConfigError, match=r"^at base\.machine: unknown key$"):
        parse_sweep(doc)


@pytest.mark.parametrize("axis, message", [
    ("name.x", "at base.name: expected a mapping, got str"),
    ("system.kind", "at base.system.kind: expected a string, got 5.0"),
    ("grid", "at base.grid: expected a mapping, got float"),
    ("output.columns.x", "at base.output.columns: expected a non-empty list, got dict"),
], ids=["name.x", "system.kind", "grid", "output.columns.x"])
def test_sweep_axis_is_judged_by_the_scenario_parser(axis, message):
    doc = _sweep_doc([5.0])
    doc["sweep"]["axis"] = axis
    with pytest.raises(ConfigError) as info:
        parse_sweep(doc)
    assert str(info.value) == message


def test_sweep_rejects_invalid_base():
    doc = _sweep_doc([5.0])
    del doc["base"]["system"]["x_gen"]
    with pytest.raises(ConfigError, match="system.x_gen"):
        parse_sweep(doc)


def test_sweep_base_errors_carry_the_base_prefix():
    doc = _sweep_doc([5.0])
    doc["base"]["system"]["D2"] = 1.0
    with pytest.raises(ConfigError, match=r"at base\.system\.D2: unknown key") as info:
        parse_sweep(doc)
    assert info.value.path == "base.system.D2"


@pytest.mark.parametrize("axis", ["", "system.", ".H", "system..H"])
def test_sweep_rejects_an_empty_axis_segment(axis):
    doc = _sweep_doc([5.0])
    doc["sweep"]["axis"] = axis
    with pytest.raises(ConfigError, match="expected a dotted path of field names") as info:
        parse_sweep(doc)
    assert info.value.path == "sweep.axis"


@pytest.mark.parametrize("section", ["sweep", "base"])
def test_sweep_refuses_a_missing_section_at_its_name(section):
    doc = _sweep_doc([5.0])
    del doc[section]
    with pytest.raises(ConfigError, match=f"at {section}: required section missing") as info:
        parse_sweep(doc)
    assert info.value.path == section


@pytest.mark.parametrize("base, got", [(5, "int"), (["x"], "list")])
def test_sweep_refuses_a_base_that_is_not_a_mapping(base, got):
    doc = _sweep_doc([5.0])
    doc["base"] = base
    with pytest.raises(ConfigError, match=f"^at base: expected a mapping, got {got}$"):
        parse_sweep(doc)


def test_sweep_takes_an_invalid_first_value_as_a_row():
    sw = parse_sweep(_sweep_doc([-1.0, 5.0]))
    assert sw.values == (-1.0, 5.0)
    assert sw.name == "case"


def test_sweep_with_no_valid_value_fails_at_the_first_error():
    with pytest.raises(ConfigError, match="at base.system: inertia H must be positive, got -1.0") as info:
        parse_sweep(_sweep_doc([-1.0, -2.0]))
    assert info.value.path == "base.system"


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


def test_load_document_lets_a_key_override_a_merged_one(tmp_path):
    """A ``<<`` merge is not a repeated key: a key of the mapping itself overrides a merged one."""
    path = tmp_path / "merge.yaml"
    path.write_text(SYNTH_DOC.replace("  template:", "  <<: {template: dual_frequency, omega1: 5.0}\n  template:"),
                    encoding="utf-8")
    assert parse_scenario(load_document(path)).synthetic.omega1 == 2.0


# ------------------------------------------------------------- robustness

BUNDLED_DOCS = {
    entry.name: yaml.safe_load(entry.read_text(encoding="utf-8"))
    for entry in resources.files("syncenergy").joinpath("scenarios").iterdir()
    if entry.name.endswith(".yaml")
}
DELETE = object()
JUNK = st.one_of(
    st.sampled_from([
        DELETE, None, True, False, "", "../x", "a/b", "fd", 0, -1, 7, [], [1.0], {}, {"dt": 1},
        5e-324, -5e-324, 2.0e-308, 1.0e308, -1.0e308, 10**400, [10**400],
    ]),
    st.text(max_size=4),
    st.integers(),
    st.lists(st.integers(min_value=-3, max_value=3), max_size=3),
)


def _leaves(node, prefix=()):
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _leaves(value, prefix + (key,))
        else:
            yield prefix + (key,)


def _damage(doc, edits):
    """Apply (leaf index, JUNK value) edits to ``doc`` in place; the index
    wraps around the leaf count, and DELETE removes the leaf."""
    leaves = list(_leaves(doc))
    for k, value in edits:
        path = leaves[k % len(leaves)]
        node = doc
        for key in path[:-1]:
            node = node[key]
        if value is DELETE:
            node.pop(path[-1], None)
        else:
            node[path[-1]] = copy.deepcopy(value)
    return doc


FAULT_T_APPLY = list(_leaves(BUNDLED_DOCS["smib_h5_d5.yaml"])).index(("fault", "t_apply"))


# 1-3 leaf edits of a bundled document
EDITS = st.lists(st.tuples(st.integers(min_value=0, max_value=99), JUNK), min_size=1, max_size=3)


@settings(deadline=None, max_examples=300)
@given(name=st.sampled_from(sorted(BUNDLED_DOCS)), edits=EDITS)
@example(name="smib_h5_d5.yaml", edits=[(FAULT_T_APPLY, 1.0e308)])
def test_damaged_bundled_documents_parse_or_raise_config_error(name, edits):
    """Replacing or deleting 1-3 leaves of a bundled document gives a
    config or a ConfigError, never another exception (parsing only)."""
    doc = _damage(copy.deepcopy(BUNDLED_DOCS[name]), edits)
    try:
        (parse_sweep if "sweep" in doc else parse_scenario)(doc)
    except ConfigError:
        pass
