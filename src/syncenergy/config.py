"""Scenario and sweep configuration files.

A scenario is a single YAML document with the sections

    name:        identifier used for output files; a file name, so not
                 empty, . or .., without /, \\ or NUL, and short enough
                 for its longest output file name to fit NAME_MAX_BYTES
    description: free text, shown by ``scenarios list``
    system:      kind: smib | synthetic, plus model fields
    fault:       t_apply / t_clear (smib only, optional)
    grid:        t_end / dt (t0 is always 0)
    analysis:    estimator, identity bound, classifier thresholds
    output:      columns subset (optional)

and a sweep wraps a scenario under ``base:`` plus a ``sweep:`` section
naming one numeric field (dotted path) and the values to scan.

Validation is strict: unknown keys anywhere are rejected, and every
error carries a dotted path so callers can report it.  The value
checks, ``_number`` and ``_string``, own the rules of one value: its
type, finiteness, positivity and choices, reported at its path
(``config error at grid.dt: must be positive``).  ``_field`` finds a
field and hands its value to one of them, ``_list`` checks a list,
which may not be empty, entry by entry at ``path[k]``
(``sweep.values[1]``), and ``_mapping`` reads a section.
``apply_axis`` is the one walk into a document along a dotted path: it
reads each section on the way with ``_mapping`` and writes a sweep's
axis value or a CLI override, and the parser judges what it writes.
A refusal names bytes and a list or mapping that has entries by its
type (``expected a number, got list``), as it does an int too long to
print, and any other value by its repr cut to 100 characters, so it
is never longer than the document text behind it, however many times
a YAML alias repeats that text.  ``load_document`` refuses a key given
twice in one mapping, a scalar its constructor refuses, at its line and
column, and nesting too deep for PyYAML to read.  A model's own
checks are reported at its section (``config error at system: inertia
H must be positive, got -1.0``).  The model sections read the fields of
their dataclasses (SmibParams, SyntheticSpec, FaultSchedule,
ClassifierPolicy), and an absent optional key takes the dataclass's own
default, so each default lives only on its dataclass.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import yaml

from .metric import ClassifierPolicy
from .pipeline import ESTIMATORS
from .pll import PllParams
from .simulator import FaultSchedule, SmibParams, SyntheticSpec
from .signals import TimeGrid

# column order of emitted series files; selections must stay within it
CSV_COLUMNS = (
    "t",
    "delta",
    "omega_pu",
    "v_d",
    "v_q",
    "i_d",
    "i_q",
    "p",
    "q",
    "rho_v",
    "omega_v",
    "rho_i",
    "omega_i",
    "psi_cf",
    "psi_numeric",
    "psi_normalized",
    "freq_term",
    "var_term",
)

# most samples a grid may ask for: an analysed sample holds about 220 bytes
MAX_SAMPLES = 10**7

# longest file name, in bytes, that common file systems accept
NAME_MAX_BYTES = 255
# longest suffix the runner appends to a scenario name
_LONGEST_SUFFIX = ".sweep.summary.json"

# template fields holding an angular frequency (rad/s) that must stay below Nyquist
_TEMPLATE_FREQUENCIES = {
    "dual_frequency": ("omega1", "omega2"),
    "amplitude_modulated": ("mod_freq",),
    "variance_cancelling": ("omega1",),
}

class ConfigError(ValueError):
    """Invalid configuration; ``path`` is the dotted field location."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        self.message = message
        super().__init__(f"at {path}: {message}" if path else message)

    def __reduce__(self):
        # args holds only the formatted text: rebuild from the two fields
        return type(self), (self.path, self.message)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _got(value) -> str:
    """A refused value as a refusal names it, in at most about 100 characters.

    Bytes, or a list or mapping with entries, are named by their type: a
    YAML alias costs a few bytes of text however large the value it
    repeats, so spelling out a list could print far more than was read.
    So is an int too long for ``repr``; any other repr is cut at 100
    characters.
    """
    if isinstance(value, (bytes, list, dict)) and value:
        return type(value).__name__
    try:
        text = repr(value)
    except ValueError:  # an int past Python's limit on digits in a string
        return type(value).__name__
    return text if len(text) <= 100 else text[:100] + "..."


def _mapping(node, path: str, required: bool = False) -> dict:
    """A copy of section ``node`` to pop fields from; an absent section is empty, or refused when required."""
    if node is not None and not isinstance(node, dict):
        raise ConfigError(path, f"expected a mapping, got {type(node).__name__}")
    if required and not node:
        raise ConfigError(path, "required section missing")
    return dict(node or {})


def _reject_unknown(node: dict, path: str) -> None:
    if node:
        key = sorted(str(k) for k in node)[0]
        raise ConfigError(_join(path, key), "unknown key")


def _field(node: dict, key: str, path: str, read, default=None, required: bool = False, **rule):
    """Pop ``key`` from ``node`` and check it with ``read(value, path.key, **rule)``."""
    if key in node:
        return read(node.pop(key), _join(path, key), **rule)
    if required:
        raise ConfigError(_join(path, key), "required field missing")
    return default


def _list(node: dict, key: str, path: str, read, **rule) -> list:
    """Pop the non-empty list ``key`` from ``node`` and check each entry with ``read`` at ``path.key[k]``."""
    path, values = _join(path, key), node.pop(key, None)
    if not isinstance(values, list) or not values:
        raise ConfigError(path, f"expected a non-empty list, got {_got(values)}")
    return [read(value, f"{path}[{k}]", **rule) for k, value in enumerate(values)]


def _number(value, path: str, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {_got(value)}")
    if not abs(value) <= sys.float_info.max:  # compares ints exactly, where float() overflows
        raise ConfigError(path, "must be finite")
    if positive and not value > 0:
        raise ConfigError(path, "must be positive")
    return float(value)


def _string(value, path: str, choices: tuple = ()) -> str:
    if not isinstance(value, str):
        raise ConfigError(path, f"expected a string, got {_got(value)}")
    if choices and value not in choices:
        raise ConfigError(path, f"expected one of {', '.join(choices)}, got {_got(value)}")
    return value


def _read_fields(cls, node: dict, path: str, skip: tuple = ()) -> dict:
    """Numeric fields of dataclass ``cls`` in declared order; absent optional ones are left out."""
    values = {}
    for f in fields(cls):
        if f.name in skip:
            continue
        required = f.default is MISSING and f.default_factory is MISSING
        value = _field(node, f.name, path, _number, required=required)
        if value is not None:
            values[f.name] = value
    return values


def _build(cls, path: str, values: dict):
    """Construct ``cls``, reporting its own validation errors at ``path``."""
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


@dataclass
class ScenarioConfig:
    """Fully validated scenario, ready to execute."""

    name: str
    kind: str
    grid: TimeGrid
    smib: SmibParams | None = None
    fault: FaultSchedule | None = None
    synthetic: SyntheticSpec | None = None
    estimator: str = "fd"
    pll: PllParams = field(default_factory=PllParams)
    policy: ClassifierPolicy = field(default_factory=ClassifierPolicy)
    max_identity_gap: float = 0.01
    columns: tuple = CSV_COLUMNS


@dataclass
class SweepConfig:
    """One numeric axis scanned over a base scenario document."""

    axis: str
    values: tuple
    base_doc: dict
    name: str

    def run_name(self, value: float) -> str:
        """Name of the run at one axis value, used for its output files."""
        return f"{self.name}__{self.axis.replace('.', '_')}_{value:g}"


def _parse_grid(node, path: str) -> TimeGrid:
    node = _mapping(node, path)
    t_end = _field(node, "t_end", path, _number, required=True, positive=True)
    dt = _field(node, "dt", path, _number, required=True, positive=True)
    _reject_unknown(node, path)
    steps = t_end / dt
    if not math.isfinite(steps) or round(steps) + 1 > MAX_SAMPLES:
        raise ConfigError(_join(path, "dt"), f"t_end/dt gives {steps + 1:.10g} samples; at most {MAX_SAMPLES}")
    n = int(round(steps)) + 1
    if n < 5:
        raise ConfigError(path, f"t_end/dt gives only {n} samples; need at least 5")
    return TimeGrid(0.0, dt, n)


def _parse_smib(node: dict, path: str) -> SmibParams:
    scale = _field(node, "x_line_scale", path, _number, default=1.0, positive=True)
    values = _read_fields(SmibParams, node, path, skip=("omega_n",))
    values["x_line_prefault"] *= scale
    values["x_line_postfault"] *= scale
    f_nominal = _field(node, "f_nominal", path, _number, positive=True)
    if f_nominal is not None:
        values["omega_n"] = 2.0 * math.pi * f_nominal
        if values["omega_n"] == math.inf:
            raise ConfigError(_join(path, "f_nominal"), f"2 pi f_nominal is past the float range at {_got(f_nominal)}")
    _reject_unknown(node, path)
    return _build(SmibParams, path, values)


def _parse_synthetic(node: dict, path: str, grid: TimeGrid) -> SyntheticSpec:
    template = _field(node, "template", path, _string, required=True)
    values = _read_fields(SyntheticSpec, node, path, skip=("template", "grid"))
    _reject_unknown(node, path)
    spec = _build(SyntheticSpec, path, dict(values, template=template, grid=grid))
    # the closed forms hold only for a signal the grid resolves
    omegas = {key: getattr(spec, key) for key in _TEMPLATE_FREQUENCIES.get(template, ())}
    if template == "frequency_drift":
        omegas["drift_rate"] = spec.drift_rate * grid.t_end  # the end frequency
    for key, omega in omegas.items():
        if abs(omega) * grid.dt >= math.pi:
            raise ConfigError(
                _join(path, key), f"{_got(omega)} rad/s aliases at dt={_got(grid.dt)}: |omega| dt must stay below pi"
            )
    if template == "amplitude_modulated" and not math.isfinite(spec.v_mag * (1.0 + spec.mod_depth)):
        raise ConfigError(_join(path, "v_mag"), f"v_mag (1 + mod_depth) is past the float range at {_got(spec.v_mag)}")
    if template == "variance_cancelling":
        rate, t_end = spec.envelope_rate, grid.t_end
        exponent = rate * t_end * t_end / 2.0
        # the current envelope is scaled by i_mag, and the analysis takes
        # its second derivative i_mag (rate + rate^2 t^2) e^(rate t^2/2)
        current = math.log(spec.i_mag) + math.log(max(1.0, rate + rate * rate * t_end * t_end)) + exponent
        for what, log_peak in (
            ("envelope e^(rate t^2/2)", exponent),
            ("current envelope i_mag e^(rate t^2/2) or its second derivative", current),
        ):
            if log_peak > math.log(sys.float_info.max):
                raise ConfigError(
                    _join(path, "envelope_rate"),
                    f"{what} reaches e^{log_peak:.4g} at t={_got(t_end)}, past the float range",
                )
    return spec


def _parse_fault(node, path: str, grid: TimeGrid) -> FaultSchedule:
    node = _mapping(node, path)
    values = _read_fields(FaultSchedule, node, path)
    _reject_unknown(node, path)
    for label, t in values.items():
        if not grid.on_grid(t):
            raise ConfigError(_join(path, label), f"{t} is not a multiple of grid dt={grid.dt}")
        if not 0.0 < t < grid.t_end:
            raise ConfigError(_join(path, label), f"{t} lies outside the grid (0, {grid.t_end})")
    return _build(FaultSchedule, path, values)


def _parse_policy(node, path: str, disturbance_default: float | None) -> ClassifierPolicy:
    node = _mapping(node, path)
    values = _read_fields(ClassifierPolicy, node, path)
    values.setdefault("disturbance_end", disturbance_default)
    _reject_unknown(node, path)
    return _build(ClassifierPolicy, path, values)


def _check_file_name(stem: str, suffix: str, path: str) -> None:
    """Reject an output file name that common file systems do not accept."""
    try:
        size = len((stem + suffix).encode("utf-8"))
    except UnicodeEncodeError as exc:
        raise ConfigError(path, f"must be UTF-8 text: {exc.reason} at character {exc.start}") from exc
    if size > NAME_MAX_BYTES:
        raise ConfigError(
            path, f"the file name {_got(stem[:16])}...{suffix} takes {size} bytes; at most {NAME_MAX_BYTES}"
        )


def parse_scenario(doc) -> ScenarioConfig:
    """Validate a raw YAML document into a :class:`ScenarioConfig`.

    Raises
    ------
    ConfigError
        On any schema or value violation, with the dotted field path.
    """
    top = _mapping(doc, "")
    if not top:
        raise ConfigError("", "scenario is empty")
    name = _field(top, "name", "", _string, required=True)
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ConfigError(
            "name", f"must be a file name: not empty, . or .., and without /, \\ or NUL; got {_got(name)}"
        )
    _check_file_name(name, _LONGEST_SUFFIX, "name")
    _field(top, "description", "", _string)  # checked only: `scenarios list` reads the raw document
    system = _mapping(top.pop("system", None), "system", required=True)
    grid = _parse_grid(top.pop("grid", None), "grid")
    kind = _field(system, "kind", "system", _string, required=True, choices=("smib", "synthetic"))

    smib = fault = synthetic = None
    if kind == "smib":
        smib = _parse_smib(system, "system")
        if "fault" in top:
            fault = _parse_fault(top.pop("fault"), "fault", grid)
    else:
        synthetic = _parse_synthetic(system, "system", grid)
        if "fault" in top:
            raise ConfigError("fault", "synthetic scenarios take no fault section")

    analysis = _mapping(top.pop("analysis", None), "analysis")
    estimator = _field(analysis, "estimator", "analysis", _string, default=ScenarioConfig.estimator, choices=ESTIMATORS)
    max_gap = _field(
        analysis, "max_identity_gap", "analysis", _number, default=ScenarioConfig.max_identity_gap, positive=True
    )
    disturbance_default = fault.t_clear if fault is not None else None
    policy = _parse_policy(analysis.pop("classifier", None), "analysis.classifier", disturbance_default)
    _reject_unknown(analysis, "analysis")

    output = _mapping(top.pop("output", None), "output")
    columns = ScenarioConfig.columns
    if "columns" in output:
        raw = _list(output, "columns", "output", _string, choices=CSV_COLUMNS)
        columns = tuple(col for col in CSV_COLUMNS if col in raw)
    _reject_unknown(output, "output")
    _reject_unknown(top, "")

    omega_o = smib.omega_n if smib is not None else PllParams().omega_o
    return ScenarioConfig(
        name=name,
        kind=kind,
        grid=grid,
        smib=smib,
        fault=fault,
        synthetic=synthetic,
        estimator=estimator,
        pll=PllParams(omega_o=omega_o),
        policy=policy,
        max_identity_gap=max_gap,
        columns=columns,
    )


def parse_sweep(doc) -> SweepConfig:
    """Validate a sweep document: a base scenario plus one numeric axis."""
    top = _mapping(doc, "")
    sweep = _mapping(top.pop("sweep", None), "sweep", required=True)
    axis = _field(sweep, "axis", "sweep", _string, required=True)
    if "" in axis.split("."):
        raise ConfigError("sweep.axis", f"expected a dotted path of field names, got {_got(axis)}")
    values = _list(sweep, "values", "sweep", _number)
    _reject_unknown(sweep, "sweep")

    base = _mapping(top.pop("base", None), "base", required=True)
    _reject_unknown(top, "")

    # the base must give a valid scenario at one value at least; the others become error rows
    error = None
    for value in values:
        try:
            parsed = parse_scenario(apply_axis(base, axis, value))
            break
        except ConfigError as exc:
            error = error or exc
    else:
        raise ConfigError(_join("base", error.path) if error.path else "base", error.message) from error
    config = SweepConfig(axis=axis, values=tuple(values), base_doc=base, name=parsed.name)
    first = {}
    for k, value in enumerate(values):
        name = config.run_name(value)
        if name in first:
            raise ConfigError(
                f"sweep.values[{k}]",
                f"{_got(value)} gives the run name {_got(name)} of sweep.values[{first[name]}]",
            )
        first[name] = k
        _check_file_name(name, ".csv", f"sweep.values[{k}]")
    return config


def apply_axis(doc, axis: str, value) -> dict:
    """A copy of ``doc`` with the field at dotted path ``axis`` set to ``value``; ``doc`` is left as it is.

    The one walk into a document: each section on the way is read by
    ``_mapping``, so an absent or null one becomes empty and any other
    value that is not a mapping is refused at its dotted path.  Only the
    sections on the path are copied; the parser copies what it reads.
    """
    top = node = _mapping(doc, "")
    *sections, key = axis.split(".")
    for k, section in enumerate(sections):
        node[section] = _mapping(node.get(section), ".".join(sections[: k + 1]))
        node = node[section]
    node[key] = value
    return top


class _UniqueKeyLoader(yaml.SafeLoader):
    """PyYAML's safe loader, refusing a key that a mapping gives twice (YAML 1.2 keys are unique)."""

    def construct_mapping(self, node, deep=False):
        own = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"]  # a key may override a merged one
        mapping = super().construct_mapping(node, deep=deep)  # refuses an unhashable key
        seen = set()
        for key_node in own:
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                problem = f"found the key {_got(key)} twice"
                raise yaml.constructor.ConstructorError(None, None, problem, key_node.start_mark)
            seen.add(key)
        return mapping

    def construct_object(self, node, deep=False):
        try:
            return super().construct_object(node, deep=deep)
        except ValueError as exc:  # a scalar its constructor refuses: a bad date, an int past the digit limit
            raise yaml.constructor.ConstructorError(None, None, str(exc), node.start_mark) from exc


def load_document(path) -> dict:
    """Read one YAML document; multi-document files are rejected.

    A syntax error, a repeated key, a scalar its constructor refuses
    (a bad date, an int past Python's digit limit) or nesting too deep
    for PyYAML's recursive composer is reported on one line, at its
    1-based line and column where PyYAML marks one.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        docs = list(yaml.load_all(text, Loader=_UniqueKeyLoader))
    except RecursionError as exc:  # PyYAML's composer recurses once per nesting level
        raise ConfigError("", "not valid YAML: nested too deeply to read") from exc
    except yaml.YAMLError as exc:
        mark, problem = getattr(exc, "problem_mark", None), getattr(exc, "problem", None)
        if mark is None or problem is None:
            raise ConfigError("", f"not valid YAML: {' '.join(str(exc).split())}") from exc
        raise ConfigError("", f"not valid YAML at line {mark.line + 1}, column {mark.column + 1}: {problem}") from exc
    if len(docs) != 1:
        raise ConfigError("", f"expected a single YAML document, found {len(docs)}")
    return docs[0]
