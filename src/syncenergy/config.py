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
error carries the dotted path of the offending field so callers can
report ``config error at system.H: ...``.  The model sections read the
fields of their dataclasses (SmibParams, SyntheticSpec, FaultSchedule,
ClassifierPolicy), and an absent optional key takes the dataclass's
own default, so each default lives only on its dataclass.
"""

from __future__ import annotations

import copy
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


def _mapping(node, path: str) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigError(path, f"expected a mapping, got {type(node).__name__}")
    return dict(node)


def _reject_unknown(node: dict, path: str) -> None:
    if node:
        key = sorted(str(k) for k in node)[0]
        raise ConfigError(_join(path, key), "unknown key")


def _number(node: dict, key: str, path: str, default=None, required: bool = False) -> float:
    if key not in node:
        if required:
            raise ConfigError(_join(path, key), "required field missing")
        return default
    value = node.pop(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(_join(path, key), f"expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # compares ints exactly, where float() overflows
        raise ConfigError(_join(path, key), "must be finite")
    return float(value)


def _string(node: dict, key: str, path: str, default=None, required: bool = False) -> str:
    if key not in node:
        if required:
            raise ConfigError(_join(path, key), "required field missing")
        return default
    value = node.pop(key)
    if not isinstance(value, str):
        raise ConfigError(_join(path, key), f"expected a string, got {value!r}")
    return value


def _choice(value: str, allowed: tuple, path: str) -> str:
    if value not in allowed:
        raise ConfigError(path, f"expected one of {', '.join(allowed)}, got {value!r}")
    return value


def _read_fields(cls, node: dict, path: str, skip: tuple = ()) -> dict:
    """Numeric fields of dataclass ``cls`` in declared order; absent optional ones are left out."""
    values = {}
    for f in fields(cls):
        if f.name in skip:
            continue
        required = f.default is MISSING and f.default_factory is MISSING
        value = _number(node, f.name, path, required=required)
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
    t_end = _number(node, "t_end", path, required=True)
    dt = _number(node, "dt", path, required=True)
    _reject_unknown(node, path)
    if dt <= 0.0:
        raise ConfigError(_join(path, "dt"), "must be positive")
    if t_end <= 0.0:
        raise ConfigError(_join(path, "t_end"), "must be positive")
    steps = t_end / dt
    if not math.isfinite(steps) or round(steps) + 1 > MAX_SAMPLES:
        raise ConfigError(_join(path, "dt"), f"t_end/dt gives {steps + 1:.10g} samples; at most {MAX_SAMPLES}")
    n = int(round(steps)) + 1
    if n < 5:
        raise ConfigError(path, f"t_end/dt gives only {n} samples; need at least 5")
    return TimeGrid(0.0, dt, n)


def _parse_smib(node: dict, path: str) -> SmibParams:
    scale = _number(node, "x_line_scale", path, default=1.0)
    if scale <= 0.0:
        raise ConfigError(_join(path, "x_line_scale"), "must be positive")
    values = _read_fields(SmibParams, node, path, skip=("omega_n",))
    values["x_line_prefault"] *= scale
    values["x_line_postfault"] *= scale
    f_nominal = _number(node, "f_nominal", path)
    if f_nominal is not None:
        values["omega_n"] = 2.0 * math.pi * f_nominal
        if values["omega_n"] == math.inf:
            raise ConfigError(_join(path, "f_nominal"), f"2 pi f_nominal is past the float range at {f_nominal!r}")
    _reject_unknown(node, path)
    return _build(SmibParams, path, values)


def _parse_synthetic(node: dict, path: str, grid: TimeGrid) -> SyntheticSpec:
    template = _string(node, "template", path, required=True)
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
                _join(path, key), f"{omega!r} rad/s aliases at dt={grid.dt!r}: |omega| dt must stay below pi"
            )
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
                    f"{what} reaches e^{log_peak:.4g} at t={t_end!r}, past the float range",
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
            path, f"the file name {stem[:16]!r}...{suffix} takes {size} bytes; at most {NAME_MAX_BYTES}"
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
    name = _string(top, "name", "", required=True)
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ConfigError(
            "name", f"must be a file name: not empty, . or .., and without /, \\ or NUL; got {name!r}"
        )
    _check_file_name(name, _LONGEST_SUFFIX, "name")
    _string(top, "description", "")  # checked only: `scenarios list` reads the raw document
    system = _mapping(top.pop("system", None), "system")
    if not system:
        raise ConfigError("system", "required section missing")
    grid = _parse_grid(top.pop("grid", None), "grid")
    kind = _choice(_string(system, "kind", "system", required=True), ("smib", "synthetic"), "system.kind")

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
    estimator = _string(analysis, "estimator", "analysis", default=ScenarioConfig.estimator)
    _choice(estimator, ESTIMATORS, "analysis.estimator")
    max_gap = _number(analysis, "max_identity_gap", "analysis", default=ScenarioConfig.max_identity_gap)
    if max_gap <= 0.0:
        raise ConfigError("analysis.max_identity_gap", "must be positive")
    disturbance_default = fault.t_clear if fault is not None else None
    policy = _parse_policy(analysis.pop("classifier", None), "analysis.classifier", disturbance_default)
    _reject_unknown(analysis, "analysis")

    output = _mapping(top.pop("output", None), "output")
    columns = ScenarioConfig.columns
    if "columns" in output:
        raw = output.pop("columns")
        if not isinstance(raw, list) or not raw:
            raise ConfigError("output.columns", "expected a non-empty list of column names")
        for col in raw:
            if col not in CSV_COLUMNS:
                raise ConfigError("output.columns", f"unknown column {col!r}")
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
    sweep = _mapping(top.pop("sweep", None), "sweep")
    if not sweep:
        raise ConfigError("sweep", "required section missing")
    axis = _string(sweep, "axis", "sweep", required=True)
    if "" in axis.split("."):
        raise ConfigError("sweep.axis", f"expected a dotted path of field names, got {axis!r}")
    raw_values = sweep.pop("values", None)
    if not isinstance(raw_values, list) or not raw_values:
        raise ConfigError("sweep.values", "expected a non-empty list of numbers")
    values = []
    for k, value in enumerate(raw_values):
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if not number or not abs(value) <= sys.float_info.max:
            raise ConfigError(f"sweep.values[{k}]", f"expected a finite number, got {value!r}")
        values.append(float(value))
    _reject_unknown(sweep, "sweep")

    base = top.pop("base", None)
    if not isinstance(base, dict) or not base:
        raise ConfigError("base", "required section missing")
    _reject_unknown(top, "")

    parts = axis.split(".")
    node = base
    for part in parts[:-1]:
        node = node.get(part) if isinstance(node, dict) else None
    if not isinstance(node, dict):
        raise ConfigError(_join("base", axis), "axis parent section not found in base")
    leaf = node.get(parts[-1])
    if leaf is not None and (isinstance(leaf, bool) or not isinstance(leaf, (int, float))):
        raise ConfigError(_join("base", axis), "axis must name a numeric field")

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
                f"{value!r} gives the run name {name!r} of sweep.values[{first[name]}]",
            )
        first[name] = k
        _check_file_name(name, ".csv", f"sweep.values[{k}]")
    return config


def apply_axis(base_doc: dict, axis: str, value: float) -> dict:
    """Deep-copy the base document with ``axis`` set to ``value``."""
    doc = copy.deepcopy(base_doc)
    node = doc
    parts = axis.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
    node[parts[-1]] = value
    return doc


def load_document(path) -> dict:
    """Read one YAML document; multi-document files are rejected.

    A syntax error is reported on one line, at its 1-based line and column.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        docs = list(yaml.safe_load_all(text))
    except yaml.YAMLError as exc:
        mark, problem = getattr(exc, "problem_mark", None), getattr(exc, "problem", None)
        if mark is None or problem is None:
            raise ConfigError("", f"not valid YAML: {' '.join(str(exc).split())}") from exc
        where = f"at line {mark.line + 1}, column {mark.column + 1}"
        raise ConfigError("", f"not valid YAML {where}: {problem}") from exc
    if len(docs) != 1:
        raise ConfigError("", f"expected a single YAML document, found {len(docs)}")
    return docs[0]
