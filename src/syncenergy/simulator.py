"""Swing-equation test system and closed-form synthetic signal templates.

The simulated plant is the classical single machine against an infinite
bus: a constant EMF E behind the machine reactance x_gen, connected to a
stiff source V_inf through a line whose reactance switches between three
values (before, during, and after a fault).  States are the rotor angle
delta (rad) and speed omega (pu):

    d delta / dt = omega_n (omega - 1)
    2 H d omega / dt = Pm - Pe - D (omega - 1),   Pe = E V_inf sin(delta) / x_total

with x_total = x_gen + x_line of the active interval.  Integration is
fixed-step RK4; each step uses the network of its own time interval, with
switching instants required to land exactly on grid samples.  Runs whose
angle escapes a cap are truncated and flagged as diverged.

Outputs are Park vectors in the frame rotating at omega_n, so stationary
operation appears as constant vectors:

    i = (E e^{j delta} - V_inf) / (j x_total),
    v = E e^{j delta} - j x_gen i        (machine bus voltage).

The synthetic templates generate (v, i) pairs with closed-form
synchronization energy, used as oracles and demonstration scenarios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signals import ParkSeries, TimeGrid

# rotor angle magnitude (rad) beyond which a run counts as diverged
DELTA_CAP = 10.0 * 2.0 * math.pi

_TEMPLATES = (
    "constant_phasor",
    "dual_frequency",
    "amplitude_modulated",
    "frequency_drift",
    "variance_cancelling",
)


@dataclass(frozen=True)
class SmibParams:
    """Machine and network constants, all per unit except omega_n (rad/s)."""

    H: float
    D: float
    x_gen: float
    x_line_prefault: float
    x_line_fault: float
    x_line_postfault: float
    E: float = 1.1
    V_inf: float = 1.0
    Pm: float = 0.9
    omega_n: float = 2.0 * math.pi * 60.0

    def __post_init__(self) -> None:
        if not self.H > 0.0:
            raise ValueError(f"inertia H must be positive, got {self.H}")
        if self.D < 0.0:
            raise ValueError(f"damping D must be non-negative, got {self.D}")
        for name in ("x_gen", "x_line_prefault", "x_line_fault", "x_line_postfault"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.E > 0.0 or not self.V_inf > 0.0:
            raise ValueError("source magnitudes E and V_inf must be positive")
        if not self.E * self.V_inf > 0.0:
            raise ValueError(f"the product E V_inf of E={self.E!r} and V_inf={self.V_inf!r} underflows to 0")
        if not self.omega_n > 0.0:
            raise ValueError("omega_n must be positive")

    def x_total(self, interval: str) -> float:
        """Total transfer reactance of one of 'pre', 'fault', 'post'."""
        line = {
            "pre": self.x_line_prefault,
            "fault": self.x_line_fault,
            "post": self.x_line_postfault,
        }[interval]
        return self.x_gen + line


@dataclass(frozen=True)
class FaultSchedule:
    """Fault application and clearing times (s); both must be grid samples."""

    t_apply: float
    t_clear: float

    def __post_init__(self) -> None:
        if not self.t_apply < self.t_clear:
            raise ValueError(
                f"fault must clear after it is applied, got [{self.t_apply}, {self.t_clear}]"
            )


@dataclass
class SimResult:
    """Trajectory plus network outputs; grid is truncated when diverged."""

    grid: TimeGrid
    delta: np.ndarray
    omega_pu: np.ndarray
    v_bus: ParkSeries
    i_inj: ParkSeries
    diverged: bool


def equilibrium_angle(params: SmibParams) -> float:
    """Stable pre-fault equilibrium angle asin(Pm x_total / (E V_inf)), where the runs start."""
    ratio = params.Pm * params.x_total("pre") / (params.E * params.V_inf)
    if abs(ratio) > 1.0:
        raise ValueError(
            f"no equilibrium: Pm={params.Pm} exceeds the maximum transfer "
            f"{params.E * params.V_inf / params.x_total('pre'):.4f}"
        )
    return math.asin(ratio)


def _step_of(t: float, grid: TimeGrid, name: str) -> int:
    """Index of the grid sample at ``t``; ValueError if there is none."""
    if not grid.on_grid(t):
        raise ValueError(f"{name}={t} does not fall on a grid sample (dt={grid.dt})")
    if not grid.t0 <= t <= grid.t_end:
        raise ValueError(f"{name}={t} lies outside the grid [{grid.t0}, {grid.t_end}]")
    return round((t - grid.t0) / grid.dt)


def smib_simulate(params: SmibParams, fault: FaultSchedule | None, grid: TimeGrid) -> SimResult:
    """Integrate the swing equation from its pre-fault equilibrium.

    Each RK4 step uses the reactance of the interval it starts in
    (pre, fault-on from t_apply inclusive, post from t_clear inclusive);
    network outputs at a sample use that same left-closed convention.
    If |delta| exceeds ``DELTA_CAP`` at the fifth sample or later, the run
    stops at that sample and ``diverged`` is set; the returned grid covers
    only computed samples.  The cap waits for the fifth sample, the fewest
    the analysis takes, so a run that diverges at once still gets a verdict.

    Raises
    ------
    ValueError
        If no pre-fault equilibrium exists, fault times are not grid
        samples, or the rotor state leaves the float range.
    """
    # sample index at which each interval starts
    x_totals, starts = [params.x_total("pre")], [0]
    if fault is not None:
        x_totals += [params.x_total("fault"), params.x_total("post")]
        starts += [_step_of(fault.t_apply, grid, "t_apply"), _step_of(fault.t_clear, grid, "t_clear")]

    delta0 = equilibrium_angle(params)
    e, v_inf, pm = params.E, params.V_inf, params.Pm
    d_damp, two_h, omega_n = params.D, 2.0 * params.H, params.omega_n
    dt, n_steps, sin = grid.dt, grid.n - 1, math.sin
    half, sixth = 0.5 * dt, dt / 6.0

    delta, omega = np.empty(grid.n), np.empty(grid.n)
    d, w = delta0, 1.0
    delta[0], omega[0] = d, w
    n_kept = grid.n
    # classical RK4 on (omega_n slip, (Pm - p_max sin(delta) - D slip) / 2H)
    try:
        for x_total, k_lo, k_hi in zip(x_totals, starts, starts[1:] + [n_steps]):
            p_max = e * v_inf / x_total
            for k in range(k_lo, k_hi):
                slip = w - 1.0
                kd1 = omega_n * slip
                kw1 = (pm - p_max * sin(d) - d_damp * slip) / two_h
                slip = w + half * kw1 - 1.0
                kd2 = omega_n * slip
                kw2 = (pm - p_max * sin(d + half * kd1) - d_damp * slip) / two_h
                slip = w + half * kw2 - 1.0
                kd3 = omega_n * slip
                kw3 = (pm - p_max * sin(d + half * kd2) - d_damp * slip) / two_h
                slip = w + dt * kw3 - 1.0
                kd4 = omega_n * slip
                kw4 = (pm - p_max * sin(d + dt * kd3) - d_damp * slip) / two_h
                d = d + sixth * (kd1 + 2.0 * (kd2 + kd3) + kd4)
                w = w + sixth * (kw1 + 2.0 * (kw2 + kw3) + kw4)
                delta[k + 1] = d
                omega[k + 1] = w
                if abs(d) > DELTA_CAP and k >= 3:
                    n_kept = k + 2
                    break
            if n_kept < grid.n:
                break
    except ValueError as exc:
        # math.sin of an infinite angle; no per-step check slows the loop
        raise ValueError(
            f"rotor state left the float range in the RK4 step from t={grid.t0 + k * dt!r} ({exc})"
        ) from exc

    out_grid = grid if n_kept == grid.n else TimeGrid(grid.t0, grid.dt, n_kept)
    delta, omega = delta[:n_kept], omega[:n_kept]
    x_series = np.repeat(x_totals, np.diff(np.minimum(starts + [n_kept], n_kept)))
    emf = e * np.exp(1j * delta)
    i_cplx = (emf - v_inf) / (1j * x_series)
    v_cplx = emf - 1j * params.x_gen * i_cplx
    v_bus = ParkSeries.from_complex(out_grid, v_cplx)
    i_inj = ParkSeries.from_complex(out_grid, i_cplx)
    # the loop stops on the first angle past the cap from the fifth sample on, so only a
    # diverged run ends on one
    return SimResult(out_grid, delta, omega, v_bus, i_inj, abs(d) > DELTA_CAP)


@dataclass(frozen=True)
class SyntheticSpec:
    """Closed-form (v, i) pair on a grid; fields are read per template.

    Templates
    ---------
    constant_phasor
        Constant vectors; SE is identically zero.
    dual_frequency
        v rotates at omega1, i at omega2 (rad/s, frame-relative); SE is
        the constant 2 (omega1 - omega2)^2 (v_mag i_mag)^2.
    amplitude_modulated
        Voltage envelope v_mag (1 + mod_depth sin(mod_freq t)), constant
        current: SE oscillates periodically without decaying.
    frequency_drift
        Common quadratic phase 0.5 drift_rate t^2 on v and i: both
        frequencies ramp, yet SE is identically zero.
    variance_cancelling
        Envelopes e^{-envelope_rate t^2 / 2} on v and e^{+...} on i with a
        common rotation omega1: the envelope variances are +rate/2 and
        -rate/2, so SE is identically zero although neither magnitude is
        constant.
    """

    template: str
    grid: TimeGrid
    v_mag: float = 1.0
    i_mag: float = 1.0
    v_phase: float = 0.0
    i_phase: float = 0.0
    omega1: float = 0.0
    omega2: float = 0.0
    mod_depth: float = 0.0
    mod_freq: float = 0.0
    drift_rate: float = 0.0
    envelope_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.template not in _TEMPLATES:
            raise ValueError(
                f"unknown template {self.template!r}; choose from {', '.join(_TEMPLATES)}"
            )
        if not self.v_mag > 0.0 or not self.i_mag > 0.0:
            raise ValueError("v_mag and i_mag must be positive")
        if self.template == "amplitude_modulated":
            if not 0.0 <= self.mod_depth < 1.0:
                raise ValueError(f"mod_depth must lie in [0, 1), got {self.mod_depth}")
            if not self.mod_freq > 0.0:
                raise ValueError(f"mod_freq must be positive, got {self.mod_freq}")
        if self.template == "variance_cancelling" and not self.envelope_rate > 0.0:
            raise ValueError(f"envelope_rate must be positive, got {self.envelope_rate}")


def synthetic_signal(spec: SyntheticSpec) -> tuple[ParkSeries, ParkSeries]:
    """Generate the (voltage, current) Park-vector pair of a template."""
    grid = spec.grid
    # a constant envelope stays a scalar, and only a constant angle is filled in
    v_env, i_env = spec.v_mag, spec.i_mag
    if spec.template in ("constant_phasor", "amplitude_modulated"):
        v_ang, i_ang = np.full(grid.n, spec.v_phase), np.full(grid.n, spec.i_phase)
    if spec.template != "constant_phasor":
        t = grid.times()

    if spec.template == "dual_frequency":
        v_ang = spec.v_phase + spec.omega1 * t
        i_ang = np.add(spec.i_phase, np.multiply(spec.omega2, t, out=t), out=t)
    elif spec.template == "amplitude_modulated":
        np.sin(np.multiply(spec.mod_freq, t, out=t), out=t)
        v_env = spec.v_mag * (1.0 + spec.mod_depth * t)
    elif spec.template == "frequency_drift":
        ramp = 0.5 * spec.drift_rate * t * t
        v_ang = spec.v_phase + ramp
        i_ang = np.add(spec.i_phase, ramp, out=ramp)
    elif spec.template == "variance_cancelling":
        shape = 0.5 * spec.envelope_rate * t * t
        v_env = spec.v_mag * np.exp(-shape)
        i_env = np.multiply(spec.i_mag, np.exp(shape, out=shape), out=shape)
        v_ang = spec.v_phase + spec.omega1 * t
        i_ang = np.add(spec.i_phase, np.multiply(spec.omega1, t, out=t), out=t)

    v_d, i_d = np.cos(v_ang), np.cos(i_ang)
    v_q, i_q = np.sin(v_ang, out=v_ang), np.sin(i_ang, out=i_ang)
    for x, env in ((v_d, v_env), (v_q, v_env), (i_d, i_env), (i_q, i_env)):
        x *= env
    return ParkSeries(grid, v_d, v_q), ParkSeries(grid, i_d, i_q)
