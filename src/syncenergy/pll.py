"""Synchronous-reference-frame phase-locked loop for Park-vector input.

The loop tracks the phase of a voltage Park vector given in the frame
rotating at the loop's nominal frequency omega_o.  Its parts are the
classical SRF-PLL triple:

    phase detector   e = Im(v e^{-j theta}) / max(|v|, EPS_MAG)
    loop filter      dw = kp e + ki integral(e)
    oscillator       d theta / dt = dw          (frame-relative)

so the absolute speed estimate is omega_hat = omega_o + dw.  Normalizing
the detector by the voltage magnitude makes the loop gain independent of
the operating level; samples with magnitude below EPS_MAG hold the
detector at its previous output instead of dividing by noise.

The linearized closed loop is s^2 + kp s + ki.  The default gains
kp = 10, ki = 20 place both poles on the negative real axis
(about -2.76 and -7.24 1/s), giving a non-ringing response that settles
well within two seconds.

Integration uses the same fixed-step RK4 as the swing simulator, with
the input vector interpolated linearly to stage times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrate import rk4_step
from .signals import EPS_MAG, ParkSeries, TimeGrid


@dataclass(frozen=True)
class PllParams:
    """Loop gains and nominal frame frequency."""

    kp: float = 10.0
    ki: float = 20.0
    omega_o: float = 2.0 * math.pi * 60.0

    def __post_init__(self) -> None:
        if not self.kp > 0.0 or not self.ki > 0.0:
            raise ValueError(f"loop gains must be positive, got kp={self.kp}, ki={self.ki}")
        if self.omega_o < 0.0:
            raise ValueError(f"omega_o must be non-negative, got {self.omega_o}")


@dataclass
class PllTrace:
    """Tracked phase (frame-relative, rad) and absolute speed (rad/s)."""

    grid: TimeGrid
    theta_hat: np.ndarray
    omega_hat: np.ndarray


def pll_run(v: ParkSeries, params: PllParams = PllParams()) -> PllTrace:
    """Track a voltage Park vector; start from theta = 0, empty integrator.

    Returns
    -------
    PllTrace
        ``theta_hat`` is continuous (never wrapped); ``omega_hat`` is
        ``omega_o`` plus the loop-filter output at each sample.
    """
    grid = v.grid
    d, q = v.d, v.q
    dt = grid.dt
    kp, ki = params.kp, params.ki
    hold = [0.0]  # last valid detector output, for degenerate samples

    def detector(vd: float, vq: float, theta: float) -> float:
        mag = math.hypot(vd, vq)
        if mag < EPS_MAG:
            return hold[0]
        e = (vq * math.cos(theta) - vd * math.sin(theta)) / mag
        hold[0] = e
        return e

    theta_hat = np.empty(grid.n)
    omega_hat = np.empty(grid.n)
    y = (0.0, 0.0)  # (theta, integral of e)

    for k in range(grid.n - 1):
        e_now = detector(d[k], q[k], y[0])
        theta_hat[k] = y[0]
        omega_hat[k] = params.omega_o + kp * e_now + ki * y[1]

        d0, q0 = d[k], q[k]
        d1, q1 = d[k + 1], q[k + 1]

        def deriv(t: float, state: tuple) -> tuple:
            theta, xi = state
            s = (t - t_k) / dt
            e = detector(d0 + s * (d1 - d0), q0 + s * (q1 - q0), theta)
            return (kp * e + ki * xi, e)

        t_k = grid.t0 + k * dt
        y = rk4_step(deriv, t_k, y, dt)

    e_last = detector(d[-1], q[-1], y[0])
    theta_hat[-1] = y[0]
    omega_hat[-1] = params.omega_o + kp * e_last + ki * y[1]
    return PllTrace(grid, theta_hat, omega_hat)
