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

Integration is the classical fixed-step RK4 tableau, written out on the
state (theta, integral of e): stages at t_k, t_k + dt/2 (twice) and
t_k + dt.  The first reuses the detector output of sample k, and the
others read the input interpolated linearly to their fraction of the step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signals import EPS_MAG, ParkSeries


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


def pll_run(v: ParkSeries, params: PllParams = PllParams()) -> tuple[np.ndarray, np.ndarray]:
    """Track a voltage Park vector; start from theta = 0, empty integrator.

    Returns
    -------
    theta_hat : ndarray
        Tracked phase (frame-relative, rad), continuous (never wrapped).
    omega_hat : ndarray
        Absolute speed (rad/s): ``omega_o`` plus the loop-filter output at
        each sample.
    """
    grid = v.grid
    d, q = v.d.tolist(), v.q.tolist()
    dt = grid.dt
    half, sixth = 0.5 * dt, dt / 6.0
    kp, ki, omega_o = params.kp, params.ki, params.omega_o
    cos, sin, hypot = math.cos, math.sin, math.hypot

    theta_hat, omega_hat = np.empty(grid.n), np.empty(grid.n)
    theta, xi = 0.0, 0.0  # phase and integral of e
    held = 0.0  # last valid detector output, for degenerate samples

    # the detector e = Im(v e^{-j theta}) / |v| holds its last output where
    # |v| < EPS_MAG; the derivative of (theta, xi) is (kp e + ki xi, e)
    for k in range(grid.n - 1):
        d0, q0, d1, q1 = d[k], q[k], d[k + 1], q[k + 1]
        mag = hypot(d0, q0)
        e = held = held if mag < EPS_MAG else (q0 * cos(theta) - d0 * sin(theta)) / mag
        theta_hat[k] = theta
        omega_hat[k] = omega_o + kp * e + ki * xi

        # RK4 stages at t_k (sample k at theta: its detector output is e),
        # t_k + dt/2 (twice) and t_k + dt, reading the input interpolated linearly
        t_k = grid.t0 + k * dt
        dd, dq = d1 - d0, q1 - q0
        kt1 = kp * e + ki * xi
        s = ((t_k + half) - t_k) / dt
        vd, vq = d0 + s * dd, q0 + s * dq
        mag = hypot(vd, vq)
        th = theta + half * kt1
        e2 = held = held if mag < EPS_MAG else (vq * cos(th) - vd * sin(th)) / mag
        kt2 = kp * e2 + ki * (xi + half * e)
        th = theta + half * kt2
        e3 = held = held if mag < EPS_MAG else (vq * cos(th) - vd * sin(th)) / mag
        kt3 = kp * e3 + ki * (xi + half * e2)
        s = ((t_k + dt) - t_k) / dt
        vd, vq = d0 + s * dd, q0 + s * dq
        mag = hypot(vd, vq)
        th = theta + dt * kt3
        e4 = held = held if mag < EPS_MAG else (vq * cos(th) - vd * sin(th)) / mag
        kt4 = kp * e4 + ki * (xi + dt * e3)
        theta = theta + sixth * (kt1 + 2.0 * (kt2 + kt3) + kt4)
        xi = xi + sixth * (e + 2.0 * (e2 + e3) + e4)

    mag = hypot(d[-1], q[-1])
    e = held if mag < EPS_MAG else (q[-1] * cos(theta) - d[-1] * sin(theta)) / mag
    theta_hat[-1] = theta
    omega_hat[-1] = omega_o + kp * e + ki * xi
    return theta_hat, omega_hat
