"""Synchronous-reference-frame phase-locked loop for Park-vector input.

The loop tracks the phase of a voltage Park vector given in the frame
rotating at the loop's nominal frequency omega_o.  Its parts are the
classical SRF-PLL triple, updated once per sample k:

    phase detector   e_k = Im(v_k e^{-j theta_k}) / |v_k|
    loop filter      dw_k = KP e_k + KI xi_k
    oscillator       xi_{k+1} = xi_k + dt e_k,
                     theta_{k+1} = theta_k + dt (KP e_k + KI xi_{k+1})

a semi-implicit Euler step of d theta/dt = KP e + KI xi, d xi/dt = e
(frame-relative), so the absolute speed estimate is omega_hat =
omega_o + dw.  Normalizing the detector by the voltage magnitude makes
the loop gain independent of the operating level; samples with
magnitude below EPS_MAG hold the detector at its previous output instead
of dividing by noise.

Linearized, the closed loop is z^2 - (2 - KP dt - KI dt^2) z + (1 - KP dt),
which approaches the continuous s^2 + KP s + KI to first order in dt.  The
constant gains KP = 10, KI = 20 place the continuous poles on the negative
real axis (about -2.76 and -7.24 1/s): a non-ringing response that settles
well within two seconds, whatever the scenario; only omega_o follows the
machine.  Both discrete roots stay inside the unit circle for
dt < (sqrt(KP^2 + 4 KI) - KP) / KI = 0.1708 s, but the loop locks only while
the root of larger modulus is positive, that is while 2 - KP dt - KI dt^2 > 0:
dt < DT_MAX = (sqrt(KP^2 + 8 KI) - KP) / (2 KI) = 0.1531 s.  Past DT_MAX the
dominant root is negative, the speed estimate alternates sign from sample
to sample, and constant phasors read as not synchronized; :func:`pll_run`
refuses such a step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signals import EPS_MAG, ParkSeries

# proportional and integral loop gains
KP = 10.0
KI = 20.0
# the step at and past which the discrete loop's dominant root is negative
DT_MAX = (math.sqrt(KP * KP + 8.0 * KI) - KP) / (2.0 * KI)


@dataclass(frozen=True)
class PllParams:
    """Nominal frame frequency (rad/s) the loop tracks against."""

    omega_o: float = 2.0 * math.pi * 60.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.omega_o < math.inf:
            raise ValueError(f"omega_o must be finite and non-negative, got {self.omega_o}")


def pll_run(v: ParkSeries, params: PllParams = PllParams()) -> tuple[np.ndarray, np.ndarray]:
    """Track a voltage Park vector; start from theta = 0, empty integrator.

    Returns
    -------
    theta_hat : ndarray
        Tracked phase (frame-relative, rad), continuous (never wrapped).
    omega_hat : ndarray
        Absolute speed (rad/s): ``omega_o`` plus the loop-filter output at
        each sample.

    Raises
    ------
    ValueError
        If the grid's step is not below ``DT_MAX``.
    """
    dt = v.grid.dt
    if not dt < DT_MAX:
        raise ValueError(f"the PLL's discrete loop cannot lock unless dt < {DT_MAX:.4f} s")
    kp, ki, omega_o = KP, KI, params.omega_o
    cos, sin, hypot = math.cos, math.sin, math.hypot

    theta_hat, omega_hat = np.empty(v.grid.n), np.empty(v.grid.n)
    theta, xi = 0.0, 0.0  # phase and integral of e
    e = 0.0  # held where |v| < EPS_MAG
    for k, (d, q) in enumerate(zip(v.d.tolist(), v.q.tolist())):
        mag = hypot(d, q)
        e = e if mag < EPS_MAG else (q * cos(theta) - d * sin(theta)) / mag
        theta_hat[k] = theta
        omega_hat[k] = omega_o + kp * e + ki * xi
        xi += dt * e
        theta += dt * (kp * e + ki * xi)
    return theta_hat, omega_hat
