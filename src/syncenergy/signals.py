"""Park-vector time series and their instantaneous-frequency decomposition.

A three-phase quantity observed in a rotating dq frame is represented here as
a complex Park vector x(t) = x_d(t) + j x_q(t).  Writing it in polar form
x = a e^{j phi} and differentiating gives

    dx/dt = (rho + j omega) x,
    rho   = (da/dt) / a      (instantaneous bandwidth, 1/s),
    omega = dphi/dt          (instantaneous frequency, rad/s),

so the pair (rho, omega) generalizes the notion of frequency to signals with
time-varying amplitude.  This module provides the containers for sampled
Park vectors and the operations needed to extract (rho, omega) numerically:
polar decomposition with phase unwrapping, finite differencing, and the
complex power product s = v conj(i).

All sequences live on a shared uniform :class:`TimeGrid`; mixing series from
different grids is a contract violation and raises ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Magnitudes at or below this level (per unit) carry no usable phase
# information; such samples are flagged rather than differentiated.
EPS_MAG = 1e-6

_TWO_PI = 2.0 * np.pi

# samples at each end whose value rests on composed one-sided stencils
EDGE_WIDTH = 2

# the fewest samples a record holds: both edges and one interior sample
MIN_SAMPLES = 2 * EDGE_WIDTH + 1


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid t_k = t0 + k dt, k = 0 .. n - 1.

    A grid holds at least :data:`MIN_SAMPLES` samples, the fewest on which
    a second derivative built from two first ones has an interior sample,
    so no analysis kernel checks a length of its own.
    """

    t0: float
    dt: float
    n: int

    def __post_init__(self) -> None:
        if not self.dt > 0.0:
            raise ValueError(f"grid step must be positive, got dt={self.dt}")
        if self.n < MIN_SAMPLES:
            raise ValueError(f"grid needs at least {MIN_SAMPLES} samples, got n={self.n}")

    def times(self) -> np.ndarray:
        """Sample instants as an array of shape (n,)."""
        return self.t0 + self.dt * np.arange(self.n, dtype=float)

    @property
    def t_end(self) -> float:
        return self.t0 + self.dt * (self.n - 1)

    def on_grid(self, t: float) -> bool:
        """Whether ``t`` lies a whole number of steps from t0 (to 1e-9 relative).

        A step count that overflows to infinity is never on the grid.
        """
        steps = (t - self.t0) / self.dt
        return math.isfinite(steps) and abs(steps - round(steps)) <= 1e-9 * max(1.0, abs(steps))


def _as_series(x, n: int, name: str) -> np.ndarray:
    out = np.asarray(x, dtype=float)
    if out.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite samples")
    return out


def _require_same_grid(a: TimeGrid, b: TimeGrid, what: str) -> None:
    if a != b:
        raise ValueError(f"{what} requires both operands on the same grid")


@dataclass
class ParkSeries:
    """Sampled complex Park vector, stored as real d and q components."""

    grid: TimeGrid
    d: np.ndarray
    q: np.ndarray

    def __post_init__(self) -> None:
        self.d = _as_series(self.d, self.grid.n, "d")
        self.q = _as_series(self.q, self.grid.n, "q")

    @classmethod
    def from_complex(cls, grid: TimeGrid, z: np.ndarray) -> "ParkSeries":
        z = np.asarray(z, dtype=complex)
        return cls(grid, z.real.copy(), z.imag.copy())


@dataclass
class CFSeries:
    """Complex frequency eta = rho + j omega estimated along a grid.

    ``magnitude`` retains the envelope the estimate was derived from, so
    that downstream consumers can form amplitude moments consistent with
    ``rho`` and tell where it was degenerate (at or below
    :data:`EPS_MAG`); entries there are finite placeholders, not
    measurements.
    """

    grid: TimeGrid
    rho: np.ndarray
    omega: np.ndarray
    magnitude: np.ndarray


def unwrap_phase(phase) -> np.ndarray:
    """Remove 2 pi jumps from a sampled phase sequence.

    The first sample is preserved exactly and every consecutive difference
    of the output lies in (-pi, pi]; the output equals the input modulo
    2 pi at every sample.

    Parameters
    ----------
    phase : array-like
        Wrapped phase samples in radians, e.g. atan2 output.

    Returns
    -------
    ndarray
        Unwrapped phase, same shape.
    """
    phase = np.asarray(phase, dtype=float)
    if phase.ndim != 1:
        raise ValueError("unwrap_phase expects a 1-D sequence")
    if phase.size < 2:
        return phase.copy()
    d = np.diff(phase)
    # shift each difference by the unique multiple of 2 pi landing in (-pi, pi]
    k = (np.pi - d) / _TWO_PI
    np.floor(k, out=k)
    k *= _TWO_PI
    d += k
    out = np.empty_like(phase)
    out[0] = phase[0]
    np.cumsum(d, out=out[1:])
    out[1:] += phase[0]
    return out


def differentiate(x, grid: TimeGrid) -> np.ndarray:
    """Second-order finite-difference time derivative on a uniform grid.

    Interior samples use the central difference (x[k+1] - x[k-1]) / (2 dt);
    the endpoints use one-sided three-point formulas of the same order.
    The interior stencil is exact for polynomials up to degree 2.

    Parameters
    ----------
    x : array-like
        Real samples on ``grid``.
    grid : TimeGrid
        Grid supplying dt and the expected length.

    Returns
    -------
    ndarray
        Derivative estimate, shape (n,).
    """
    x = _as_series(x, grid.n, "x")
    dt = grid.dt
    out = np.empty_like(x)
    np.subtract(x[2:], x[:-2], out=out[1:-1])
    out[1:-1] /= 2.0 * dt
    out[0] = (-3.0 * x[0] + 4.0 * x[1] - x[2]) / (2.0 * dt)
    out[-1] = (3.0 * x[-1] - 4.0 * x[-2] + x[-3]) / (2.0 * dt)
    return out


def polar_decompose(x: ParkSeries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split a Park vector into ``(magnitude, phase, degenerate)``.

    ``phase`` is unwrapped (no 2 pi jumps).  Samples with magnitude below
    :data:`EPS_MAG` are flagged ``degenerate`` and take the phase of the
    last preceding valid sample rather than atan2 noise (leading
    degenerate samples borrow from the first valid one).  If every sample
    is degenerate the phase is identically zero.
    """
    mag = np.hypot(x.d, x.q)
    degenerate = mag < EPS_MAG
    raw = np.arctan2(x.q, x.d)
    if degenerate.any():
        if degenerate.all():
            raw = np.zeros_like(raw)
        else:
            idx = np.arange(x.grid.n)
            src = np.where(~degenerate, idx, -1)
            src = np.maximum.accumulate(src)
            first_valid = idx[~degenerate][0]
            src[src < 0] = first_valid
            raw = raw[src]
    return mag, unwrap_phase(raw), degenerate


def complex_frequency(x: ParkSeries) -> CFSeries:
    """Estimate the complex frequency of a Park vector by finite differences.

    rho is the derivative of log magnitude and omega the derivative of the
    unwrapped phase, both via :func:`differentiate`.  Degenerate samples
    (magnitude below :data:`EPS_MAG`) are clamped before taking the log so
    no NaN or infinity is ever produced; the returned magnitude marks
    them, and :func:`~syncenergy.metric.se_from_cf` flags them invalid.

    Returns
    -------
    CFSeries
        rho, omega, and the source magnitude.
    """
    mag, phase, _ = polar_decompose(x)
    log_mag = np.maximum(mag, EPS_MAG)
    np.log(log_mag, out=log_mag)
    rho = differentiate(log_mag, x.grid)
    omega = differentiate(phase, x.grid)
    return CFSeries(x.grid, rho, omega, mag)


def complex_power(v: ParkSeries, i: ParkSeries) -> ParkSeries:
    """Complex power s = v conj(i) of a voltage/current Park-vector pair.

    The d component of the result is the active power
    p = v_d i_d + v_q i_q and the q component the reactive power
    q = v_q i_d - v_d i_q.  Both inputs must share the same grid.
    """
    _require_same_grid(v.grid, i.grid, "complex_power")
    p = v.d * i.d
    p += v.q * i.q
    q = v.q * i.d
    q -= v.d * i.q
    return ParkSeries(v.grid, p, q)
