"""Teager energy operators and amplitude-variance measures.

The Teager energy operator (TEO) of a real signal,

    psi(x) = (dx/dt)^2 - x d2x/dt2,

tracks the energy of the harmonic oscillator that would generate x: for
x = A cos(omega t) it returns the constant A^2 omega^2, and for a pure
exponential x = e^{-alpha t} it returns exactly zero.  It extends to a
complex signal xbar = x_d + j x_q as

    psi_c(xbar) = |dxbar/dt|^2 - Re(d2xbar/dt2 conj(xbar)),

which equals psi(x_d) + psi(x_q) sample by sample when both sides use the
same differentiation scheme.  The TEO is the diagonal case of the Lie
bracket [x, y] = (dx/dt) y - x (dy/dt), i.e. psi(x) = [x, dx/dt].

A related second-order quantity is the conditional variance of the
instantaneous frequency given time for a signal with envelope a(t):

    var_omega(a) = 0.5 [ (da/dt / a)^2 - (d2a/dt2) / a ].

It vanishes for exponential envelopes, equals alpha / 2 for the Gaussian
envelope e^{-alpha t^2 / 2}, and can be negative: the sign distinguishes
envelope shapes, so it is reported as is.

All derivatives come from :func:`syncenergy.signals.differentiate`, which
is second order, so the sampled operators reach these continuous values
only as dt -> 0.  On interior samples of x = A cos(omega t) the sampled TEO
is exactly

    psi = A^2 (sin(omega dt) / dt)^2,

the value of Kaiser's three-point operator x[k]^2 - x[k-1] x[k+1] divided
by dt^2.  It converges to A^2 omega^2 at second order
in dt: the relative shortfall 1 - (sin(omega dt) / (omega dt))^2 is about
(omega dt)^2 / 3 for small omega dt, and 4.6 percent at
omega = 2 pi 60 rad/s with dt = 1e-3 s.  The one-sided boundary stencils
compose less accurately than the interior ones, so the first and last two
samples of every operator output are "edge" samples; comparisons against
analytic values should use the interior ``x[EDGE_WIDTH:-EDGE_WIDTH]``.
"""

from __future__ import annotations

import numpy as np

from .signals import EDGE_WIDTH, EPS_MAG, TimeGrid, _as_series, differentiate


def teo_real(x, grid: TimeGrid) -> np.ndarray:
    """Teager energy operator of a real sampled signal.

    The second derivative is obtained by differentiating twice with the
    same stencil, which makes several discrete identities exact: psi of a
    sampled exponential vanishes to round-off on interior samples, and psi
    of a sampled sinusoid A cos(omega t) is constant there and equals
    A^2 (sin(omega dt) / dt)^2.  That value converges to the continuous
    A^2 omega^2 at second order in dt.

    Parameters
    ----------
    x : array-like
        Real samples on ``grid``.
    grid : TimeGrid

    Returns
    -------
    ndarray
    """
    x = _as_series(x, grid.n, "x")
    xd = differentiate(x, grid)
    xdd = differentiate(xd, grid)
    xdd *= x
    xd *= xd
    xd -= xdd
    return xd


def conditional_variance(a, grid: TimeGrid) -> np.ndarray:
    """Conditional frequency variance 0.5 [ (a'/a)^2 - a''/a ] of an envelope.

    The envelope is clamped at :data:`EPS_MAG` before dividing, so the
    output stays finite everywhere; samples with ``a <= EPS_MAG`` carry no
    measurement, and :func:`syncenergy.metric.se_from_cf` flags them
    invalid.  The value may legitimately be negative (growing envelopes).

    Parameters
    ----------
    a : array-like
        Envelope samples on ``grid``, expected positive.
    grid : TimeGrid

    Returns
    -------
    ndarray
    """
    a = _as_series(a, grid.n, "a")
    safe = np.maximum(a, EPS_MAG)
    ad = differentiate(a, grid)
    add = differentiate(ad, grid)
    ad /= safe
    ad *= ad
    add /= safe
    ad -= add
    ad *= 0.5
    return ad
