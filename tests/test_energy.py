"""Teager energy operators and envelope variances."""

import numpy as np
import pytest

from syncenergy.energy import EDGE_WIDTH, conditional_variance, teo_real
from syncenergy.pipeline import analyze
from syncenergy.signals import ParkSeries, TimeGrid, differentiate
from syncenergy.simulator import SyntheticSpec, synthetic_signal

GRID = TimeGrid(0.0, 1e-3, 2001)
T = GRID.times()


# ---------------------------------------------------------------- teo_real

def test_teo_sinusoid_is_constant_on_interior():
    """psi(A cos wt) is exactly flat: the discrete value is A^2 (sin(w dt)/dt)^2."""
    a, w = 1.5, 4.0
    psi = teo_real(a * np.cos(w * T), GRID)
    inner = psi[EDGE_WIDTH:-EDGE_WIDTH]
    expected = a * a * (np.sin(w * GRID.dt) / GRID.dt) ** 2
    np.testing.assert_allclose(inner, expected, rtol=1e-10)
    np.testing.assert_allclose(inner, a * a * w * w, rtol=1e-5)


def test_teo_sinusoid_phase_invariant():
    base = teo_real(np.cos(3.0 * T), GRID)[EDGE_WIDTH:-EDGE_WIDTH]
    shifted = teo_real(np.cos(3.0 * T + 1.234), GRID)[EDGE_WIDTH:-EDGE_WIDTH]
    np.testing.assert_allclose(base, shifted, rtol=1e-9)


def test_teo_exponential_vanishes_on_interior():
    """Pure exponentials carry no oscillation energy; the discrete form cancels too."""
    for alpha in (0.5, 1.0, 5.0):
        psi = teo_real(np.exp(-alpha * T), GRID)
        assert np.max(np.abs(psi[EDGE_WIDTH:-EDGE_WIDTH])) < 1e-9


def test_teo_growing_exponential_also_vanishes():
    psi = teo_real(np.exp(0.8 * T), GRID)
    scale = np.exp(2.0 * 0.8 * T[2:-2])
    assert np.max(np.abs(psi[EDGE_WIDTH:-EDGE_WIDTH]) / scale) < 1e-9


def test_teo_interior_mask_marks_edges():
    """The SE, the complex TEO of s, masks the same edge samples."""
    spec = SyntheticSpec(template="dual_frequency", grid=GRID, omega1=2.0, omega2=1.0)
    v, i = synthetic_signal(spec)
    se = analyze(v, i).se
    mask = se.interior_mask()
    assert not mask[:EDGE_WIDTH].any() and not mask[-EDGE_WIDTH:].any()
    assert mask[EDGE_WIDTH:-EDGE_WIDTH].all()
    assert se.psi[mask].size == GRID.n - 2 * EDGE_WIDTH


def test_teo_requires_five_samples():
    g = TimeGrid(0.0, 1.0, 4)
    with pytest.raises(ValueError, match="at least 5"):
        teo_real(np.ones(4), g)


# ------------------------------------------------------------- teo_complex

def teo_complex(x: ParkSeries) -> np.ndarray:
    """Oracle: the complex TEO psi_c(xbar) = |dxbar/dt|^2 - Re(d2xbar/dt2 conj(xbar)),
    with the stencils of ``teo_real``."""
    dd = differentiate(x.d, x.grid)
    qd = differentiate(x.q, x.grid)
    ddd = differentiate(dd, x.grid)
    qdd = differentiate(qd, x.grid)
    return (dd * dd + qd * qd) - (ddd * x.d + qdd * x.q)


def test_complex_teo_equals_component_sum():
    d = np.cos(2.0 * T) + 0.4 * np.cos(5.0 * T + 0.7)
    q = np.sin(3.0 * T) - 0.2 * np.cos(1.0 * T)
    x = ParkSeries(GRID, d, q)
    combined = teo_complex(x)
    split = teo_real(d, GRID) + teo_real(q, GRID)
    np.testing.assert_allclose(combined, split, rtol=0, atol=1e-12)


def test_complex_teo_of_rotating_phasor():
    """A constant-amplitude rotation carries psi_c = 2 a^2 w^2."""
    a, w = 1.2, 3.0
    x = ParkSeries.from_complex(GRID, a * np.exp(1j * w * T))
    psi = teo_complex(x)[EDGE_WIDTH:-EDGE_WIDTH]
    np.testing.assert_allclose(psi, 2.0 * a * a * w * w, rtol=1e-5)


def test_complex_teo_of_constant_vector_is_zero():
    """Exact zeros on the interior; the one-sided edge stencils may keep
    representation residue of order 1e-13."""
    x = ParkSeries(GRID, np.full(GRID.n, 0.7), np.full(GRID.n, -0.2))
    np.testing.assert_array_equal(teo_complex(x)[EDGE_WIDTH:-EDGE_WIDTH], 0.0)


# ---------------------------------------------------- conditional_variance

def test_variance_gaussian_envelope_is_constant_half_rate():
    for alpha in (0.5, 1.0, 2.0):
        cv = conditional_variance(np.exp(-0.5 * alpha * T * T), GRID)
        np.testing.assert_allclose(cv[EDGE_WIDTH:-EDGE_WIDTH], alpha / 2.0, rtol=1e-4)


def test_variance_exponential_envelope_is_zero():
    for alpha in (0.5, 1.0, 5.0):
        cv = conditional_variance(np.exp(-alpha * T), GRID)
        assert np.max(np.abs(cv[EDGE_WIDTH:-EDGE_WIDTH])) < 1e-8


def test_variance_growing_gaussian_is_negative():
    """The sign flips for an envelope curving away from zero."""
    cv = conditional_variance(np.exp(0.5 * 1.0 * T * T), GRID)
    np.testing.assert_allclose(cv[EDGE_WIDTH:-EDGE_WIDTH], -0.5, rtol=1e-4)


def test_variance_stays_finite_on_tiny_envelope():
    """Validity is flagged by se_from_cf; the variance itself stays finite."""
    a = np.full(GRID.n, 2.0)
    a[100:120] = 0.0
    assert np.isfinite(conditional_variance(a, GRID)).all()


def test_variance_requires_five_samples():
    with pytest.raises(ValueError, match="at least 5"):
        conditional_variance(np.ones(3), TimeGrid(0.0, 1.0, 3))
