"""Grids, Park vectors, phase unwrapping, and finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncenergy.signals import (
    EPS_MAG,
    ParkSeries,
    TimeGrid,
    complex_frequency,
    complex_power,
    differentiate,
    polar_decompose,
    unwrap_phase,
)

GRID = TimeGrid(0.0, 1e-3, 2001)


# ---------------------------------------------------------------- TimeGrid

def test_grid_times_and_end():
    g = TimeGrid(1.0, 0.5, 5)
    np.testing.assert_allclose(g.times(), [1.0, 1.5, 2.0, 2.5, 3.0])
    assert g.t_end == 3.0


def test_grid_on_grid_is_relative_to_t0_and_step_count():
    """Whole steps from t0 pass within 1e-9 relative; the range is not checked."""
    g = TimeGrid(0.25, 1e-3, 101)
    assert g.on_grid(0.25) and g.on_grid(0.3) and g.on_grid(5.0)
    assert not g.on_grid(0.2505)
    # 50 steps allow 5e-8 of a step, 1e6 steps allow 1e-3 of one
    assert g.on_grid(0.3 + 1e-14) and not g.on_grid(0.3 + 1e-10)
    assert g.on_grid(1e3 + 0.25 + 1e-7) and not g.on_grid(1e3 + 0.25 + 1e-5)
    # a step count that overflows to inf is off the grid, not an OverflowError
    assert not g.on_grid(1.0e308) and not g.on_grid(-1.0e308)


def test_grid_rejects_bad_step_and_size():
    with pytest.raises(ValueError, match="positive"):
        TimeGrid(0.0, 0.0, 10)
    with pytest.raises(ValueError, match="at least 3"):
        TimeGrid(0.0, 0.1, 2)


# -------------------------------------------------------------- ParkSeries

def test_park_series_roundtrip_complex():
    z = np.exp(1j * np.linspace(0.0, 2.0, GRID.n))
    x = ParkSeries.from_complex(GRID, z)
    np.testing.assert_array_equal(x.d + 1j * x.q, z)
    np.testing.assert_allclose(np.hypot(x.d, x.q), 1.0, rtol=1e-14)


def test_park_series_rejects_wrong_length_and_nan():
    with pytest.raises(ValueError, match="shape"):
        ParkSeries(GRID, np.zeros(7), np.zeros(GRID.n))
    bad = np.zeros(GRID.n)
    bad[5] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        ParkSeries(GRID, bad, np.zeros(GRID.n))


# ------------------------------------------------------------ unwrap_phase

def test_unwrap_frozen_sequence():
    out = unwrap_phase([0.0, 3.0, -3.0, 2.9])
    np.testing.assert_allclose(
        out, [0.0, 3.0, 3.2831853071795862, 2.9000000000000004], rtol=0, atol=1e-12
    )


def test_unwrap_matches_numpy_on_wrapped_chirp():
    t = GRID.times()
    phase = 40.0 * t * t
    wrapped = np.angle(np.exp(1j * phase))
    np.testing.assert_allclose(unwrap_phase(wrapped), phase, rtol=0, atol=1e-8)


@settings(deadline=None)
@given(
    st.lists(
        st.floats(min_value=-30.0, max_value=30.0, allow_nan=False), min_size=2, max_size=50
    )
)
def test_unwrap_properties(seq):
    """First sample kept, consecutive steps in (-pi, pi], value preserved mod 2 pi."""
    out = unwrap_phase(seq)
    assert out[0] == seq[0]
    d = np.diff(out)
    assert np.all(d > -np.pi - 1e-12) and np.all(d <= np.pi + 1e-12)
    k = (out - np.asarray(seq)) / (2.0 * np.pi)
    np.testing.assert_allclose(k, np.round(k), rtol=0, atol=1e-9)


# ----------------------------------------------------------- differentiate

def test_differentiate_exact_on_quadratics_everywhere():
    """Both the central and the one-sided stencils are degree-2 exact."""
    t = GRID.times()
    x = 3.0 - 2.0 * t + 5.0 * t * t
    np.testing.assert_allclose(differentiate(x, GRID), -2.0 + 10.0 * t, rtol=0, atol=1e-9)


def test_differentiate_second_order_on_sine():
    err = []
    for refine in (1, 2):
        g = TimeGrid(0.0, GRID.dt / refine, refine * (GRID.n - 1) + 1)
        tt = g.times()
        d = differentiate(np.sin(3.0 * tt), g)
        err.append(np.max(np.abs(d - 3.0 * np.cos(3.0 * tt))))
    order = math.log2(err[0] / err[1])
    assert order > 1.9


def test_differentiate_rejects_wrong_length():
    with pytest.raises(ValueError, match="shape"):
        differentiate(np.zeros(5), GRID)


# --------------------------------------------------------- polar_decompose

def test_polar_matches_cartesian_input():
    t = GRID.times()
    z = (2.0 + 0.1 * t) * np.exp(1j * (0.3 + 1.7 * t))
    magnitude, phase, degenerate = polar_decompose(ParkSeries.from_complex(GRID, z))
    np.testing.assert_allclose(magnitude, 2.0 + 0.1 * t, rtol=1e-14)
    np.testing.assert_allclose(phase, 0.3 + 1.7 * t, rtol=0, atol=1e-12)
    assert not degenerate.any()


def test_polar_degenerate_samples_carry_previous_phase():
    g = TimeGrid(0.0, 1.0, 6)
    d = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 1.0])
    q = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 1.0])
    magnitude, phase, degenerate = polar_decompose(ParkSeries(g, d, q))
    np.testing.assert_array_equal(degenerate, [0, 0, 1, 1, 1, 0])
    np.testing.assert_allclose(phase, np.pi / 4.0, rtol=1e-14)


def test_polar_leading_degenerate_borrows_first_valid_phase():
    g = TimeGrid(0.0, 1.0, 5)
    d = np.array([0.0, 0.0, 0.0, 1.0, 1.0])
    magnitude, phase, degenerate = polar_decompose(ParkSeries(g, d, np.zeros(5)))
    np.testing.assert_array_equal(degenerate, [1, 1, 1, 0, 0])
    np.testing.assert_allclose(phase, 0.0, rtol=0, atol=1e-15)


def test_polar_all_degenerate_phase_is_zero():
    g = TimeGrid(0.0, 1.0, 5)
    magnitude, phase, degenerate = polar_decompose(ParkSeries(g, np.zeros(5), np.zeros(5)))
    assert degenerate.all()
    np.testing.assert_array_equal(phase, np.zeros(5))


# ------------------------------------------------------- complex_frequency

def test_complex_frequency_of_decaying_rotation():
    """x = e^{(rho + j omega) t} has constant rho and omega."""
    t = GRID.times()
    z = np.exp((-0.4 + 2.5j) * t)
    cf = complex_frequency(ParkSeries.from_complex(GRID, z))
    inner = slice(2, -2)
    np.testing.assert_allclose(cf.rho[inner], -0.4, rtol=1e-6)
    np.testing.assert_allclose(cf.omega[inner], 2.5, rtol=1e-6)
    np.testing.assert_allclose(cf.magnitude, np.exp(-0.4 * t), rtol=1e-13)


def test_complex_frequency_stays_finite():
    g = TimeGrid(0.0, 1e-3, 101)
    z = np.exp(2.0j * g.times())
    z[40:60] = 0.0
    cf = complex_frequency(ParkSeries.from_complex(g, z))
    assert np.isfinite(cf.rho).all() and np.isfinite(cf.omega).all()


def test_degeneracy_threshold_is_shared():
    assert EPS_MAG == 1e-6


# ----------------------------------------------------------- complex_power

def test_complex_power_frozen_small_case():
    g = TimeGrid(0.0, 1.0, 3)
    v = ParkSeries(g, np.full(3, 1.0), np.full(3, 2.0))
    i = ParkSeries(g, np.full(3, 3.0), np.full(3, 4.0))
    s = complex_power(v, i)
    np.testing.assert_array_equal(s.d, 11.0 * np.ones(3))
    np.testing.assert_array_equal(s.q, 2.0 * np.ones(3))


def test_complex_power_equals_v_times_conj_i():
    t = GRID.times()
    v = ParkSeries.from_complex(GRID, 1.1 * np.exp(1j * (0.2 + 0.5 * t)))
    i = ParkSeries.from_complex(GRID, 0.9 * np.exp(1j * (0.1 * t - 0.4)))
    s = complex_power(v, i)
    expected = (v.d + 1j * v.q) * np.conj(i.d + 1j * i.q)
    np.testing.assert_allclose(s.d + 1j * s.q, expected, rtol=1e-14)


def test_complex_power_common_phase_cancels():
    """A shared phase trajectory leaves the power series constant."""
    t = GRID.times()
    ramp = 0.5 * 3.0 * t * t
    v = ParkSeries.from_complex(GRID, 1.0 * np.exp(1j * ramp))
    i = ParkSeries.from_complex(GRID, 0.8 * np.exp(1j * ramp))
    s = complex_power(v, i)
    np.testing.assert_allclose(s.d, 0.8, rtol=1e-14)
    np.testing.assert_allclose(s.q, 0.0, rtol=0, atol=1e-15)


def test_complex_power_rejects_mismatched_grids():
    other = TimeGrid(0.0, 1e-3, 1001)
    v = ParkSeries(GRID, np.ones(GRID.n), np.zeros(GRID.n))
    i = ParkSeries(other, np.ones(other.n), np.zeros(other.n))
    with pytest.raises(ValueError, match="same grid"):
        complex_power(v, i)
