"""Phase-locked loop tracking of Park vectors."""

import numpy as np
import pytest

from syncenergy.pll import KI, KP, PllParams, pll_run
from syncenergy.signals import ParkSeries, TimeGrid

GRID = TimeGrid(0.0, 1e-3, 5001)
T = GRID.times()
OMEGA_O = PllParams().omega_o


def test_params_defaults_and_validation():
    assert KP == 10.0 and KI == 20.0
    assert PllParams().omega_o == pytest.approx(2.0 * np.pi * 60.0)
    for bad in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="omega_o"):
            PllParams(omega_o=bad)


def test_locks_onto_constant_phasor():
    """A fixed vector at 0.3 rad: theta converges, speed returns to nominal."""
    v = ParkSeries.from_complex(GRID, np.full(GRID.n, np.exp(0.3j)))
    theta_hat, omega_hat = pll_run(v)
    assert theta_hat[-1] == pytest.approx(0.3, abs=2e-6)
    assert omega_hat[-1] == pytest.approx(OMEGA_O, abs=1e-4)


def test_tracks_frequency_offset_with_zero_lag():
    """The double integrator means a rotating vector is followed exactly
    once the transient dies out."""
    v = ParkSeries.from_complex(GRID, np.exp(1j * 0.8 * T))
    theta_hat, omega_hat = pll_run(v)
    assert omega_hat[-2] - OMEGA_O == pytest.approx(0.8, abs=1e-5)
    assert theta_hat[-2] == pytest.approx(0.8 * T[-2], abs=1e-6)


def test_transient_settles_within_two_seconds():
    v = ParkSeries.from_complex(GRID, np.exp(1j * (0.5 + 0.4 * T)))
    theta_hat, omega_hat = pll_run(v)
    late = T >= 2.0
    assert np.max(np.abs(omega_hat[late] - OMEGA_O - 0.4)) < 0.05


def test_lock_is_level_independent():
    """Detector normalization makes the transient identical at any magnitude."""
    z = np.exp(1j * (0.5 + 0.4 * T))
    small, _ = pll_run(ParkSeries.from_complex(GRID, 0.05 * z))
    large, _ = pll_run(ParkSeries.from_complex(GRID, 5.0 * z))
    np.testing.assert_allclose(small, large, rtol=0, atol=1e-12)


def test_degenerate_gap_holds_last_detector_output():
    """A dropout to zero magnitude must not inject NaN or a phase kick."""
    z = np.exp(0.2j) * np.ones(GRID.n, dtype=complex)
    z[2500:2600] = 0.0
    theta_hat, omega_hat = pll_run(ParkSeries.from_complex(GRID, z))
    assert np.isfinite(theta_hat).all()
    assert np.isfinite(omega_hat).all()
    assert theta_hat[-1] == pytest.approx(0.2, abs=1e-5)
