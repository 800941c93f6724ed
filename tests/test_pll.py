"""Phase-locked loop tracking of Park vectors."""

import numpy as np
import pytest

from syncenergy.pll import DT_MAX, KI, KP, PllParams, pll_run
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


def test_step_bound_is_where_the_linearised_loops_dominant_root_turns_negative():
    """DT_MAX, derived from KP and KI, is the dt at which the root of larger
    modulus of z^2 - (2 - KP dt - KI dt^2) z + (1 - KP dt) turns from positive
    to negative, below the dt at which a root leaves the unit circle;
    pll_run refuses it and runs just below."""

    def dominant_root(dt):
        roots = np.roots([1.0, -(2.0 - KP * dt - KI * dt * dt), 1.0 - KP * dt])
        return roots[np.argmax(abs(roots))]

    lo, hi = 0.01, 2.0 / KP  # at hi the roots' product is -1 and their sum -KI dt^2 < 0
    assert dominant_root(lo).real > 0.0 > dominant_root(hi).real
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if dominant_root(mid).real > 0.0 else (lo, mid)
    assert DT_MAX == pytest.approx(lo, rel=1e-9)
    assert DT_MAX == pytest.approx(0.1531, abs=5e-5)
    unstable = (np.sqrt(KP * KP + 4.0 * KI) - KP) / KI  # 0.1708 s, where a root reaches z = -1
    assert abs(dominant_root(DT_MAX)) < 1.0 and abs(dominant_root(unstable)) == pytest.approx(1.0)
    for dt, refused in ((DT_MAX, True), (0.5, True), (0.999 * DT_MAX, False)):
        v = ParkSeries.from_complex(TimeGrid(0.0, dt, 11), np.ones(11, dtype=complex))
        if refused:
            with pytest.raises(ValueError, match="cannot lock"):
                pll_run(v)
        else:
            assert np.isfinite(pll_run(v)[1]).all()
