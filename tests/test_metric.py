"""Synchronization energy assembly and the verdict classifier."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncenergy.energy import EDGE_WIDTH, conditional_variance
from syncenergy.metric import (
    ClassifierPolicy,
    SESeries,
    SyncStatus,
    classify_sync,
    normalized_se,
    se_from_cf,
    se_numeric,
)
from syncenergy.pipeline import analyze
from syncenergy.signals import EPS_MAG, ParkSeries, TimeGrid, complex_frequency, complex_power
from syncenergy.simulator import SyntheticSpec, synthetic_signal

GRID = TimeGrid(0.0, 1e-3, 2001)


def _analyze_template(**kwargs):
    spec = SyntheticSpec(grid=GRID, **kwargs)
    v, i = synthetic_signal(spec)
    return analyze(v, i)


def _variances(*cfs):
    """The conditional variance of each complex frequency's envelope."""
    return [conditional_variance(cf.magnitude, cf.grid) for cf in cfs]


def _se_of(psi, grid, valid=None):
    """Wrap a raw psi series as an SESeries with unit power scale."""
    psi = np.asarray(psi, dtype=float)
    zeros = np.zeros_like(psi)
    if valid is None:
        valid = np.ones(grid.n, dtype=bool)
    return SESeries(grid, psi, psi.copy(), zeros, np.full(grid.n, 0.5), valid)


# ---------------------------------------------------------------- se_from_cf

def test_se_constant_frequency_mismatch_value():
    """v at 2 rad/s against i at 1 rad/s gives the constant 2 (dw V I)^2... with
    dw = 1 and unit magnitudes: psi = 2."""
    res = _analyze_template(template="dual_frequency", omega1=2.0, omega2=1.0)
    inner = res.se.psi[2:-2]
    np.testing.assert_allclose(inner, 2.0, rtol=1e-9)
    np.testing.assert_allclose(res.se.freq_term[2:-2], 2.0, rtol=1e-9)
    np.testing.assert_allclose(res.se.var_term[2:-2], 0.0, rtol=0, atol=1e-9)


def test_se_scales_with_power_level():
    base = _analyze_template(template="dual_frequency", omega1=1.5, omega2=0.5)
    scaled = _analyze_template(
        template="dual_frequency", omega1=1.5, omega2=0.5, v_mag=2.0, i_mag=3.0
    )
    np.testing.assert_allclose(scaled.se.psi[2:-2], 36.0 * base.se.psi[2:-2], rtol=1e-9)


def test_se_components_sum_exactly():
    res = _analyze_template(
        template="amplitude_modulated", mod_depth=0.3, mod_freq=3.0, omega1=0.0
    )
    np.testing.assert_array_equal(res.se.psi, res.se.freq_term + res.se.var_term)


def test_se_agrees_with_direct_teo_route():
    res = _analyze_template(
        template="amplitude_modulated", mod_depth=0.3, mod_freq=3.0
    )
    gap = np.abs(res.se.psi[2:-2] - res.psi_numeric[2:-2])
    scale = np.max(np.abs(res.psi_numeric[2:-2]))
    assert np.max(gap) / scale < 1e-4


def test_se_rejects_mismatched_grids():
    other = TimeGrid(0.0, 1e-3, 1001)
    v, i = synthetic_signal(SyntheticSpec(template="constant_phasor", grid=GRID))
    v2, i2 = synthetic_signal(SyntheticSpec(template="constant_phasor", grid=other))
    with pytest.raises(ValueError, match="same grid"):
        cf_v, cf_i = complex_frequency(v), complex_frequency(i2)
        se_from_cf(cf_v, cf_i, complex_power(v, i), *_variances(cf_v, cf_i))


def test_se_flags_envelope_dropout_but_stays_finite():
    """|v| below EPS_MAG on a window: invalid exactly there, psi finite everywhere.

    |s| = |v| stays above EPS_MAG**2, so the envelope rule alone flags it."""
    spec = SyntheticSpec(template="dual_frequency", grid=GRID, omega1=2.0, omega2=1.0)
    v, i = synthetic_signal(spec)
    dropout = np.zeros(GRID.n, dtype=bool)
    dropout[100:120] = True
    scale = np.where(dropout, 0.5 * EPS_MAG, 1.0)
    v = ParkSeries(GRID, v.d * scale, v.q * scale)
    cf_v, cf_i = complex_frequency(v), complex_frequency(i)
    se = se_from_cf(cf_v, cf_i, complex_power(v, i), *_variances(cf_v, cf_i))
    np.testing.assert_array_equal(se.valid, ~dropout)
    assert np.isfinite(se.psi).all()


def test_normalized_se_strips_power_scale():
    res = _analyze_template(
        template="dual_frequency", omega1=2.0, omega2=1.0, v_mag=3.0, i_mag=2.0
    )
    np.testing.assert_allclose(res.normalized[2:-2], 1.0, rtol=1e-9)


def test_normalized_se_is_nan_where_invalid():
    se = _se_of(np.ones(GRID.n), GRID)
    se.valid[100:110] = False
    out = normalized_se(se)
    assert np.isnan(out[100:110]).all()
    np.testing.assert_allclose(out[:100], 1.0, rtol=1e-12)


def test_se_numeric_of_constant_power_is_zero():
    """Exact zeros on the interior; the one-sided edge stencils may keep
    representation residue of order 1e-13."""
    psi = se_numeric(np.full(GRID.n, 0.9), np.full(GRID.n, -0.1), GRID)
    np.testing.assert_array_equal(psi[EDGE_WIDTH:-EDGE_WIDTH], 0.0)


# ---------------------------------------------------------- ClassifierPolicy

def test_policy_defaults():
    policy = ClassifierPolicy()
    assert policy.eps_sync == 1e-6
    assert policy.tail_window == 1.0
    assert policy.divergence_cap == 1e6
    assert policy.growth_factor == 10.0
    assert policy.disturbance_end is None
    assert policy.guard == 0.01


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"eps_sync": 0.0}, "eps_sync"),
        ({"eps_sync": 1.5}, "eps_sync"),
        ({"tail_window": -1.0}, "tail_window"),
        ({"divergence_cap": 0.5}, "divergence_cap"),
        ({"growth_factor": 1.0}, "growth_factor"),
        ({"guard": -0.1}, "guard"),
    ],
)
def test_policy_rejects_bad_thresholds(kwargs, match):
    with pytest.raises(ValueError, match=match):
        ClassifierPolicy(**kwargs)


# ------------------------------------------------------------- classify_sync

LONG_GRID = TimeGrid(0.0, 1e-3, 20001)
LONG_T = LONG_GRID.times()


def test_classifier_decaying_series_synchronizes():
    verdict = classify_sync(_se_of(np.exp(-LONG_T), LONG_GRID), ClassifierPolicy())
    assert verdict.status is SyncStatus.SYNCHRONIZED
    assert verdict.settle_time == pytest.approx(13.818, abs=1e-9)
    assert verdict.tail_mean_psi < 1e-6 * verdict.peak_psi


def test_classifier_sustained_oscillation_is_bounded():
    psi = 1.0 + 0.5 * np.sin(2.0 * LONG_T)
    verdict = classify_sync(_se_of(psi, LONG_GRID), ClassifierPolicy())
    assert verdict.status is SyncStatus.BOUNDED_NOT_SYNCHRONIZED
    assert verdict.settle_time is None


def test_classifier_exponential_growth_diverges():
    verdict = classify_sync(_se_of(np.exp(LONG_T), LONG_GRID), ClassifierPolicy())
    assert verdict.status is SyncStatus.LOSS_OF_SYNCHRONISM


def test_classifier_late_growth_detected_without_cap():
    """Growth that never reaches the hard cap still fails the trend test."""
    psi = 1e-3 * np.exp(0.3 * LONG_T)
    policy = ClassifierPolicy(divergence_cap=1e12)
    verdict = classify_sync(_se_of(psi, LONG_GRID), policy)
    assert verdict.status is SyncStatus.LOSS_OF_SYNCHRONISM


def test_classifier_short_window_is_indeterminate():
    g = TimeGrid(0.0, 1e-3, 501)
    verdict = classify_sync(_se_of(np.ones(501), g), ClassifierPolicy())
    assert verdict.status is SyncStatus.INDETERMINATE
    assert verdict.settle_time is None


def test_classifier_all_zero_series_synchronizes_immediately():
    verdict = classify_sync(_se_of(np.zeros(LONG_GRID.n), LONG_GRID), ClassifierPolicy())
    assert verdict.status is SyncStatus.SYNCHRONIZED
    assert verdict.peak_psi == 0.0


def test_classifier_ignores_pre_disturbance_transient():
    """A huge excursion before disturbance_end must not dominate the verdict."""
    psi = np.exp(-(LONG_T - 1.0))
    psi[LONG_T < 1.0] = 1e9
    policy = ClassifierPolicy(disturbance_end=1.0)
    verdict = classify_sync(_se_of(psi, LONG_GRID), policy)
    assert verdict.status is SyncStatus.SYNCHRONIZED
    assert verdict.peak_psi < 1.0


def test_classifier_skips_invalid_samples():
    psi = np.exp(-LONG_T)
    valid = np.ones(LONG_GRID.n, dtype=bool)
    spike = psi.copy()
    spike[5000] = 1e12
    valid[5000] = False
    verdict = classify_sync(_se_of(spike, LONG_GRID, valid), ClassifierPolicy())
    assert verdict.status is SyncStatus.SYNCHRONIZED


@pytest.mark.parametrize("psi, grid", [
    (np.exp(-LONG_T), LONG_GRID),  # synchronizes without the cap
    (1.0 + 0.5 * np.sin(2.0 * LONG_T), LONG_GRID),  # bounded without the cap
    (np.zeros(LONG_GRID.n), LONG_GRID),  # all zero: peak 0.0
    (np.ones(501), TimeGrid(0.0, 1e-3, 501)),  # window too short: NaN peak and tail mean
], ids=["decaying", "oscillating", "all_zero", "short_window"])
def test_classifier_angle_cap_is_loss_with_the_measured_peak(psi, grid):
    """A run whose rotor angle hit the simulator's cap is LossOfSynchronism
    whatever the SE shows, and keeps the peak and tail mean measured."""
    plain = classify_sync(_se_of(psi, grid), ClassifierPolicy())
    capped = classify_sync(_se_of(psi, grid), ClassifierPolicy(), diverged=True)
    assert capped.status is SyncStatus.LOSS_OF_SYNCHRONISM and capped.settle_time is None
    np.testing.assert_array_equal([capped.peak_psi, capped.tail_mean_psi], [plain.peak_psi, plain.tail_mean_psi])


@settings(deadline=None, max_examples=25)
@given(st.floats(min_value=1e-6, max_value=1e6))
def test_classifier_is_scale_free(scale):
    """Multiplying the SE series by any positive constant changes nothing."""
    base = classify_sync(_se_of(np.exp(-LONG_T), LONG_GRID), ClassifierPolicy())
    scaled = classify_sync(_se_of(scale * np.exp(-LONG_T), LONG_GRID), ClassifierPolicy())
    assert scaled.status is base.status
    assert scaled.settle_time == base.settle_time


def test_status_values_are_the_public_labels():
    assert {s.value for s in SyncStatus} == {
        "Synchronized",
        "BoundedNotSynchronized",
        "LossOfSynchronism",
        "Indeterminate",
    }
