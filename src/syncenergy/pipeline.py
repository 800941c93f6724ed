"""End-to-end analysis: Park vectors in, synchronization energy out.

:func:`analyze` runs both SE routes on a voltage/current pair: the
closed-form route through complex frequencies and envelope variances,
and the direct TEO route on active/reactive power.  The two estimates
agree to discretization accuracy on smooth trajectories, which
:func:`identity_gap` quantifies; reactance switchings break smoothness at
isolated instants, so comparisons accept guard windows around them
(derivative stencils straddling a switch measure the jump, not the
signal).

The instantaneous frequencies can come either from finite differences
(``estimator="fd"``) or from a phase-locked loop tracking each vector
(``estimator="pll"``).  The PLL route carries loop transients near the
start of the record; envelope terms use finite differences in both modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metric import SESeries, normalized_se, se_from_cf, se_numeric
from .pll import PllParams, pll_run
from .signals import CFSeries, ParkSeries, _as_series, complex_frequency, complex_power

ESTIMATORS = ("fd", "pll")


@dataclass
class AnalysisResult:
    """Everything derived from one (v, i) pair; ``s`` is v conj(i)."""

    s: ParkSeries
    cf_v: CFSeries
    cf_i: CFSeries
    se: SESeries
    psi_numeric: np.ndarray
    normalized: np.ndarray


@dataclass
class IdentityReport:
    """Agreement of the two SE routes over the compared samples.

    ``rel_gap`` is the largest pointwise gap divided by the peak of the
    direct-TEO route over the same samples (zero when both routes vanish
    identically).
    """

    max_abs_gap: float
    scale: float
    rel_gap: float
    n_compared: int


def analyze(
    v: ParkSeries,
    i: ParkSeries,
    estimator: str = "fd",
    pll_params: PllParams | None = None,
) -> AnalysisResult:
    """Run both SE routes on a voltage/current Park-vector pair.

    Parameters
    ----------
    v, i : ParkSeries
        Voltage and current on a common grid (frame-relative); never written.
    estimator : {"fd", "pll"}
        Source of the instantaneous frequencies.
    pll_params : PllParams, optional
        Loop configuration when ``estimator="pll"``.

    Returns
    -------
    AnalysisResult
    """
    if estimator not in ESTIMATORS:
        raise ValueError(f"estimator must be one of {ESTIMATORS}, got {estimator!r}")
    # the kernels run unchecked, and on a very fine grid their derivatives
    # overflow; the series handed out are checked once, below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        s = complex_power(v, i)
        cf_v = complex_frequency(v)
        cf_i = complex_frequency(i)
        if estimator == "pll":
            params = pll_params if pll_params is not None else PllParams()
            cf_v.omega = pll_run(v, params)[1] - params.omega_o
            cf_i.omega = pll_run(i, params)[1] - params.omega_o
        se = se_from_cf(cf_v, cf_i, s)
        psi_numeric = se_numeric(s.d, s.q, s.grid)
        normalized = normalized_se(se)
    for name, x in (
        ("rho_v", cf_v.rho),
        ("omega_v", cf_v.omega),
        ("rho_i", cf_i.rho),
        ("omega_i", cf_i.omega),
        ("psi_cf", se.psi),
        ("psi_numeric", psi_numeric),
    ):
        _as_series(x, s.grid.n, name)
    return AnalysisResult(s, cf_v, cf_i, se, psi_numeric, normalized)


def identity_gap(
    result: AnalysisResult,
    exclude: tuple[tuple[float, float], ...] = (),
) -> IdentityReport:
    """Compare the two SE routes outside edges, invalid samples, and windows.

    Parameters
    ----------
    result : AnalysisResult
    exclude : tuple of (t_lo, t_hi)
        Closed time windows to skip, typically around switching instants.

    Returns
    -------
    IdentityReport
    """
    se = result.se
    times = se.grid.times() if exclude else None
    mask = se.valid & se.interior_mask()
    for t_lo, t_hi in exclude:
        mask &= (times < t_lo) | (times > t_hi)
    n = int(np.count_nonzero(mask))
    if n == 0:
        return IdentityReport(math.nan, math.nan, math.nan, 0)
    numeric = result.psi_numeric[mask]
    gap = se.psi[mask]
    gap -= numeric
    max_abs = float(np.max(np.abs(gap, out=gap)))
    scale = float(np.max(np.abs(numeric, out=numeric)))
    if scale > 0.0:
        rel = max_abs / scale
    else:
        rel = 0.0 if max_abs == 0.0 else math.inf
    return IdentityReport(max_abs, scale, rel, n)
