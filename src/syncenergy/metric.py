"""Synchronization energy of a complex power series, two ways.

Let v and i be the voltage and current Park vectors at a device port and
s = v conj(i) the complex power, with p = Re(s), q = Im(s).  Applying the
complex Teager energy operator to s and expanding s in terms of the polar
forms of v and i gives the closed decomposition

    psi_c(s) = (omega_v - omega_i)^2 2|s|^2
             + (var_omega_v + var_omega_i) 2|s|^2,

where omega_v, omega_i are the instantaneous frequencies of v and i and
var_omega_* the conditional frequency variances of their envelopes.  The
first term measures frequency mismatch between voltage and current, the
second amplitude transients of either; both vanish exactly when the port
has settled to stationary phasors.  psi_c(s) -> 0 is therefore a local
synchronization criterion, and this quantity is what we call the
synchronization energy (SE).

The same quantity can be estimated without any polar decomposition as

    psi_c(s) = psi(p) + psi(q),

a direct TEO computation on active and reactive power.  Agreement of the
two routes on smooth trajectories is a built-in consistency check; see
:func:`syncenergy.pipeline.identity_gap`.

:func:`classify_sync` turns an SE series into a verdict.  All its
thresholds are relative to peaks of the series itself, so scaling the SE
by any positive constant never changes the verdict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .energy import EDGE_WIDTH, teo_real
from .signals import EPS_MAG, CFSeries, ParkSeries, TimeGrid, _require_same_grid

# grid steps always skipped next to a switching instant, so derivative
# stencils never straddle it
_GUARD_STENCIL = 5


@dataclass
class SESeries:
    """Synchronization energy with its two additive components.

    ``psi = freq_term + var_term`` holds exactly by construction;
    ``s_mag2`` is the squared magnitude of the complex power.  ``valid``
    is False where any ingredient was degenerate.
    """

    grid: TimeGrid
    psi: np.ndarray
    freq_term: np.ndarray
    var_term: np.ndarray
    s_mag2: np.ndarray
    valid: np.ndarray

    def interior_mask(self) -> np.ndarray:
        mask = np.zeros(self.grid.n, dtype=bool)
        mask[EDGE_WIDTH:-EDGE_WIDTH] = True
        return mask


class SyncStatus(enum.Enum):
    SYNCHRONIZED = "Synchronized"
    BOUNDED_NOT_SYNCHRONIZED = "BoundedNotSynchronized"
    LOSS_OF_SYNCHRONISM = "LossOfSynchronism"
    INDETERMINATE = "Indeterminate"


@dataclass
class SyncVerdict:
    """Outcome of :func:`classify_sync`.

    ``settle_time`` is set only for SYNCHRONIZED: the first instant after
    which |psi| stays below its threshold for the rest of the record.
    ``peak_psi`` and ``tail_mean_psi`` are magnitudes over the assessed
    window and its trailing portion.
    """

    status: SyncStatus
    settle_time: float | None
    peak_psi: float
    tail_mean_psi: float


@dataclass
class ClassifierPolicy:
    """Thresholds for :func:`classify_sync`, all relative to series peaks.

    eps_sync
        Synchronized when the trailing window stays below
        ``eps_sync * peak``.
    tail_window
        Length in seconds of the trailing window, and of the early
        reference window right after the disturbance.
    divergence_cap
        Loss of synchronism when |psi| exceeds ``divergence_cap`` times
        the early reference peak.
    growth_factor
        Loss of synchronism when the trailing peak exceeds
        ``growth_factor`` times the early reference peak and the series
        maximum sits in the trailing window (still growing at the end).
    guard
        Seconds skipped after ``disturbance_end`` so that derivative
        stencils never straddle the switching instant (at least
        5 grid steps are always skipped).
    disturbance_end
        Start of the assessed window (e.g. fault clearing time); None
        assesses the whole record.
    """

    eps_sync: float = 1e-6
    tail_window: float = 1.0
    divergence_cap: float = 1e6
    growth_factor: float = 10.0
    guard: float = 0.01
    disturbance_end: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.eps_sync < 1.0:
            raise ValueError(f"eps_sync must lie in (0, 1), got {self.eps_sync}")
        if not self.tail_window > 0.0:
            raise ValueError("tail_window must be positive")
        if not self.divergence_cap > 1.0:
            raise ValueError("divergence_cap must exceed 1")
        if not self.growth_factor > 1.0:
            raise ValueError("growth_factor must exceed 1")
        if self.guard < 0.0:
            raise ValueError("guard must be non-negative")

    def guard_width(self, dt: float) -> float:
        """Seconds skipped next to a switching instant on a grid of step ``dt``."""
        return max(self.guard, _GUARD_STENCIL * dt)


def se_from_cf(cf_v: CFSeries, cf_i: CFSeries, s: ParkSeries, var_v, var_i) -> SESeries:
    """Synchronization energy from the complex frequencies of v and i.

    Evaluates the closed-form decomposition: the frequency-mismatch term
    ``(omega_v - omega_i)^2 2|s|^2`` plus the amplitude-variance term
    ``(var_omega_v + var_omega_i) 2|s|^2``.
    Samples where either envelope is at or below :data:`EPS_MAG`, or |s|
    at or below ``EPS_MAG**2``, are flagged invalid.

    Parameters
    ----------
    cf_v, cf_i : CFSeries
        Complex frequency of the voltage and current Park vectors.
    s : ParkSeries
        Complex power series v conj(i) on the same grid.
    var_v, var_i : ndarray
        :func:`~syncenergy.energy.conditional_variance` of each magnitude.

    Returns
    -------
    SESeries
    """
    _require_same_grid(cf_v.grid, cf_i.grid, "se_from_cf")
    _require_same_grid(cf_v.grid, s.grid, "se_from_cf")
    grid = s.grid
    var_term = var_v + var_i
    s_mag2 = s.d * s.d + s.q * s.q
    freq_term = cf_v.omega - cf_i.omega
    freq_term *= freq_term
    freq_term *= 2.0
    freq_term *= s_mag2
    var_term *= 2.0
    var_term *= s_mag2
    valid = cf_v.magnitude > EPS_MAG
    valid &= cf_i.magnitude > EPS_MAG
    valid &= s_mag2 > (EPS_MAG**2) ** 2
    return SESeries(grid, freq_term + var_term, freq_term, var_term, s_mag2, valid)


def se_numeric(p, q, grid: TimeGrid) -> np.ndarray:
    """Synchronization energy estimated directly as psi(p) + psi(q).

    No polar decomposition is involved; this is the reference the
    closed-form route is checked against.
    """
    psi = teo_real(p, grid)
    psi += teo_real(q, grid)
    return psi


def normalized_se(se: SESeries) -> np.ndarray:
    """SE divided by 2|s|^2: (omega_v - omega_i)^2 + var_omega_v + var_omega_i.

    The result is independent of the power level and has units of
    rad^2/s^2.  Samples flagged invalid in ``se`` come out as NaN.
    """
    out = np.multiply(se.s_mag2, 2.0)
    np.divide(se.psi, out, out=out, where=se.valid)
    out[~se.valid] = np.nan
    return out


def classify_sync(se: SESeries, policy: ClassifierPolicy, diverged: bool = False) -> SyncVerdict:
    """Classify an SE series as synchronized, bounded, or diverging.

    The assessed window starts ``policy.guard`` after
    ``policy.disturbance_end`` and excludes edge and invalid samples.
    Within it, with ``peak`` the maximum of |psi| and ``early`` the
    maximum over the first ``tail_window`` seconds:

    * LOSS_OF_SYNCHRONISM if ``diverged``: the simulator's rotor-angle
      cap fired and the rotor ran away.  A record truncated this early
      grows polynomially, too slowly for the window-ratio tests below,
      so the simulator's own divergence signal decides; the peak and
      tail mean are still those measured (NaN when the window is too
      short);
    * LOSS_OF_SYNCHRONISM if |psi| exceeds ``divergence_cap * early``
      anywhere, or the trailing-window peak exceeds
      ``growth_factor * early`` with the series maximum inside the
      trailing window;
    * SYNCHRONIZED if the trailing window stays below
      ``eps_sync * peak``; ``settle_time`` is the first instant after
      which that bound holds through the end of the record;
    * BOUNDED_NOT_SYNCHRONIZED otherwise;
    * INDETERMINATE if the assessed window is shorter than
      ``tail_window`` and the run did not diverge.
    """
    times = se.grid.times()
    mask = se.valid & se.interior_mask()
    if policy.disturbance_end is not None:
        mask &= times >= policy.disturbance_end + policy.guard_width(se.grid.dt)
    t = times[mask]
    if t.size < 2 or t[-1] - t[0] < policy.tail_window:
        status = SyncStatus.LOSS_OF_SYNCHRONISM if diverged else SyncStatus.INDETERMINATE
        return SyncVerdict(status, None, float("nan"), float("nan"))
    mag = se.psi[mask]
    np.abs(mag, out=mag)

    tail = mag[t >= t[-1] - policy.tail_window]
    tail_mean = float(np.mean(tail))
    peak = float(np.max(mag))
    if peak == 0.0 and not diverged:
        return SyncVerdict(SyncStatus.SYNCHRONIZED, float(t[0]), 0.0, tail_mean)

    early = float(np.max(mag[t <= t[0] + policy.tail_window]))
    tail_peak = float(np.max(tail))
    still_growing = t[int(np.argmax(mag))] > t[-1] - policy.tail_window
    if diverged or peak >= policy.divergence_cap * early or (
        tail_peak >= policy.growth_factor * early and still_growing
    ):
        return SyncVerdict(SyncStatus.LOSS_OF_SYNCHRONISM, None, peak, tail_mean)

    threshold = policy.eps_sync * peak
    if tail_peak < threshold:
        above = np.nonzero(mag >= threshold)[0]
        settle = float(t[above[-1] + 1]) if above.size else float(t[0])
        return SyncVerdict(SyncStatus.SYNCHRONIZED, settle, peak, tail_mean)
    return SyncVerdict(SyncStatus.BOUNDED_NOT_SYNCHRONIZED, None, peak, tail_mean)
