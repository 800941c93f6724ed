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
Nothing couples v's and i's routes until the closed form, so where
``os.fork`` exists and the grid is long enough, v's route (its complex
frequency, PLL speed under ``pll``, and envelope variance) runs in a forked
child that writes it into :func:`shared_array` memory, while the calling
process runs i's.  The results are the same bits either way.
:class:`ForkedCall` is the one helper that forks, here and in the runner.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass

import numpy as np

from .energy import conditional_variance
from .metric import SESeries, normalized_se, se_from_cf, se_numeric
from .pll import PllParams, pll_run
from .signals import CFSeries, ParkSeries, _as_series, _require_same_grid, complex_frequency, complex_power

ESTIMATORS = ("fd", "pll")

# grids shorter than this run the two PLL loops in turn: the fork and the
# child's exit cost more than the loop they hide.  Alternating in one
# process per size (2 cores, Python 3.11, numpy 2.4), three rounds of 80
# pairs found the forked analyze(pll) the faster in 26, 10 and 3 pairs at
# 5 000 samples, 30, 45 and 43 at 7 500, 60, 61 and 55 at 10 000, 59, 62 and
# 54 at 15 000, and 55, 68 and 69 at 20 000
_FORK_MIN_SAMPLES = 10_000

# fd grids shorter than this analyse v in turn: alternating in one process, the
# forked analyze(fd) was the faster in 27 of 80 pairs at 90 000 samples and 69
# at 100 000 holding only the pair, 45 at 200 000 and 77 at 300 000 holding 160 MB more
_FORK_MIN_FD_SAMPLES = 200_000


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
    pll_params: PllParams = PllParams(),
) -> AnalysisResult:
    """Run both SE routes on a voltage/current Park-vector pair.

    Parameters
    ----------
    v, i : ParkSeries
        Voltage and current on a common grid (frame-relative); never written.
    estimator : {"fd", "pll"}
        Source of the instantaneous frequencies.
    pll_params : PllParams, optional
        Nominal frame frequency of the loop when ``estimator="pll"``.

    Returns
    -------
    AnalysisResult

    Notes
    -----
    On a grid of at least ``_FORK_MIN_FD_SAMPLES`` samples with
    ``estimator="fd"``, or ``_FORK_MIN_SAMPLES`` with ``estimator="pll"``,
    v's route runs in a child made by ``os.fork`` beside all of i's, and
    writes its complex frequency and envelope variance into shared arrays.
    An exception raised there is raised here with its type and message; a
    child that dies without a result raises ``RuntimeError`` naming its
    exit status.  No child process or file descriptor outlives the call.
    """
    if estimator not in ESTIMATORS:
        raise ValueError(f"estimator must be one of {ESTIMATORS}, got {estimator!r}")
    _require_same_grid(v.grid, i.grid, "analyze")
    grid, params = v.grid, pll_params if estimator == "pll" else None
    fork = grid.n >= (_FORK_MIN_FD_SAMPLES if params is None else _FORK_MIN_SAMPLES) and hasattr(os, "fork")
    out = [shared_array(grid.n) for _ in range(4)] if fork else None
    # the kernels run unchecked, and on a very fine grid their derivatives
    # overflow; the series handed out are checked once, below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        with ForkedCall(_route, v, params, out, fork=fork) as v_part:
            s = complex_power(v, i)
            cf_i, var_i = _route(i, params, None)
            psi_numeric = se_numeric(s.d, s.q, grid)
            # forked, the child filled ``out`` and returned None
            cf_v, var_v = v_part.result() or (CFSeries(grid, *out[:3]), out[3])
        se = se_from_cf(cf_v, cf_i, s, var_v, var_i)
        del out, var_v, var_i  # freed before the last kernel allocates
        normalized = normalized_se(se)
    for name, x in (
        ("rho_v", cf_v.rho),
        ("omega_v", cf_v.omega),
        ("rho_i", cf_i.rho),
        ("omega_i", cf_i.omega),
        ("psi_cf", se.psi),
        ("psi_numeric", psi_numeric),
    ):
        _as_series(x, grid.n, name)
    return AnalysisResult(s, cf_v, cf_i, se, psi_numeric, normalized)


def _route(x: ParkSeries, params: PllParams | None, out: list | None):
    """x's complex frequency (its omega from the PLL when ``params`` is given)
    and envelope variance, or with ``out`` (four shared arrays) their rho,
    omega, magnitude and variance written there."""
    cf = complex_frequency(x)
    var = conditional_variance(cf.magnitude, x.grid)
    if params is not None:
        cf.omega = pll_run(x, params)[1] - params.omega_o
    if out is None:
        return cf, var
    for dst, src in zip(out, (cf.rho, cf.omega, cf.magnitude, var)):
        dst[...] = src


def _outcome(fn, args):
    """What ``fn(*args)`` returns or raises; an exception that does not survive
    pickling (the classes are the caller's) becomes a ``RuntimeError`` naming it."""
    try:
        return fn(*args)
    except Exception as exc:
        try:
            return pickle.loads(pickle.dumps(exc, pickle.HIGHEST_PROTOCOL))
        except Exception:
            return RuntimeError(f"the child process raised {type(exc).__name__}: {exc}, which cannot cross the pipe")


def shared_array(n: int) -> np.ndarray:
    """``n`` float64 values in anonymous shared memory, which holds no file
    descriptor: a child forked after this call fills them in place."""
    import mmap  # here, not at the top: `import syncenergy.config` loads this module

    return np.frombuffer(mmap.mmap(-1, 8 * n or 1), count=n)  # mmap refuses length 0


class ForkedCall:
    """``fn(*args)`` run in a child made by ``os.fork``, which pickles what
    it returns or raises into a pipe.  A child that fills arrays from
    :func:`shared_array` returns None, so only None or an exception
    crosses the pipe.  With ``fork`` false, or without ``os.fork``,
    :meth:`result` calls it here.  Leaving a ``with`` block cancels a
    child whose result was not taken."""

    def __init__(self, fn, *args, fork: bool = True) -> None:
        self._call, self._pid, self._src = (fn, args), 0, None
        if not (fork and hasattr(os, "fork")):
            return
        rfd, wfd = os.pipe()
        self._src = open(rfd, "rb")
        with open(wfd, "wb") as out:
            try:
                self._pid = os.fork()
            except BaseException:
                self._src.close()
                raise
            if self._pid == 0:  # the child sends its outcome, and never returns
                try:
                    self._src.close()
                    pickle.dump(_outcome(fn, args), out, pickle.HIGHEST_PROTOCOL)
                    out.close()
                    os._exit(0)
                finally:
                    os._exit(1)

    def __enter__(self) -> "ForkedCall":
        return self

    def __exit__(self, *exc) -> None:
        self.cancel()

    def result(self):
        """What ``fn`` returned, or raise what it raised; ``RuntimeError``
        naming the exit status if the child ends without a result.  The
        child is reaped either way."""
        if self._src is None:
            fn, args = self._call
            return fn(*args)
        with self:  # an interrupted wait kills the child
            try:
                outcome = pickle.load(self._src)
            except (EOFError, pickle.UnpicklingError):  # no whole result came
                code = os.waitstatus_to_exitcode(self._reap())
                raise RuntimeError(f"the child process ended without a result (exit status {code})") from None
            self._reap()
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def cancel(self) -> None:
        """Kill and reap the child, unless it was reaped already."""
        if self._pid:
            os.kill(self._pid, 9)  # SIGKILL
            self._reap()

    def _reap(self) -> int:
        status = os.waitpid(self._pid, 0)[1]
        self._pid = 0
        self._src.close()
        return status


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
