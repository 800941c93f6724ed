"""Joint analysis of a voltage/current pair and route agreement."""

from pathlib import Path

import numpy as np
import pytest

from syncenergy.pipeline import ESTIMATORS, analyze, identity_gap
from syncenergy.signals import ParkSeries, TimeGrid
from syncenergy.simulator import SyntheticSpec, synthetic_signal

GRID = TimeGrid(0.0, 1e-3, 4001)


def _pair(**kwargs):
    return synthetic_signal(SyntheticSpec(grid=GRID, **kwargs))


def test_estimator_names():
    assert ESTIMATORS == ("fd", "pll")
    v, i = _pair(template="constant_phasor")
    with pytest.raises(ValueError, match="estimator"):
        analyze(v, i, estimator="kalman")


def test_analyze_produces_consistent_shapes():
    v, i = _pair(template="dual_frequency", omega1=2.0, omega2=1.0)
    res = analyze(v, i)
    n = GRID.n
    for arr in (res.se.psi, res.psi_numeric, res.normalized,
                res.cf_v.omega, res.cf_i.rho, res.s.d):
        assert arr.shape == (n,)


def test_two_routes_agree_on_modulated_signal():
    v, i = _pair(template="amplitude_modulated", mod_depth=0.3, mod_freq=3.0)
    report = identity_gap(analyze(v, i))
    assert report.n_compared == GRID.n - 4
    assert report.rel_gap < 1e-4
    assert report.max_abs_gap <= report.rel_gap * report.scale * (1.0 + 1e-12)


def test_identity_gap_zero_when_both_routes_vanish():
    v, i = _pair(template="constant_phasor")
    report = identity_gap(analyze(v, i))
    assert report.max_abs_gap == 0.0
    assert report.rel_gap == 0.0


def test_identity_gap_respects_exclusion_windows():
    """Corrupting samples inside an excluded window must not affect the gap."""
    v, i = _pair(template="dual_frequency", omega1=2.0, omega2=1.0)
    res = analyze(v, i)
    res.psi_numeric[2000] += 99.0
    t_bad = GRID.times()[2000]
    full = identity_gap(res)
    masked = identity_gap(res, exclude=((t_bad - 0.005, t_bad + 0.005),))
    assert full.rel_gap > 0.5
    assert masked.rel_gap < 1e-6
    assert masked.n_compared < full.n_compared


def test_pll_estimator_matches_fd_after_lock():
    """Once the loops settle, both frequency sources give the same SE."""
    v, i = _pair(template="dual_frequency", omega1=1.5, omega2=0.5)
    fd = analyze(v, i, estimator="fd")
    pll = analyze(v, i, estimator="pll")
    late = GRID.times() >= 3.0
    late[-2:] = False
    np.testing.assert_allclose(pll.se.psi[late], fd.se.psi[late], rtol=1e-3)


def test_analyze_rejects_mismatched_grids():
    v, _ = _pair(template="constant_phasor")
    other = TimeGrid(0.0, 1e-3, 101)
    i = ParkSeries(other, np.ones(other.n), np.zeros(other.n))
    with pytest.raises(ValueError, match="same grid"):
        analyze(v, i)


def test_readme_library_example_prints_what_it_says(capsys):
    """The README's library example runs as written, with module imports,
    and prints the values its comments state."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start (library)\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    psi, status, verdict = capsys.readouterr().out.splitlines()
    assert float(psi) == pytest.approx(8.0, rel=1e-12)
    assert status == "BoundedNotSynchronized"
    assert verdict == "Synchronized 55.455"
