"""Joint analysis of a voltage/current pair and route agreement."""

import dataclasses
import mmap
import os
import signal
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncenergy import pipeline
from syncenergy.config import ConfigError
from syncenergy.metric import ClassifierPolicy, SyncStatus, classify_sync
from syncenergy.pipeline import ESTIMATORS, ForkedCall, analyze, identity_gap
from syncenergy.pll import PllParams, pll_run
from syncenergy.runner import execute_scenario
from syncenergy.signals import EDGE_WIDTH, EPS_MAG, MIN_SAMPLES, ParkSeries, TimeGrid
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


def test_every_grid_is_one_the_analysis_takes():
    """TimeGrid holds the only record-length rule: a grid one sample short of
    MIN_SAMPLES is refused where it is built, and on MIN_SAMPLES samples both
    estimators, the classifier and the route comparison all run."""
    with pytest.raises(ValueError, match="at least 5"):
        TimeGrid(0.0, 1.0, MIN_SAMPLES - 1)
    grid = TimeGrid(0.0, 1e-3, MIN_SAMPLES)
    v, i = synthetic_signal(SyntheticSpec(grid=grid, template="dual_frequency", omega1=2.0, omega2=1.0))
    policy = ClassifierPolicy()
    for estimator in ESTIMATORS:
        result = analyze(v, i, estimator)
        assert result.se.psi.shape == result.psi_numeric.shape == (MIN_SAMPLES,)
        assert classify_sync(result.se, policy).status is SyncStatus.INDETERMINATE
        assert classify_sync(result.se, policy, diverged=True).status is SyncStatus.LOSS_OF_SYNCHRONISM
        assert identity_gap(result).n_compared == MIN_SAMPLES - 2 * EDGE_WIDTH


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


# ------------------------------------------------------- forked PLL loops

def _bytes(result):
    return [x.tobytes() for x in (result.cf_v.rho, result.cf_v.omega, result.cf_i.rho,
                                  result.cf_i.omega, result.se.psi, result.psi_numeric,
                                  result.normalized)]


@st.composite
def _dropout_pairs(draw):
    """A (v, i) pair on a grid either side of the fork's break-even, some
    samples of each vector dropped below EPS_MAG."""
    cut = pipeline._FORK_MIN_SAMPLES
    n = draw(st.one_of(st.integers(5, cut - 1), st.integers(cut, 2 * cut)))
    grid = TimeGrid(0.0, draw(st.sampled_from((1e-3, 2e-4))), n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pair = []
    for share in (draw(st.floats(0.0, 0.3)), draw(st.floats(0.0, 0.3))):
        z = rng.uniform(0.5, 2.0) * np.exp(1j * np.cumsum(rng.normal(0.0, 0.05, n)))
        drop = rng.random(n) < share
        z[drop] *= rng.uniform(0.0, EPS_MAG / 2.0, np.count_nonzero(drop))
        pair.append(ParkSeries.from_complex(grid, z))
    return pair


@settings(deadline=None, max_examples=30)
@given(pair=_dropout_pairs())
def test_forked_pll_gives_the_bytes_of_the_loops_run_in_turn(leaves_nothing, counting_forks, without_fork, pair):
    """The forked path, and with os.fork deleted (as on Windows) the loops
    run in turn, give the bytes of direct pll_run calls.  Forked, v's route
    comes back in shared memory; in turn and without os.fork nothing does."""
    v, i = pair
    with leaves_nothing():
        result, forks = counting_forks(analyze, v, i, estimator="pll")
    assert forks == (v.grid.n >= pipeline._FORK_MIN_SAMPLES)
    params = PllParams()
    assert result.cf_v.omega.tobytes() == (pll_run(v, params)[1] - params.omega_o).tobytes()
    assert result.cf_i.omega.tobytes() == (pll_run(i, params)[1] - params.omega_o).tobytes()
    assert [_in_shared_memory(x) for x in _cf_arrays(result)] == [forks] * 3 + [False] * 3
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_FORK_MIN_SAMPLES", v.grid.n + 1)
        in_turn = analyze(v, i, estimator="pll")
    for other in (in_turn, without_fork(analyze, v, i, estimator="pll")):
        assert _bytes(result) == _bytes(other)
        assert not any(map(_in_shared_memory, _cf_arrays(other)))


def _cf_arrays(result):
    return (result.cf_v.rho, result.cf_v.omega, result.cf_v.magnitude,
            result.cf_i.rho, result.cf_i.omega, result.cf_i.magnitude)


def _in_shared_memory(x):
    """Whether ``x`` views a pipeline.shared_array mapping."""
    return isinstance(getattr(x.base, "obj", None), mmap.mmap)


class _LoopError(Exception):
    pass


def _pll_run_in_child(monkeypatch, action):
    """pll_run that first runs ``action`` when called in a child process; the
    break-even is patched so that analyze(pll) forks on GRID."""
    monkeypatch.setattr(pipeline, "_FORK_MIN_SAMPLES", 0)
    parent = os.getpid()

    def run(x, params):
        if os.getpid() != parent:
            action()
        return pll_run(x, params)

    return run


def _raise(exc):
    def action():
        raise exc
    return action


@pytest.mark.parametrize("exc", [FloatingPointError("loop diverged"), _LoopError("no lock"),
                                 ConfigError("grid.dt", "bad")],
                         ids=["builtin", "own-class", "config-error"])
def test_an_exception_in_the_child_reaches_the_caller(monkeypatch, nothing_left, exc):
    v, i = _pair(template="dual_frequency", omega1=1.5, omega2=0.5)
    monkeypatch.setattr(pipeline, "pll_run", _pll_run_in_child(monkeypatch, _raise(exc)))
    with pytest.raises(type(exc)) as caught:
        analyze(v, i, estimator="pll")
    assert type(caught.value) is type(exc)
    assert str(caught.value) == str(exc)
    assert vars(caught.value) == vars(exc)


class _TwoFieldError(Exception):
    """Pickles, but unpickling calls __init__ with the one formatted arg."""

    def __init__(self, field, reason):
        super().__init__(f"{field}: {reason}")


def _raises(exc):
    raise exc


@pytest.mark.parametrize("where", ["child", "parent"])
def test_an_exception_that_cannot_cross_the_pipe_is_one_runtime_error(nothing_left, where):
    """A local class cannot be pickled in the child; a class whose __init__
    takes two arguments is pickled there but cannot be unpickled here."""

    class LocalError(Exception):
        def __init__(self, field, reason):
            super().__init__(f"{field}: {reason}")

    exc = (LocalError if where == "child" else _TwoFieldError)("grid.dt", "bad")
    name = type(exc).__name__
    with pytest.raises(RuntimeError, match=rf"^the child process raised {name}: grid\.dt: bad, which cannot cross"):
        ForkedCall(_raises, exc).result()


@pytest.mark.parametrize("action, status", [
    (lambda: os._exit(3), 3),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
    (_raise(KeyboardInterrupt()), 1),
], ids=["exit-3", "sigkill", "keyboard-interrupt"])
def test_a_child_that_dies_gives_one_runtime_error_with_its_status(
        monkeypatch, nothing_left, action, status):
    v, i = _pair(template="dual_frequency", omega1=1.5, omega2=0.5)
    monkeypatch.setattr(pipeline, "pll_run", _pll_run_in_child(monkeypatch, action))
    with pytest.raises(RuntimeError, match=rf"without a result \(exit status {status}\)$"):
        analyze(v, i, estimator="pll")


def test_an_exception_in_the_parent_kills_and_reaps_the_child(monkeypatch, nothing_left):
    """The child would sleep a minute; the parent's error ends it at once."""
    v, i = _pair(template="dual_frequency", omega1=1.5, omega2=0.5)
    parent = os.getpid()
    monkeypatch.setattr(pipeline, "_FORK_MIN_SAMPLES", 0)

    def run(x, params):
        if os.getpid() != parent:
            time.sleep(60.0)
        raise _LoopError("parent loop failed")

    monkeypatch.setattr(pipeline, "pll_run", run)
    start = time.perf_counter()
    with pytest.raises(_LoopError, match="parent loop failed"):
        analyze(v, i, estimator="pll")
    assert time.perf_counter() - start < 30.0


# ------------------------------------------------------- forked fd analysis

def _all_bytes(result):
    """The bytes of every array an AnalysisResult holds."""
    se = result.se
    return [x.tobytes() for x in (result.s.d, result.s.q, result.cf_v.rho, result.cf_v.omega,
                                  result.cf_v.magnitude, result.cf_i.rho, result.cf_i.omega,
                                  result.cf_i.magnitude, se.psi, se.freq_term, se.var_term, se.s_mag2,
                                  se.valid, result.psi_numeric, result.normalized)]


@settings(deadline=None, max_examples=30)
@given(pair=_dropout_pairs(), cut=st.integers(5, 3000))
def test_forked_fd_analysis_gives_the_bits_of_the_analysis_in_turn(leaves_nothing, counting_forks, without_fork,
                                                                    pair, cut):
    """With the break-even patched to ``cut``: forked from ``cut`` samples on,
    and the same bits as in turn (break-even past the grid) and without os.fork."""
    v, i = pair
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_FORK_MIN_FD_SAMPLES", cut)
        with leaves_nothing():
            result, forks = counting_forks(analyze, v, i)
        assert forks == (v.grid.n >= cut)
        forked = _all_bytes(result)
        assert forked == _all_bytes(without_fork(analyze, v, i))
        mp.setattr(pipeline, "_FORK_MIN_FD_SAMPLES", v.grid.n + 1)
        assert forked == _all_bytes(analyze(v, i))
        mp.setattr(pipeline, "_FORK_MIN_FD_SAMPLES", cut)
        with leaves_nothing():  # under pll v's route forks at its own break-even
            assert counting_forks(analyze, v, i, "pll")[1] == (v.grid.n >= pipeline._FORK_MIN_SAMPLES)


@pytest.mark.parametrize("offset", [-1, 0])
def test_fd_analysis_forks_from_its_break_even(monkeypatch, nothing_left, counting_forks, offset):
    n = pipeline._FORK_MIN_FD_SAMPLES + offset
    v, i = synthetic_signal(SyntheticSpec(grid=TimeGrid(0.0, 1e-4, n), template="dual_frequency",
                                          omega1=3.0, omega2=1.0))
    result, forks = counting_forks(analyze, v, i)
    assert forks == (offset == 0)
    monkeypatch.setattr(pipeline, "_FORK_MIN_FD_SAMPLES", n + 1)
    assert _all_bytes(result) == _all_bytes(analyze(v, i))


@pytest.mark.parametrize("estimator, dt", [("fd", None), ("pll", None), ("pll", 0.5)],
                         ids=["fd", "pll", "pll-past_the_step_bound"])
def test_a_value_error_in_the_forked_v_route_reaches_the_caller_as_in_turn(monkeypatch, nothing_left, load_bundled,
                                                                          without_fork, estimator, dt):
    """Raised where v's envelope variance is computed or, at a step past
    pll.DT_MAX, where each PLL loop starts, in the child, in turn or without
    os.fork: analyze raises it with its type and message, and execute_scenario
    maps it to the same ConfigError, under either estimator."""
    config = dataclasses.replace(load_bundled("synth_dual_freq"), estimator=estimator)
    break_even = "_FORK_MIN_SAMPLES" if estimator == "pll" else "_FORK_MIN_FD_SAMPLES"
    if dt is None:
        message = "v's envelope is bad"
        v, _ = synthetic_signal(config.synthetic)
        v_mag, variance = np.hypot(v.d, v.q), pipeline.conditional_variance

        def failing(a, grid):
            if np.array_equal(a, v_mag):
                raise ValueError(message)
            return variance(a, grid)

        monkeypatch.setattr(pipeline, "conditional_variance", failing)
    else:
        message = "the PLL's discrete loop cannot lock unless dt < 0.1531 s"
        grid = TimeGrid(0.0, dt, 11)
        config = dataclasses.replace(config, grid=grid, synthetic=dataclasses.replace(config.synthetic, grid=grid))
    real_fork, forks = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    errors = []
    for cut, n_forks, call in ((0, 1, _call), (config.grid.n + 1, 0, _call), (0, 0, without_fork)):
        monkeypatch.setattr(pipeline, break_even, cut)
        forks.clear()
        with pytest.raises(ValueError) as caught:
            call(analyze, *synthetic_signal(config.synthetic), estimator)
        assert type(caught.value) is ValueError and str(caught.value) == message
        with pytest.raises(ConfigError) as caught:
            call(execute_scenario, config)
        errors.append((caught.value.path, caught.value.message))
        assert len(forks) == 2 * n_forks
    assert errors == 3 * [("grid.dt", f"{message} when analysed at dt={config.grid.dt!r}")]


def _call(fn, *args):
    return fn(*args)


@pytest.mark.parametrize("estimator", ESTIMATORS)
def test_analyze_refuses_mismatched_grids_before_any_fork(monkeypatch, nothing_left, estimator):
    monkeypatch.setattr(pipeline, "_FORK_MIN_FD_SAMPLES", 0)
    monkeypatch.setattr(pipeline, "_FORK_MIN_SAMPLES", 0)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    v, _ = _pair(template="constant_phasor")
    other = TimeGrid(0.0, 1e-3, GRID.n + 1)
    i = ParkSeries(other, np.ones(other.n), np.zeros(other.n))
    with pytest.raises(ValueError, match="same grid"):
        analyze(v, i, estimator)


@pytest.mark.parametrize("n", [0, 1, 5, 1000])
def test_shared_array_is_a_writable_contiguous_float64_array_a_child_fills(nothing_left, n):
    a = pipeline.shared_array(n)
    assert a.shape == (n,) and a.dtype == np.float64
    assert a.flags.writeable and a.flags.c_contiguous
    ForkedCall(a.__setitem__, Ellipsis, np.arange(n, dtype=float)).result()
    assert a.tobytes() == np.arange(n, dtype=float).tobytes()
