"""Acceptance checks for the synchronization-energy package.

Twelve numbered end-to-end checks, each printing one PASS/FAIL line with
the measured numbers.  They pin the published behavior: operator
identities and tolerances, machine-case orderings and verdicts, estimator
agreement, and byte-level determinism of the emitted files.

Check 01 tests the sampled operator against what it promises.  It is
second order, so on a sinusoid its interior value is exactly
A^2 (sin(w dt)/dt)^2, which tends to A^2 w^2 as dt -> 0.  The check has
three parts for sinusoids: the discrete value on every subcase, A^2 w^2
itself at the low rates, and second-order convergence to A^2 w^2 at
w = 2 pi 60, where the value at dt = 1e-3 is short by about 4.6 percent.
The line reports that 60 Hz shortfall and the measured order.  The
exponential null cases are checked as before.

Check 12 rewrites every bundled scenario and sweep twice and is the slow
one (about 5 s, dominated by the two 120 s damped records).
"""

import dataclasses
import filecmp
import math
from importlib import resources

import numpy as np
import pytest
from test_energy import teo_complex
from test_simulator import swing_energy

from syncenergy.config import load_document, parse_sweep
from syncenergy.energy import EDGE_WIDTH, conditional_variance, teo_real
from syncenergy.metric import SyncStatus
from syncenergy.pll import PllParams, pll_run
from syncenergy.runner import (execute_scenario, run_sweep, verify_scenario,
                               write_series_csv)
from syncenergy.signals import ParkSeries, TimeGrid, complex_frequency

SWEEP_SCENARIOS = ("sweep_inertia", "sweep_damping", "sweep_distance")

RUN_SCENARIOS = (
    "smib_h5_d0",
    "smib_h10_d0",
    "smib_h5_d5",
    "smib_h10_d5",
    "smib_x1",
    "smib_x3",
    "smib_x4",
    "synth_constant",
    "synth_dual_freq",
    "synth_drift",
    "synth_variance_cancel",
    "synth_limit_cycle",
)


def _report(capsys, num, label, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num:02d} {label}: {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def _assessed(se):
    return se.interior_mask() & se.valid


def _sinusoid_teo(amp, w0, dt):
    """Interior TEO of A cos(w t) sampled at dt over a 2 s horizon."""
    grid = TimeGrid(0.0, dt, int(round(2.0 / dt)) + 1)
    return teo_real(amp * np.cos(w0 * grid.times()), grid)[EDGE_WIDTH:-EDGE_WIDTH]


def _rel_err(values, ref):
    return float(np.max(np.abs(values - ref)) / abs(ref))


def test_01_teo_closed_form_identities(capsys):
    """psi of sampled sinusoids against A^2 w^2, and of exponentials against 0.

    Sinusoids: the interior equals A^2 (sin(w dt)/dt)^2 to 1e-9; it meets
    A^2 w^2 to 1e-4 at w = 1 and 2 pi; at w = 2 pi 60 its error against
    A^2 w^2 falls at order >= 1.9 when dt halves from 1e-3 to 5e-4.
    """
    dt = 1e-3
    w60 = 2.0 * math.pi * 60.0
    failures = []
    bias60, order60 = 0.0, math.inf
    for amp in (1.0, 2.0):
        for w0 in (1.0, 2.0 * math.pi, w60):
            psi = _sinusoid_teo(amp, w0, dt)
            discrete = amp * amp * (math.sin(w0 * dt) / dt) ** 2
            rel = _rel_err(psi, discrete)
            if rel > 1e-9:
                failures.append(f"A={amp:g} w={w0:g}: rel {rel:.3e} to A^2 (sin(w dt)/dt)^2 > 1e-9")
            rel = _rel_err(psi, amp * amp * w0 * w0)
            if w0 != w60:
                if rel > 1e-4:
                    failures.append(f"A={amp:g} w={w0:g}: rel {rel:.3e} to A^2 w^2 > 1e-4")
                continue
            fine = _rel_err(_sinusoid_teo(amp, w0, dt / 2.0), amp * amp * w0 * w0)
            order = math.log2(rel / fine)
            bias60, order60 = max(bias60, rel), min(order60, order)
            if not order >= 1.9:
                failures.append(f"A={amp:g} w={w0:g}: order {order:.2f} < 1.9")
    grid = TimeGrid(0.0, dt, 2001)
    t = grid.times()
    for alpha in (0.5, 1.0, 5.0):
        worst = float(np.max(np.abs(teo_real(np.exp(-alpha * t), grid)[EDGE_WIDTH:-EDGE_WIDTH])))
        if worst > 1e-5 * alpha * alpha:
            failures.append(f"alpha={alpha:g}: abs {worst:.3e}")
    detail = (f"60 Hz rel error to A^2 w^2 {bias60:.3e} at dt=1e-3, "
              f"order {order60:.2f} under halving (bound 1.9); ")
    detail += "all 15 subcases within tolerance" if not failures else "; ".join(failures)
    _report(capsys, 1, "operator identities", not failures, detail)


def test_02_complex_teo_decomposes_into_components(capsys):
    """psi_c(x) = psi(Re x) + psi(Im x) on 100 random smooth signals."""
    rng = np.random.default_rng(20240817)
    grid = TimeGrid(0.0, 1e-3, 1001)
    t = grid.times()

    def smooth():
        out = np.zeros_like(t)
        for _ in range(3):
            out += rng.uniform(0.5, 2.0) * np.cos(rng.uniform(0.5, 5.0) * t + rng.uniform(0.0, 6.28))
        return out

    worst = 0.0
    for _ in range(100):
        d, q = smooth(), smooth()
        combined = teo_complex(ParkSeries(grid, d, q))[EDGE_WIDTH:-EDGE_WIDTH]
        split = (teo_real(d, grid) + teo_real(q, grid))[2:-2]
        worst = max(worst, float(np.max(np.abs(combined - split)) / np.max(np.abs(combined))))
    _report(capsys, 2, "complex operator decomposition", worst <= 1e-12,
            f"worst relative gap {worst:.3e} (bound 1e-12)")


def test_03_se_routes_agree_and_converge(capsys, load_bundled):
    """Closed-form versus direct-operator SE on a damped machine swing."""
    config = load_bundled("smib_h5_d5")
    short = dataclasses.replace(config, grid=TimeGrid(0.0, 1e-3, 6001))
    report = verify_scenario(short)
    ok = report.coarse.rel_gap <= 0.01 and report.order is not None and report.order >= 1.8
    _report(capsys, 3, "route agreement and convergence", ok,
            f"rel gap {report.coarse.rel_gap:.3e} at dt=1e-3 (bound 1e-2), "
            f"order {report.order:.2f} under halving (bound 1.8)")


def test_04_envelope_variance_closed_forms(capsys):
    """Gaussian envelopes give the constant rate/2; exponentials give zero."""
    grid = TimeGrid(0.0, 1e-3, 2001)
    t = grid.times()
    worst_rel = 0.0
    for alpha in (0.5, 1.0, 2.0):
        vals = conditional_variance(np.exp(-0.5 * alpha * t * t), grid)[EDGE_WIDTH:-EDGE_WIDTH]
        worst_rel = max(worst_rel, float(np.max(np.abs(vals - alpha / 2.0)) / (alpha / 2.0)))
    worst_abs = 0.0
    for alpha in (0.5, 1.0, 5.0):
        vals = conditional_variance(np.exp(-alpha * t), grid)[EDGE_WIDTH:-EDGE_WIDTH]
        worst_abs = max(worst_abs, float(np.max(np.abs(vals))))
    ok = worst_rel <= 1e-4 and worst_abs <= 1e-8
    _report(capsys, 4, "envelope variance closed forms", ok,
            f"gaussian rel {worst_rel:.3e} (bound 1e-4), exponential abs {worst_abs:.3e} (bound 1e-8)")


def test_05_inertia_lowers_the_se_peak(capsys, scenario_runs):
    """Same cleared fault, no damping: doubling H shrinks the SE peak."""
    low = scenario_runs("smib_h5_d0")
    high = scenario_runs("smib_h10_d0")
    ok = (
        low.verdict.status is SyncStatus.BOUNDED_NOT_SYNCHRONIZED
        and high.verdict.status is SyncStatus.BOUNDED_NOT_SYNCHRONIZED
        and high.verdict.peak_psi < low.verdict.peak_psi
    )
    _report(capsys, 5, "inertia ordering", ok,
            f"H=5 peak {low.verdict.peak_psi:.2f} ({low.verdict.status.value}), "
            f"H=10 peak {high.verdict.peak_psi:.2f} ({high.verdict.status.value})")


def test_06_damping_synchronizes_slower_at_high_inertia(capsys, scenario_runs):
    """With D = 5 both machines settle; the heavier one takes longer."""
    low = scenario_runs("smib_h5_d5")
    high = scenario_runs("smib_h10_d5")
    ok = (
        low.verdict.status is SyncStatus.SYNCHRONIZED
        and high.verdict.status is SyncStatus.SYNCHRONIZED
        and low.verdict.settle_time is not None
        and high.verdict.settle_time is not None
        and high.verdict.settle_time > low.verdict.settle_time
    )
    _report(capsys, 6, "damping settle ordering", ok,
            f"H=5 settles {low.verdict.settle_time} s, H=10 settles {high.verdict.settle_time} s")


def test_07_electrical_distance_boundary(capsys, scenario_runs):
    """Scaling the line reactance 1x/3x/4x crosses the stability boundary."""
    stable = {SyncStatus.SYNCHRONIZED, SyncStatus.BOUNDED_NOT_SYNCHRONIZED}
    runs = [scenario_runs(name) for name in ("smib_x1", "smib_x3", "smib_x4")]
    statuses = [run.verdict.status for run in runs]
    x4 = runs[2]
    se = x4.analysis.se
    t = x4.grid.times()
    mask = _assessed(se)
    pre = mask & (t < x4.config.fault.t_apply - x4.config.policy.guard)
    pre_peak = float(np.max(np.abs(se.psi[pre])))
    post_peak = float(np.max(np.abs(se.psi[mask])))
    ok = (
        statuses[0] in stable
        and statuses[1] in stable
        and statuses[2] is SyncStatus.LOSS_OF_SYNCHRONISM
        and x4.diverged
        and post_peak >= 1e3 * pre_peak
        and post_peak > 0.0
    )
    _report(capsys, 7, "electrical distance boundary", ok,
            f"verdicts {[s.value for s in statuses]}, 4x record truncated at "
            f"{x4.grid.t_end:.3f} s with SE peak {post_peak:.3e} vs pre-fault {pre_peak:.3e}")


def test_08_common_frequency_drift_is_invisible(capsys, scenario_runs):
    """Both frequencies ramp together: SE stays at zero at every sample."""
    run = scenario_runs("synth_drift")
    se = run.analysis.se
    mask = _assessed(se)
    worst = float(np.max(np.abs(se.psi[mask])))
    omega = run.analysis.cf_v.omega[mask]
    drift = float(omega.max() - omega.min())
    ok = worst <= 1e-9 and drift > 1.0
    _report(capsys, 8, "common drift decoupling", ok,
            f"max |SE| {worst:.3e} (bound 1e-9) while omega_v drifts {drift:.2f} rad/s")


def test_09_opposite_envelope_variances_cancel(capsys, scenario_runs):
    """Reciprocal Gaussian envelopes on v and i: SE vanishes although
    neither magnitude is constant."""
    run = scenario_runs("synth_variance_cancel")
    se = run.analysis.se
    worst = float(np.max(np.abs(se.psi[_assessed(se)])))
    mag = run.analysis.cf_v.magnitude
    swing = float(mag.max() / mag.min())
    ok = worst <= 1e-6 and swing > 1.5
    _report(capsys, 9, "variance cancellation", ok,
            f"max |SE| {worst:.3e} (bound 1e-6) with v magnitude swinging {swing:.2f}x")


def test_10_pll_matches_finite_differences_when_settled(capsys):
    """Default-gain loop against the finite-difference frequency on
    stationary vectors, compared after the lock transient."""
    grid = TimeGrid(0.0, 1e-3, 5001)
    t = grid.times()
    params = PllParams()
    worst = 0.0
    for phi0, dw in ((0.3, 0.0), (0.0, 0.8)):
        x = ParkSeries.from_complex(grid, np.exp(1j * (phi0 + dw * t)))
        fd = complex_frequency(x).omega
        pll = pll_run(x, params)[1] - params.omega_o
        settled = slice(int(round(4.0 / grid.dt)), grid.n - 2)
        worst = max(worst, float(np.max(np.abs(pll[settled] - fd[settled]))))
    _report(capsys, 10, "loop frequency agreement", worst <= 1e-3,
            f"settled max deviation {worst:.3e} rad/s (bound 1e-3)")


def test_11_undamped_swing_conserves_energy(capsys, scenario_runs):
    """RK4 sanity: the post-fault energy function drifts below 1e-7
    relative per simulated second."""
    run = scenario_runs("smib_h5_d0")
    t = run.grid.times()
    post = t >= run.config.fault.t_clear - 1e-12
    w = swing_energy(run.config.smib, run.columns["delta"][post],
                     run.columns["omega_pu"][post], "post")
    duration = float(t[post][-1] - t[post][0])
    rate = float(np.ptp(w) / abs(np.mean(w)) / duration)
    _report(capsys, 11, "energy conservation", rate < 1e-7,
            f"relative drift {rate:.3e} per second over {duration:.1f} s (bound 1e-7)")


def test_12_bundled_scenarios_are_deterministic(capsys, tmp_path, scenario_runs,
                                                load_bundled, bundled_dir):
    """Two independent executions of every bundled scenario and sweep emit
    byte-identical files."""
    differing = []
    a_dir = tmp_path / "a"
    b_dir = tmp_path / "b"
    a_dir.mkdir()
    b_dir.mkdir()
    for name in RUN_SCENARIOS:
        first = scenario_runs(name)
        second = execute_scenario(load_bundled(name))
        path_a = a_dir / f"{name}.csv"
        path_b = b_dir / f"{name}.csv"
        write_series_csv(path_a, first.columns, first.config.columns)
        write_series_csv(path_b, second.columns, second.config.columns)
        if not filecmp.cmp(path_a, path_b, shallow=False):
            differing.append(name)
        path_a.unlink()
        path_b.unlink()
    for name in SWEEP_SCENARIOS:
        with resources.as_file(bundled_dir.joinpath(f"{name}.yaml")) as path:
            sweep = parse_sweep(load_document(path))
        run_sweep(sweep, a_dir, emit_series=False)
        run_sweep(sweep, b_dir, emit_series=False)
        table = f"{name}.sweep.csv"
        if not filecmp.cmp(a_dir / table, b_dir / table, shallow=False):
            differing.append(name)
    total = len(RUN_SCENARIOS) + len(SWEEP_SCENARIOS)
    _report(capsys, 12, "deterministic output", not differing,
            f"all {total} outputs byte-identical" if not differing
            else f"differences in {', '.join(differing)}")
