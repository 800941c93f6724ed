"""Swing-equation machine model, its energy function, and signal templates."""

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncenergy.pll import KI, KP, PllParams, pll_run
from syncenergy.signals import EPS_MAG, ParkSeries, TimeGrid
from syncenergy.simulator import (
    DELTA_CAP,
    FaultSchedule,
    SmibParams,
    SyntheticSpec,
    equilibrium_angle,
    smib_simulate,
    synthetic_signal,
)

PARAMS = SmibParams(
    H=5.0, D=0.0, x_gen=0.3, x_line_prefault=0.2, x_line_fault=1.0, x_line_postfault=0.2
)
FAULT = FaultSchedule(1.0, 1.1)


# ---------------------------------------------------------------- rk4_step

def rk4_step(f, t, y, dt):
    """Classical RK4 step of y' = f(t, y) on a tuple state: the reference
    the inlined loop of ``smib_simulate`` must reproduce."""
    half = 0.5 * dt
    k1 = f(t, y)
    k2 = f(t + half, tuple(yi + half * ki for yi, ki in zip(y, k1)))
    k3 = f(t + half, tuple(yi + half * ki for yi, ki in zip(y, k2)))
    k4 = f(t + dt, tuple(yi + dt * ki for yi, ki in zip(y, k3)))
    sixth = dt / 6.0
    return tuple(
        yi + sixth * (a + 2.0 * (b + c) + d)
        for yi, a, b, c, d in zip(y, k1, k2, k3, k4)
    )


def test_rk4_single_step_matches_series_expansion():
    """For y' = lambda y one step reproduces the degree-4 Taylor factor."""
    out = rk4_step(lambda t, y: (-2.0 * y[0],), 0.0, (1.0,), 0.1)
    h = -0.2
    factor = 1.0 + h + h**2 / 2.0 + h**3 / 6.0 + h**4 / 24.0
    assert out[0] == pytest.approx(factor, rel=1e-15)


def test_rk4_fourth_order_on_oscillator():
    def f(t, y):
        return (y[1], -y[0])

    err = []
    for steps in (100, 200):
        dt = 2.0 * math.pi / steps
        y = (1.0, 0.0)
        for k in range(steps):
            y = rk4_step(f, k * dt, y, dt)
        err.append(abs(y[0] - 1.0) + abs(y[1]))
    order = math.log2(err[0] / err[1])
    assert order > 3.9


def reference_swing(params, fault, grid, delta_cap=DELTA_CAP):
    """(delta, omega_pu, diverged) by rk4_step, each step on the network of
    the interval its start lies in; the cap stops the run from the fifth
    sample on."""
    pm, d_damp, two_h, omega_n = params.Pm, params.D, 2.0 * params.H, params.omega_n
    eps_t = 0.5 * grid.dt
    y = (equilibrium_angle(params), 1.0)
    delta, omega = [y[0]], [y[1]]
    for k in range(grid.n - 1):
        t_k = grid.t0 + k * grid.dt
        if fault is None or t_k + eps_t < fault.t_apply:
            interval = "pre"
        elif t_k + eps_t < fault.t_clear:
            interval = "fault"
        else:
            interval = "post"
        p_max = params.E * params.V_inf / params.x_total(interval)

        def deriv(t, state):
            slip = state[1] - 1.0
            return (omega_n * slip, (pm - p_max * math.sin(state[0]) - d_damp * slip) / two_h)

        y = rk4_step(deriv, t_k, y, grid.dt)
        delta.append(y[0])
        omega.append(y[1])
        if abs(y[0]) > delta_cap and k >= 3:
            return np.array(delta), np.array(omega), True
    return np.array(delta), np.array(omega), abs(y[0]) > delta_cap


def reference_pll(v, params=PllParams()):
    """(theta_hat, omega_hat) of the discrete loop: one detector update per
    sample, held below EPS_MAG, then xi and theta by a semi-implicit Euler step."""
    dt = v.grid.dt
    theta_hat, omega_hat = np.empty(v.grid.n), np.empty(v.grid.n)
    theta, xi, e = 0.0, 0.0, 0.0
    for k in range(v.grid.n):
        mag = math.hypot(v.d[k], v.q[k])
        if mag >= EPS_MAG:
            e = (v.q[k] * math.cos(theta) - v.d[k] * math.sin(theta)) / mag
        theta_hat[k] = theta
        omega_hat[k] = params.omega_o + KP * e + KI * xi
        xi = xi + dt * e
        theta = theta + dt * (KP * e + KI * xi)
    return theta_hat, omega_hat


WEAK = SmibParams(H=5.0, D=5.0, x_gen=0.3, x_line_prefault=0.8,
                  x_line_fault=999.0, x_line_postfault=0.8)


EDGE_CASES = [
    (PARAMS, FaultSchedule(0.0, 2.0), 2001),  # applied at t0, cleared at the last sample
    (PARAMS, FaultSchedule(1.0, 1.001), 2001),  # on for one step
    (WEAK, FaultSchedule(1.0, 10.0), 10001),  # diverges before t_clear
    (WEAK, FAULT, 3687),  # diverges on the last step: nothing is cut, yet the run diverged
]
EDGE_IDS = ["fault_spans_grid", "one_step_fault", "diverged_during_fault", "diverged_on_last_step"]


@pytest.mark.parametrize("params, fault, n", [
    (PARAMS, None, 2001),
    (PARAMS, FAULT, 3001),
    (WEAK, FAULT, 20001),
] + EDGE_CASES, ids=["no_fault", "fault", "diverged"] + EDGE_IDS)
def test_simulate_is_bitwise_the_rk4_reference(params, fault, n):
    grid = TimeGrid(0.0, 1e-3, n)
    sim = smib_simulate(params, fault, grid)
    delta, omega, diverged = reference_swing(params, fault, grid)
    assert sim.diverged == diverged
    assert sim.grid.n == delta.size
    assert sim.delta.tobytes() == delta.tobytes()
    assert sim.omega_pu.tobytes() == omega.tobytes()


@pytest.mark.parametrize("params, fault, n", [(PARAMS, FAULT, 3001)] + EDGE_CASES,
                         ids=["fault"] + EDGE_IDS)
def test_network_outputs_take_the_reactance_of_their_sample(params, fault, n):
    """Sample t_k sees the fault network from t_apply inclusive and the
    post-fault one from t_clear inclusive, also on a truncated record."""
    sim = smib_simulate(params, fault, TimeGrid(0.0, 1e-3, n))
    t = sim.grid.times()
    x = np.where(t < fault.t_apply - 5e-4, params.x_total("pre"),
                 np.where(t < fault.t_clear - 5e-4, params.x_total("fault"), params.x_total("post")))
    i = (params.E * np.exp(1j * sim.delta) - params.V_inf) / (1j * x)
    assert sim.i_inj.d.tobytes() == i.real.tobytes()
    assert sim.i_inj.q.tobytes() == i.imag.tobytes()


def _rotating():
    grid = TimeGrid(0.0, 1e-3, 5001)
    return ParkSeries.from_complex(grid, np.exp(1j * 0.8 * grid.times()))


def _dropout():
    grid = TimeGrid(0.0, 1e-3, 5001)
    z = np.exp(0.2j) * np.ones(grid.n, dtype=complex)
    z[2500:2600] = 0.0
    return ParkSeries.from_complex(grid, z)


@pytest.mark.parametrize("make_v", [_rotating, _dropout], ids=["rotating", "dropout"])
def test_pll_is_bitwise_the_discrete_reference(make_v):
    v = make_v()
    theta_hat, omega_hat = pll_run(v)
    theta_ref, omega_ref = reference_pll(v)
    assert theta_hat.tobytes() == theta_ref.tobytes()
    assert omega_hat.tobytes() == omega_ref.tobytes()


# -------------------------------------------------------------- parameters

def test_params_validation():
    with pytest.raises(ValueError, match="inertia"):
        SmibParams(H=0.0, D=0.0, x_gen=0.3, x_line_prefault=0.2,
                   x_line_fault=1.0, x_line_postfault=0.2)
    with pytest.raises(ValueError, match="damping"):
        SmibParams(H=5.0, D=-1.0, x_gen=0.3, x_line_prefault=0.2,
                   x_line_fault=1.0, x_line_postfault=0.2)
    with pytest.raises(ValueError, match="x_line_fault"):
        SmibParams(H=5.0, D=0.0, x_gen=0.3, x_line_prefault=0.2,
                   x_line_fault=-1.0, x_line_postfault=0.2)
    # no document reaches this: config refuses f_nominal at its own field
    with pytest.raises(ValueError, match="omega_n must be positive"):
        SmibParams(H=5.0, D=0.0, x_gen=0.3, x_line_prefault=0.2,
                   x_line_fault=1.0, x_line_postfault=0.2, omega_n=0.0)


def test_x_total_per_interval():
    assert PARAMS.x_total("pre") == pytest.approx(0.5)
    assert PARAMS.x_total("fault") == pytest.approx(1.3)
    assert PARAMS.x_total("post") == pytest.approx(0.5)


def test_fault_schedule_ordering():
    with pytest.raises(ValueError, match="clear after"):
        FaultSchedule(2.0, 2.0)


def test_equilibrium_angle_frozen():
    assert equilibrium_angle(PARAMS) == pytest.approx(math.asin(9.0 / 22.0), rel=1e-12)


def test_equilibrium_angle_raises_beyond_transfer_limit():
    weak = SmibParams(H=5.0, D=0.0, x_gen=0.3, x_line_prefault=2.0,
                      x_line_fault=1.0, x_line_postfault=0.2)
    with pytest.raises(ValueError, match="no equilibrium"):
        equilibrium_angle(weak)


# ------------------------------------------------------------- eigenvalues

@dataclass(frozen=True)
class SmibEigenvalues:
    """Eigenvalues of the swing dynamics linearized about delta_eq."""

    first: complex
    second: complex
    saddle: bool


def smib_eigenvalues(params: SmibParams, delta_eq: float) -> SmibEigenvalues:
    """Linearize the swing equation about delta_eq (pre-fault network): the
    small-signal oracle ``smib_simulate``'s ringing is checked against.

    The small-signal system for (delta, omega) has the state matrix
    [[0, omega_n], [-Ks/(2H), -D/(2H)]] with synchronizing coefficient
    Ks = E V_inf cos(delta_eq) / x_total, so the eigenvalues solve

        lambda^2 + (D / 2H) lambda + Ks omega_n / (2H) = 0.

    Past delta_eq = pi/2 the coefficient Ks turns negative and the
    equilibrium is a saddle: both roots real, one positive.
    """
    ks = params.E * params.V_inf * math.cos(delta_eq) / params.x_total("pre")
    b = params.D / (2.0 * params.H)
    c = ks * params.omega_n / (2.0 * params.H)
    disc = b * b - 4.0 * c
    if disc < 0.0:
        root = 0.5 * math.sqrt(-disc)
        first = complex(-0.5 * b, root)
        second = complex(-0.5 * b, -root)
    else:
        root = 0.5 * math.sqrt(disc)
        first = complex(-0.5 * b + root, 0.0)
        second = complex(-0.5 * b - root, 0.0)
    return SmibEigenvalues(first, second, saddle=ks < 0.0)


def test_eigenvalues_frozen_oscillatory_pair():
    eig = smib_eigenvalues(PARAMS, equilibrium_angle(PARAMS))
    assert eig.first == pytest.approx(8.699450491840658j, abs=1e-9)
    assert eig.second == pytest.approx(-8.699450491840658j, abs=1e-9)
    assert not eig.saddle

    damped = SmibParams(H=5.0, D=5.0, x_gen=0.3, x_line_prefault=0.2,
                        x_line_fault=1.0, x_line_postfault=0.2)
    eig = smib_eigenvalues(damped, equilibrium_angle(damped))
    assert eig.first == pytest.approx(-0.25 + 8.695857568979994j, abs=1e-9)


def test_eigenvalues_saddle_past_ninety_degrees():
    eig = smib_eigenvalues(PARAMS, 2.0)
    assert eig.saddle
    assert eig.first.imag == 0.0 and eig.first.real > 0.0


@settings(deadline=None, max_examples=50)
@given(
    st.floats(min_value=0.5, max_value=20.0),
    st.floats(min_value=0.0, max_value=20.0),
    st.floats(min_value=-1.3, max_value=2.5),
)
def test_eigenvalues_match_state_matrix(h, d, delta_eq):
    """The quadratic-formula roots agree with a generic eigensolver."""
    p = SmibParams(H=h, D=d, x_gen=0.3, x_line_prefault=0.2,
                   x_line_fault=1.0, x_line_postfault=0.2)
    eig = smib_eigenvalues(p, delta_eq)
    ks = p.E * p.V_inf * math.cos(delta_eq) / p.x_total("pre")
    a = np.array([[0.0, p.omega_n], [-ks / (2.0 * h), -d / (2.0 * h)]])
    expected = sorted(np.linalg.eigvals(a), key=lambda z: (z.imag, z.real))
    got = sorted((eig.first, eig.second), key=lambda z: (z.imag, z.real))
    for mine, ref in zip(got, expected):
        assert mine == pytest.approx(ref, abs=1e-8)


@pytest.mark.parametrize("damping", [0.0, 5.0])
def test_simulated_ringing_matches_small_signal_frequency(damping):
    """After a short, mild fault the swing rings at the damped natural
    frequency Im(lambda) of the linearization; measured from the zero
    crossings of delta - delta_eq after 0.7 s."""
    params = SmibParams(H=5.0, D=damping, x_gen=0.3, x_line_prefault=0.2,
                        x_line_fault=0.25, x_line_postfault=0.2)
    grid = TimeGrid(0.0, 1e-3, 20001)
    sim = smib_simulate(params, FaultSchedule(0.5, 0.6), grid)
    delta_eq = equilibrium_angle(params)
    t = grid.times()
    x = (sim.delta - delta_eq)[t > 0.7]
    t = t[t > 0.7]
    k = np.flatnonzero(np.signbit(x[:-1]) != np.signbit(x[1:]))
    crossings = t[k] - x[k] * (t[k + 1] - t[k]) / (x[k + 1] - x[k])
    measured = math.pi * (len(crossings) - 1) / (crossings[-1] - crossings[0])
    expected = smib_eigenvalues(params, delta_eq).first.imag
    assert measured == pytest.approx(expected, rel=1e-3)


# ----------------------------------------------------------- smib_simulate

def test_simulate_holds_equilibrium_without_fault():
    grid = TimeGrid(0.0, 1e-3, 2001)
    sim = smib_simulate(PARAMS, None, grid)
    assert not sim.diverged
    d0 = equilibrium_angle(PARAMS)
    np.testing.assert_allclose(sim.delta, d0, rtol=0, atol=1e-9)
    np.testing.assert_allclose(sim.omega_pu, 1.0, rtol=0, atol=1e-9)


def test_simulate_frozen_post_fault_state():
    """State two seconds in, pinned after cross-checking an independent
    integration of the same equations."""
    grid = TimeGrid(0.0, 1e-3, 20001)
    sim = smib_simulate(PARAMS, FAULT, grid)
    assert sim.delta[2000] == pytest.approx(0.6653580498373503, rel=1e-12)
    assert sim.omega_pu[2000] == pytest.approx(0.99828997403228, rel=1e-12)
    assert sim.delta[5000] == pytest.approx(0.5346293511514131, rel=1e-12)


def test_simulate_network_outputs_satisfy_circuit_relations():
    grid = TimeGrid(0.0, 1e-3, 5001)
    sim = smib_simulate(PARAMS, FAULT, grid)
    emf = PARAMS.E * np.exp(1j * sim.delta)
    v = sim.v_bus.d + 1j * sim.v_bus.q
    i = sim.i_inj.d + 1j * sim.i_inj.q
    np.testing.assert_allclose(v, emf - 1j * PARAMS.x_gen * i, rtol=0, atol=1e-12)
    # away from the switching samples the line equation fixes the current
    t = grid.times()
    pre = t < FAULT.t_apply - 1e-9
    np.testing.assert_allclose(
        i[pre], (emf[pre] - PARAMS.V_inf) / (1j * PARAMS.x_total("pre")), atol=1e-12
    )


def test_simulate_is_stationary_before_the_fault():
    grid = TimeGrid(0.0, 1e-3, 5001)
    sim = smib_simulate(PARAMS, FAULT, grid)
    pre = grid.times() < FAULT.t_apply - 1e-9
    assert np.ptp(sim.v_bus.d[pre]) < 1e-9
    assert np.ptp(sim.i_inj.q[pre]) < 1e-9


@pytest.mark.parametrize("n, kept", [(5, 5), (9, 5)])
def test_an_early_divergence_keeps_five_samples(n, kept):
    """At H = 1e-4 and dt = 0.5 the angle passes the cap at the third sample;
    the run stops at the fifth, the fewest a TimeGrid holds, and a grid of
    just five samples that ends past the cap is flagged too."""
    fast = dataclasses.replace(WEAK, H=1.0e-4)
    grid = TimeGrid(0.0, 0.5, n)
    sim = smib_simulate(fast, FaultSchedule(0.5, 1.0), grid)
    delta, omega, diverged = reference_swing(fast, FaultSchedule(0.5, 1.0), grid)
    assert abs(sim.delta[2]) > DELTA_CAP
    assert (sim.grid.n, sim.diverged, diverged) == (kept, True, True)
    assert sim.delta.tobytes() == delta.tobytes()
    assert sim.omega_pu.tobytes() == omega.tobytes()


def test_simulate_rejects_off_grid_fault_times():
    grid = TimeGrid(0.0, 1e-3, 2001)
    with pytest.raises(ValueError, match="t_apply"):
        smib_simulate(PARAMS, FaultSchedule(0.10005, 0.2), grid)
    with pytest.raises(ValueError, match="outside the grid"):
        smib_simulate(PARAMS, FaultSchedule(1.0, 99.0), grid)


def test_simulate_truncates_on_angle_escape():
    """A fault electrically isolating a weakly tied machine drives the angle
    past the cap; the record stops there."""
    grid = TimeGrid(0.0, 1e-3, 20001)
    sim = smib_simulate(WEAK, FAULT, grid)
    assert sim.diverged
    assert sim.grid.n < grid.n
    assert abs(sim.delta[-1]) > DELTA_CAP
    assert abs(sim.delta[-2]) <= DELTA_CAP
    assert sim.v_bus.d.shape == (sim.grid.n,)


def swing_energy(params: SmibParams, delta, omega_pu, interval: str = "pre") -> np.ndarray:
    """Oracle: the energy function H omega_n (omega-1)^2 - Pm delta - (E V_inf/x) cos delta,
    conserved along undamped (D = 0) trajectories of a fixed network
    interval; its drift measures integrator error."""
    p_max = params.E * params.V_inf / params.x_total(interval)
    slip = omega_pu - 1.0
    return params.H * params.omega_n * slip * slip - params.Pm * delta - p_max * np.cos(delta)


def exact_se(params: SmibParams, fault, grid: TimeGrid, delta, omega_pu) -> np.ndarray:
    """Oracle: psi_c(s) = |s'|^2 - Re(s'' conj(s)) of s = v conj(i), exact on the
    simulated state, with no differencing.

    The swing equation gives delta' = omega_n (omega - 1) and
    delta'' = omega_n (Pm - Pmax sin delta - D (omega - 1)) / 2H at every
    sample; v and i are closed functions of z = e^{j delta} (the module
    docstring of ``syncenergy.simulator``), so s' and s'' follow by the chain
    rule.  Each sample takes the network of its interval, left-closed at
    t_apply and t_clear, as ``smib_simulate``'s outputs do.
    """
    k = np.arange(delta.size)
    x_total = np.full(delta.size, params.x_total("pre"))
    if fault is not None:
        x_total[k >= round((fault.t_apply - grid.t0) / grid.dt)] = params.x_total("fault")
        x_total[k >= round((fault.t_clear - grid.t0) / grid.dt)] = params.x_total("post")
    slip = omega_pu - 1.0
    d1 = params.omega_n * slip
    d2 = params.omega_n * (params.Pm - params.E * params.V_inf / x_total * np.sin(delta)
                           - params.D * slip) / (2.0 * params.H)
    z = np.exp(1j * delta)
    z_derivs = (z, 1j * d1 * z, (1j * d2 - d1 * d1) * z)  # z, z', z''
    # i = (E z - V_inf) / (j x_total) and v = E z - j x_gen i, differentiated term by term
    i0, i1, i2 = (params.E * zk / (1j * x_total) for zk in z_derivs)
    i0 = i0 - params.V_inf / (1j * x_total)
    v0, v1, v2 = (params.E * zk - 1j * params.x_gen * ik for zk, ik in zip(z_derivs, (i0, i1, i2)))
    s0 = v0 * np.conj(i0)
    s1 = v1 * np.conj(i0) + v0 * np.conj(i1)
    s2 = v2 * np.conj(i0) + 2.0 * v1 * np.conj(i1) + v0 * np.conj(i2)
    return np.abs(s1) ** 2 - (s2 * np.conj(s0)).real


def test_exact_se_vanishes_at_the_equilibrium():
    """Stationary operation: constant v and i, so psi_c(s) is zero to round-off."""
    grid = TimeGrid(0.0, 1e-3, 2001)
    sim = smib_simulate(PARAMS, None, grid)
    psi = exact_se(PARAMS, None, grid, sim.delta, sim.omega_pu)
    assert np.max(np.abs(psi)) < 1e-12


def test_exact_se_matches_central_differences_of_s():
    """The chain rule's psi_c(s) against central differences of the simulated
    s, away from the switching samples: at dt = 1e-4 the second-order stencil
    is within 1e-5 of the peak (measured 1.5e-7)."""
    grid = TimeGrid(0.0, 1e-4, 30001)
    sim = smib_simulate(PARAMS, FAULT, grid)
    s = (sim.v_bus.d + 1j * sim.v_bus.q) * np.conj(sim.i_inj.d + 1j * sim.i_inj.q)
    psi = exact_se(PARAMS, FAULT, grid, sim.delta, sim.omega_pu)
    s1 = (s[2:] - s[:-2]) / (2.0 * grid.dt)
    s2 = (s[2:] - 2.0 * s[1:-1] + s[:-2]) / grid.dt ** 2
    numeric = np.abs(s1) ** 2 - (s2 * np.conj(s[1:-1])).real
    t = grid.times()[1:-1]
    away = (np.abs(t - FAULT.t_apply) > 2e-3) & (np.abs(t - FAULT.t_clear) > 2e-3)
    assert np.max(np.abs(numeric[away] - psi[1:-1][away])) < 1e-5 * np.max(np.abs(psi))


def test_swing_energy_conserved_without_damping():
    grid = TimeGrid(0.0, 1e-3, 20001)
    sim = smib_simulate(PARAMS, FAULT, grid)
    post = grid.times() >= FAULT.t_clear - 1e-12
    w = swing_energy(PARAMS, sim.delta[post], sim.omega_pu[post], "post")
    assert np.ptp(w) / abs(np.mean(w)) < 1e-10


def test_swing_energy_decays_with_damping():
    damped = SmibParams(H=5.0, D=5.0, x_gen=0.3, x_line_prefault=0.2,
                        x_line_fault=1.0, x_line_postfault=0.2)
    grid = TimeGrid(0.0, 1e-3, 20001)
    sim = smib_simulate(damped, FAULT, grid)
    post = grid.times() >= FAULT.t_clear - 1e-12
    w = swing_energy(damped, sim.delta[post], sim.omega_pu[post], "post")
    assert w[-1] < w[0]
    assert np.max(np.diff(w)) < 1e-9


# ------------------------------------------------------ synthetic templates

def test_synthetic_rejects_unknown_template():
    with pytest.raises(ValueError, match="unknown template"):
        SyntheticSpec(template="noise", grid=TimeGrid(0.0, 1e-3, 101))


def test_synthetic_validates_template_fields():
    g = TimeGrid(0.0, 1e-3, 101)
    with pytest.raises(ValueError, match="mod_depth"):
        SyntheticSpec(template="amplitude_modulated", grid=g, mod_depth=1.5, mod_freq=1.0)
    with pytest.raises(ValueError, match="mod_freq"):
        SyntheticSpec(template="amplitude_modulated", grid=g, mod_depth=0.2)
    with pytest.raises(ValueError, match="envelope_rate"):
        SyntheticSpec(template="variance_cancelling", grid=g)
    with pytest.raises(ValueError, match="v_mag"):
        SyntheticSpec(template="constant_phasor", grid=g, v_mag=0.0)


def test_constant_phasor_values():
    g = TimeGrid(0.0, 1e-3, 101)
    v, i = synthetic_signal(
        SyntheticSpec(template="constant_phasor", grid=g, v_mag=2.0, v_phase=np.pi / 2.0)
    )
    np.testing.assert_allclose(v.q, 2.0, rtol=1e-15)
    np.testing.assert_allclose(v.d, 0.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(i.d, 1.0, rtol=1e-15)


def test_dual_frequency_rotations():
    g = TimeGrid(0.0, 1e-3, 1001)
    v, i = synthetic_signal(
        SyntheticSpec(template="dual_frequency", grid=g, omega1=2.0, omega2=-1.0)
    )
    t = g.times()
    np.testing.assert_allclose(v.d + 1j * v.q, np.exp(2.0j * t), rtol=1e-14)
    np.testing.assert_allclose(i.d + 1j * i.q, np.exp(-1.0j * t), rtol=1e-14)


def test_variance_cancelling_envelopes_are_reciprocal():
    g = TimeGrid(0.0, 1e-3, 1001)
    v, i = synthetic_signal(
        SyntheticSpec(template="variance_cancelling", grid=g, envelope_rate=0.5, omega1=1.0)
    )
    np.testing.assert_allclose(np.hypot(v.d, v.q) * np.hypot(i.d, i.q), 1.0, rtol=1e-13)
