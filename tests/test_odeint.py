"""Integrator tests: closed-form solutions, matrix exponentials, measured
convergence orders, and step-control behavior."""

import numpy as np
import pytest
import scipy.linalg

from aircast import autodiff as ad
from aircast.autodiff import Parameter, Tensor, backward, no_grad
from aircast.errors import (ConfigurationError, ContractError, DimensionError,
                            NumericError)
from aircast.odeint import (SolverConfig, TimeGrid, dopri5_integrate_stats,
                            fixed_step_integrate, ode_solve)


def decay(t, z):
    return ad.neg(z)


def test_time_grid_validation():
    with pytest.raises(ContractError):
        TimeGrid([0.0])
    with pytest.raises(ContractError):
        TimeGrid([1.0, 2.0])
    with pytest.raises(ContractError):
        TimeGrid([0.0, 2.0, 1.0])
    grid = TimeGrid.unit(3)
    np.testing.assert_allclose(grid.times, [0.0, 1.0, 2.0, 3.0])


def test_solver_config_validation():
    with pytest.raises(ConfigurationError):
        SolverConfig(h_init=0.0)
    with pytest.raises(ConfigurationError):
        SolverConfig(rtol=0.0)


def test_dopri5_exponential_decay():
    states, _ = dopri5_integrate_stats(decay, Tensor([[[1.0]]]),
                                       TimeGrid([0.0, 1.0]),
                                       SolverConfig(rtol=1e-8, atol=1e-8))
    assert states.data[-1, 0, 0, 0] == pytest.approx(np.exp(-1.0), abs=1e-6)


def test_dopri5_matches_matrix_exponential(rng):
    a = rng.standard_normal((3, 3))
    x0 = rng.standard_normal((3, 1))
    op = Tensor(a)
    grid = TimeGrid([0.0, 0.7, 1.3])
    states, _ = dopri5_integrate_stats(lambda t, z: ad.matmul(op, z),
                                       Tensor(x0[None]), grid,
                                       SolverConfig(rtol=1e-9, atol=1e-9))
    for t, s in zip(grid.times[1:], states.data):
        expected = scipy.linalg.expm(a * t) @ x0
        np.testing.assert_allclose(s[0], expected, atol=1e-5)


def test_dopri5_harmonic_oscillator_energy():
    # z = (q, p), dq/dt = p, dp/dt = -q; period 2*pi
    rot = Tensor(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    grid = TimeGrid([0.0, 2.0 * np.pi])
    states, _ = dopri5_integrate_stats(lambda t, z: ad.matmul(rot, z),
                                       Tensor([[[1.0], [0.0]]]), grid,
                                       SolverConfig(rtol=1e-9, atol=1e-9))
    np.testing.assert_allclose(states.data[-1, 0], [[1.0], [0.0]], atol=1e-6)


def test_rk4_two_substeps_known_error():
    # e^-1 with two RK4 steps of h=1/2 lands 2.9e-4 off the true value
    states = fixed_step_integrate(decay, Tensor([[1.0]]),
                                  TimeGrid([0.0, 0.5, 1.0]))
    err = abs(states.data[-1, 0, 0] - np.exp(-1.0))
    assert err < 3e-4
    assert err > 1e-5


def test_rk4_fourth_order():
    # s equal steps over [0, 1]: the error of e^-1 falls as h^4
    steps = [2, 4, 8, 16]
    errors = []
    for s in steps:
        states = fixed_step_integrate(decay, Tensor([[1.0]]),
                                      TimeGrid(np.arange(s + 1) / s))
        errors.append(abs(states.data[-1, 0, 0] - np.exp(-1.0)))
    slope, _ = np.polyfit(np.log([1.0 / s for s in steps]), np.log(errors), 1)
    assert slope == pytest.approx(4.0, abs=0.2)


@pytest.mark.filterwarnings("ignore:overflow")
def test_fixed_step_blowup_names_interval():
    def explode(t, z):
        return ad.mul(z, z) * 1e4

    with pytest.raises(NumericError, match="interval"):
        fixed_step_integrate(explode, Tensor([[10.0]]),
                             TimeGrid([0.0, 1.0, 2.0]))


def test_dopri5_lands_exactly_on_grid_times():
    # the last grid time is landed on exactly and never stepped past; the
    # interior grid times inside a step come from the continuous extension
    # and hold the configured tolerance
    cfg = SolverConfig(rtol=1e-6, atol=1e-6, h_init=0.37)
    seen = []

    def f(t, z):
        seen.append(t.item())  # the time of the batch's one sample
        return ad.neg(z)

    grid = TimeGrid([0.0, 0.5, 1.25, 2.0])
    states, _ = dopri5_integrate_stats(f, Tensor([[[1.0]]]), grid, cfg)
    assert seen[-1] == 2.0 and max(seen) == 2.0
    for t, state in zip(grid.times[1:], states.data):
        exact = np.exp(-t)
        assert abs(state[0, 0, 0] - exact) <= cfg.atol + cfg.rtol * exact


def test_dopri5_landing_takes_the_fifth_order_state(rng):
    # a grid time a step lands on gets that step's 5th-order solution, the
    # state its last stage evaluates f at, not the continuous extension
    op = Tensor(rng.standard_normal((2, 4, 4)))
    seen = []

    def f(t, z):
        seen.append(z.data)
        return ad.tanh(ad.matmul(op, z))

    states, _ = dopri5_integrate_stats(f, Tensor(rng.standard_normal((2, 4, 3))),
                                       TimeGrid([0.0, 0.8, 1.7]),
                                       SolverConfig(rtol=1e-7, atol=1e-7))
    np.testing.assert_array_equal(states.data[-1], seen[-1])


def test_dopri5_step_statistics():
    _, stats = dopri5_integrate_stats(decay, Tensor([[[1.0]]]),
                                      TimeGrid([0.0, 1.0]))
    assert stats.accepted >= 1
    # 6 new stages per attempt: the first is the last of the step before
    assert stats.f_evals == 6 * (stats.accepted + stats.rejected) + 1


def test_dopri5_output_times_add_no_steps(rng):
    a = rng.standard_normal((3, 3))
    x0 = rng.standard_normal((3, 1))
    op = Tensor(a)
    cfg = SolverConfig(rtol=1e-6, atol=1e-6)
    fine = TimeGrid(np.linspace(0.0, 2.0, 52))  # 50 interior times
    fine_states, fine_stats = dopri5_integrate_stats(
        lambda t, z: ad.matmul(op, z), Tensor(x0[None]), fine, cfg)
    end_states, end_stats = dopri5_integrate_stats(
        lambda t, z: ad.matmul(op, z), Tensor(x0[None]), TimeGrid([0.0, 2.0]),
        cfg)
    assert fine_stats == end_stats
    assert fine_stats.accepted < 50
    np.testing.assert_array_equal(fine_states.data[-1], end_states.data[0])
    for t, state in zip(fine.times[1:], fine_states.data):
        np.testing.assert_allclose(state[0], scipy.linalg.expm(a * t) @ x0,
                                   rtol=0, atol=1e-5)


def test_dopri5_dense_output_is_fourth_order(rng):
    # a 4th-order continuous extension errs by O(h^5) per step; as the
    # tolerance tightens, the error at interior grid times must fall at
    # least as fast as the 4th power of the mean step
    a = rng.standard_normal((3, 3))
    x0 = rng.standard_normal((3, 1))
    op = Tensor(a)
    grid = TimeGrid(np.linspace(0.0, 2.0, 41))
    exact = [scipy.linalg.expm(a * t) @ x0 for t in grid.times[1:-1]]
    mean_steps, errors = [], []
    for tol in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9):
        states, stats = dopri5_integrate_stats(
            lambda t, z: ad.matmul(op, z), Tensor(x0[None]), grid,
            SolverConfig(rtol=tol, atol=tol))
        mean_steps.append(2.0 / stats.accepted)
        errors.append(max(np.abs(s[0] - e).max()
                          for s, e in zip(states.data[:-1], exact)))
        assert errors[-1] <= 10 * tol
    slope, _ = np.polyfit(np.log(mean_steps), np.log(errors), 1)
    assert slope >= 4.0


def test_dopri5_rejects_steps_on_stiff_onset():
    # large |lambda| forces the h_init=0.5 attempt to fail at tight tolerance
    cfg = SolverConfig(rtol=1e-10, atol=1e-10, h_init=0.5)
    stiff = Tensor(np.array([[-80.0]]))
    _, stats = dopri5_integrate_stats(lambda t, z: ad.matmul(stiff, z),
                                      Tensor([[[1.0]]]), TimeGrid([0.0, 1.0]), cfg)
    assert stats.rejected >= 1


def test_dopri5_step_budget_error():
    cfg = SolverConfig(max_steps=3, rtol=1e-12, atol=1e-14, h_init=1e-3)
    with pytest.raises(NumericError, match="budget"):
        dopri5_integrate_stats(decay, Tensor([[[1.0]]]), TimeGrid([0.0, 100.0]),
                               cfg)


def test_dopri5_rejects_state_without_batch_axis():
    with pytest.raises(DimensionError, match=r"\(batch, n, latent\), got \(1, 1\)"):
        dopri5_integrate_stats(decay, Tensor([[1.0]]), TimeGrid([0.0, 1.0]))
    with pytest.raises(DimensionError, match=r"got \(1, 1, 1, 1\)"):
        dopri5_integrate_stats(decay, Tensor(np.ones((1, 1, 1, 1))),
                               TimeGrid([0.0, 1.0]))


def decoupled_decay(rates):
    """dz/dt = -rates * z elementwise; rates has the state's shape."""
    op = Tensor(rates)
    return lambda t, z: ad.neg(ad.mul(op, z))


def test_dopri5_batch_is_per_sample_solo_runs(rng):
    # a mild and a stiff decay share one (2, n, 1) state; each sample must
    # take exactly the steps it takes alone
    n = 4
    rates = np.stack([rng.uniform(0.1, 1.0, (n, 1)),
                      rng.uniform(20.0, 80.0, (n, 1))])
    z0 = rng.standard_normal((2, n, 1))
    grid = TimeGrid([0.0, 0.5, 1.25, 2.0])
    cfg = SolverConfig(rtol=1e-7, atol=1e-7, h_init=0.5)
    times_seen = []
    batch_f = decoupled_decay(rates)

    def f(t, z):
        times_seen.append(t)
        return batch_f(t, z)

    states, stats = dopri5_integrate_stats(f, Tensor(z0), grid, cfg)
    assert all(np.shape(t) == (2,) for t in times_seen)
    solo = [dopri5_integrate_stats(decoupled_decay(rates[b]),
                                   Tensor(z0[b:b + 1]), grid, cfg)
            for b in range(2)]
    for b, (solo_states, _) in enumerate(solo):
        for batched, alone in zip(states.data, solo_states.data):
            np.testing.assert_array_equal(batched[b], alone[0])
    solo_stats = [st for _, st in solo]
    assert solo_stats[1].rejected >= 1
    assert solo_stats[1].accepted > 3 * solo_stats[0].accepted
    assert stats.accepted == sum(st.accepted for st in solo_stats)
    assert stats.rejected == sum(st.rejected for st in solo_stats)
    # one batched call per new stage until the slowest sample is done
    assert stats.f_evals == 6 * max(st.accepted + st.rejected
                                    for st in solo_stats) + 1


def logistic_growth(rates):
    """dz/dt = rates * z * (1 - z) elementwise; rates has the state's shape."""
    op = Tensor(rates)
    return lambda t, z: ad.mul(op, ad.mul(z, ad.sub(1.0, z)))


def test_dopri5_first_stage_carry_is_per_sample(rng):
    # from a tiny first step the slow sample accepts all of its 5 attempts,
    # while the fast one grows its step until its 5th attempt is rejected
    # right after an accepted one; each sample must reuse its own last stage,
    # or keep its own first stage, whatever the other sample did
    n = 3
    rates = np.stack([rng.uniform(0.5, 1.0, (n, 1)),
                      rng.uniform(20.0, 40.0, (n, 1))])
    z0 = np.stack([rng.uniform(0.2, 0.8, (n, 1)),
                   rng.uniform(1e-5, 1e-4, (n, 1))])
    grid = TimeGrid([0.0, 0.3, 1.0])
    cfg = SolverConfig(rtol=1e-6, atol=1e-6, h_init=1e-4)
    states, stats = dopri5_integrate_stats(logistic_growth(rates), Tensor(z0),
                                           grid, cfg)
    solo = [dopri5_integrate_stats(logistic_growth(rates[b]),
                                   Tensor(z0[b:b + 1]), grid, cfg)
            for b in range(2)]
    assert solo[0][1].rejected == 0
    assert solo[1][1].rejected >= 1
    for b, (solo_states, _) in enumerate(solo):
        for batched, alone in zip(states.data, solo_states.data):
            np.testing.assert_array_equal(batched[b], alone[0])
    assert stats.rejected == solo[1][1].rejected


def test_dopri5_step_budget_is_per_sample(rng):
    n = 3
    mild = rng.uniform(0.1, 1.0, (n, 1))
    z0 = np.ones((2, n, 1))
    grid = TimeGrid([0.0, 2.0])
    _, alone = dopri5_integrate_stats(decoupled_decay(mild), Tensor(z0[:1]),
                                      grid, SolverConfig())
    # room for one mild sample's steps, not for the sum of two
    cfg = SolverConfig(max_steps=alone.accepted + alone.rejected + 1)
    dopri5_integrate_stats(decoupled_decay(np.stack([mild, mild])), Tensor(z0),
                           grid, cfg)
    stiff = rng.uniform(200.0, 400.0, (n, 1))
    with pytest.raises(NumericError, match="budget .* in sample 1"):
        dopri5_integrate_stats(decoupled_decay(np.stack([mild, stiff])),
                               Tensor(z0), grid, cfg)
    # two samples spend their budgets on the same attempt: the lower is named
    with pytest.raises(NumericError, match=r"budget .* in sample 1 \(h="):
        dopri5_integrate_stats(decoupled_decay(np.stack([mild, stiff, stiff])),
                               Tensor(np.ones((3, n, 1))), grid, cfg)


def test_dopri5_overflow_names_sample():
    # z' = 1e300 z^3 overflows inside a primitive for the samples away from 0
    def explode(t, z):
        return ad.mul(ad.mul(z, z), z) * 1e300

    z0 = Tensor(np.array([0.0, 10.0, 10.0]).reshape(3, 1, 1))
    with pytest.raises(NumericError,
                       match=r"^non-finite state in the step from t=0 in "
                             r"sample 1$"):
        dopri5_integrate_stats(explode, z0, TimeGrid([0.0, 1.0]))


def test_ode_solve_train_mode_is_differentiable(rng):
    a = rng.standard_normal((2, 2)) * 0.4
    w = Parameter(a, "w")

    def f(t, z):
        return ad.matmul(Tensor(np.eye(2)) * 0.0 + w, z)

    z0 = Tensor(rng.standard_normal((2, 1)))
    traj = ode_solve(f, z0, TimeGrid.unit(2), mode="train")
    assert traj.shape == (2, 2, 1)
    backward(ad.reduce_sum(traj))
    assert np.abs(w.grad).sum() > 0


def test_ode_solve_train_gradient_matches_fd(rng):
    w = Parameter(rng.standard_normal((2, 2)) * 0.3, "w")
    z0 = Tensor(rng.standard_normal((2, 1)))

    def loss():
        traj = ode_solve(lambda t, z: ad.matmul(w, z), z0, TimeGrid.unit(2),
                         mode="train")
        return ad.reduce_sum(traj)

    assert ad.finite_diff_check(loss, [w]) < 1e-6


def test_ode_solve_train_is_one_rk4_step_per_interval(rng):
    # training pays 4 RHS calls per grid interval, one RK4 step, no substeps
    op = Tensor(rng.standard_normal((3, 3)) * 0.3)
    z0 = Tensor(rng.standard_normal((2, 3, 1)))
    calls = []

    def f(t, z):
        calls.append(t)
        return ad.matmul(op, z)

    grid = TimeGrid([0.0, 1.0, 2.5, 3.0, 5.0])
    traj = ode_solve(f, z0, grid, mode="train")
    assert len(calls) == 4 * (grid.times.size - 1)
    states = fixed_step_integrate(f, z0, grid)
    np.testing.assert_array_equal(traj.data, states.data)


def test_ode_solve_train_matches_numpy_rk4_oracle(rng):
    # classical RK4 written out in numpy with the solver's operation order,
    # one step per interval of a non-uniform grid: equal to the last bit
    op = rng.standard_normal((3, 3)) * 0.5
    z0 = rng.standard_normal((2, 3, 1))
    times = [0.0, 1.0, 2.5, 3.0, 5.0]

    def f(z):
        return np.tanh(op @ z)

    z = z0
    expected = []
    for t0, t1 in zip(times[:-1], times[1:]):
        h = t1 - t0
        k1 = f(z)
        k2 = f(z + k1 * (h / 2.0))
        k3 = f(z + k2 * (h / 2.0))
        k4 = f(z + k3 * h)
        z = z + (k1 + k2 * 2.0 + k3 * 2.0 + k4) * (h / 6.0)
        expected.append(z)
    traj = ode_solve(lambda t, z: ad.tanh(ad.matmul(Tensor(op), z)),
                     Tensor(z0), TimeGrid(times), mode="train")
    np.testing.assert_array_equal(traj.data, np.stack(expected))


def test_ode_solve_infer_not_recorded(rng):
    w = Parameter(rng.standard_normal((2, 2)) * 0.3, "w")
    z0 = Tensor(rng.standard_normal((2, 1))[None])
    with no_grad():
        traj = ode_solve(lambda t, z: ad.matmul(w, z), z0, TimeGrid.unit(2),
                         mode="infer")
    assert not traj.requires_grad


def test_ode_solve_rejects_unknown_mode():
    with pytest.raises(ContractError):
        ode_solve(decay, Tensor([[1.0]]), TimeGrid.unit(1), mode="test")


def test_train_and_infer_agree_on_smooth_problem(rng):
    a = rng.standard_normal((3, 3)) * 0.2
    op = Tensor(a)

    def f(t, z):
        return ad.matmul(op, z)

    z0 = Tensor(rng.standard_normal((3, 1))[None])
    with no_grad():
        train_traj = ode_solve(f, z0, TimeGrid.unit(3), mode="train")
        infer_traj = ode_solve(f, z0, TimeGrid.unit(3),
                               SolverConfig(rtol=1e-9, atol=1e-9), mode="infer")
    np.testing.assert_allclose(train_traj.data, infer_traj.data, atol=2e-4)
