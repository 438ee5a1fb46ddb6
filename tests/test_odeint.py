"""Integrator tests: closed-form solutions, matrix exponentials, measured
convergence orders, and step-control behavior."""

import numpy as np
import pytest
import scipy.linalg

from aircast import autodiff as ad
from aircast.autodiff import Parameter, Tensor, backward, clear_tape, no_grad
from aircast.errors import ConfigurationError, ContractError, NumericError
from aircast.odeint import (SolverConfig, TimeGrid, dopri5_integrate_stats,
                            fixed_step_integrate, ode_solve)


@pytest.fixture(autouse=True)
def fresh_tape():
    clear_tape()
    yield
    clear_tape()


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
    with pytest.raises(ConfigurationError):
        SolverConfig(factor_min=2.0)


def test_dopri5_exponential_decay():
    states, _ = dopri5_integrate_stats(decay, Tensor([[1.0]]),
                                       TimeGrid([0.0, 1.0]),
                                       SolverConfig(rtol=1e-8, atol=1e-8))
    assert states[-1].data[0, 0] == pytest.approx(np.exp(-1.0), abs=1e-6)


def test_dopri5_matches_matrix_exponential(rng):
    a = rng.standard_normal((3, 3))
    x0 = rng.standard_normal((3, 1))
    op = Tensor(a)
    grid = TimeGrid([0.0, 0.7, 1.3])
    states, _ = dopri5_integrate_stats(lambda t, z: ad.matmul(op, z),
                                       Tensor(x0), grid,
                                       SolverConfig(rtol=1e-9, atol=1e-9))
    for t, s in zip(grid.times[1:], states):
        expected = scipy.linalg.expm(a * t) @ x0
        np.testing.assert_allclose(s.data, expected, atol=1e-5)


def test_dopri5_harmonic_oscillator_energy():
    # z = (q, p), dq/dt = p, dp/dt = -q; period 2*pi
    rot = Tensor(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    grid = TimeGrid([0.0, 2.0 * np.pi])
    states, _ = dopri5_integrate_stats(lambda t, z: ad.matmul(rot, z),
                                       Tensor([[1.0], [0.0]]), grid,
                                       SolverConfig(rtol=1e-9, atol=1e-9))
    np.testing.assert_allclose(states[-1].data, [[1.0], [0.0]], atol=1e-6)


def test_rk4_two_substeps_known_error():
    # e^-1 with two RK4 steps of h=1/2 lands 2.9e-4 off the true value
    states = fixed_step_integrate(decay, Tensor([[1.0]]), TimeGrid([0.0, 1.0]),
                                  method="rk4", substeps=2)
    err = abs(states[-1].data[0, 0] - np.exp(-1.0))
    assert err < 3e-4
    assert err > 1e-5


def measured_order(method, substeps_list):
    errors = []
    for substeps in substeps_list:
        states = fixed_step_integrate(decay, Tensor([[1.0]]),
                                      TimeGrid([0.0, 1.0]), method=method,
                                      substeps=substeps)
        errors.append(abs(states[-1].data[0, 0] - np.exp(-1.0)))
    log_h = np.log([1.0 / s for s in substeps_list])
    slope, _ = np.polyfit(log_h, np.log(errors), 1)
    return slope


def test_euler_first_order():
    assert measured_order("euler", [8, 16, 32, 64]) == pytest.approx(1.0, abs=0.1)


def test_rk4_fourth_order():
    assert measured_order("rk4", [2, 4, 8, 16]) == pytest.approx(4.0, abs=0.2)


def test_fixed_step_rejects_bad_arguments():
    with pytest.raises(ContractError):
        fixed_step_integrate(decay, Tensor([[1.0]]), TimeGrid([0.0, 1.0]),
                             method="dopri5")
    with pytest.raises(ContractError):
        fixed_step_integrate(decay, Tensor([[1.0]]), TimeGrid([0.0, 1.0]),
                             substeps=0)


@pytest.mark.filterwarnings("ignore:overflow")
def test_fixed_step_blowup_names_interval():
    def explode(t, z):
        return ad.mul(z, z) * 1e4

    with pytest.raises(NumericError, match="interval"):
        fixed_step_integrate(explode, Tensor([[10.0]]),
                             TimeGrid([0.0, 1.0, 2.0]), substeps=2)


def test_dopri5_lands_exactly_on_grid_times():
    cfg = SolverConfig(rtol=1e-6, atol=1e-6, h_init=0.37)
    seen = []

    def f(t, z):
        seen.append(t)
        return ad.neg(z)

    grid = TimeGrid([0.0, 0.5, 1.25, 2.0])
    dopri5_integrate_stats(f, Tensor([[1.0]]), grid, cfg)
    for target in grid.times[1:]:
        assert target in seen  # a stage was evaluated exactly at each grid time


def test_dopri5_step_statistics():
    _, stats = dopri5_integrate_stats(decay, Tensor([[1.0]]),
                                      TimeGrid([0.0, 1.0]))
    assert stats.accepted >= 1
    assert stats.f_evals == 7 * (stats.accepted + stats.rejected)


def test_dopri5_rejects_steps_on_stiff_onset():
    # large |lambda| forces the h_init=0.5 attempt to fail at tight tolerance
    cfg = SolverConfig(rtol=1e-10, atol=1e-10, h_init=0.5)
    stiff = Tensor(np.array([[-80.0]]))
    _, stats = dopri5_integrate_stats(lambda t, z: ad.matmul(stiff, z),
                                      Tensor([[1.0]]), TimeGrid([0.0, 1.0]), cfg)
    assert stats.rejected >= 1


def test_dopri5_step_budget_error():
    cfg = SolverConfig(max_steps=3, rtol=1e-12, atol=1e-14, h_init=1e-3)
    with pytest.raises(NumericError, match="budget"):
        dopri5_integrate_stats(decay, Tensor([[1.0]]), TimeGrid([0.0, 100.0]),
                               cfg)


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
    solo = [dopri5_integrate_stats(decoupled_decay(rates[b]), Tensor(z0[b]),
                                   grid, cfg) for b in range(2)]
    for b, (solo_states, _) in enumerate(solo):
        for batched, alone in zip(states, solo_states):
            np.testing.assert_array_equal(batched.data[b], alone.data)
    solo_stats = [st for _, st in solo]
    assert solo_stats[1].rejected >= 1
    assert solo_stats[1].accepted > 3 * solo_stats[0].accepted
    assert stats.accepted == sum(st.accepted for st in solo_stats)
    assert stats.rejected == sum(st.rejected for st in solo_stats)
    # one batched call per stage until the slowest sample is done
    assert stats.f_evals == 7 * max(st.accepted + st.rejected
                                    for st in solo_stats)


def test_dopri5_step_budget_is_per_sample(rng):
    n = 3
    mild = rng.uniform(0.1, 1.0, (n, 1))
    z0 = np.ones((2, n, 1))
    grid = TimeGrid([0.0, 2.0])
    _, alone = dopri5_integrate_stats(decoupled_decay(mild), Tensor(z0[0]),
                                      grid, SolverConfig())
    # room for one mild sample's steps, not for the sum of two
    cfg = SolverConfig(max_steps=alone.accepted + alone.rejected + 1)
    dopri5_integrate_stats(decoupled_decay(np.stack([mild, mild])), Tensor(z0),
                           grid, cfg)
    stiff = rng.uniform(200.0, 400.0, (n, 1))
    with pytest.raises(NumericError, match="budget .* in sample 1"):
        dopri5_integrate_stats(decoupled_decay(np.stack([mild, stiff])),
                               Tensor(z0), grid, cfg)


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


def test_ode_solve_infer_not_recorded(rng):
    w = Parameter(rng.standard_normal((2, 2)) * 0.3, "w")
    z0 = Tensor(rng.standard_normal((2, 1)))
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

    z0 = Tensor(rng.standard_normal((3, 1)))
    with no_grad():
        train_traj = ode_solve(f, z0, TimeGrid.unit(3), mode="train")
        infer_traj = ode_solve(f, z0, TimeGrid.unit(3),
                               SolverConfig(rtol=1e-9, atol=1e-9), mode="infer")
    np.testing.assert_allclose(train_traj.data, infer_traj.data, atol=2e-4)
