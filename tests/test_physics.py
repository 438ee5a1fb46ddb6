"""Physics-layer tests: flow-field graph construction, Laplacian-power
branches, the gated right-hand side, and the reference simulators."""

import numpy as np
import pytest
import scipy.linalg

from aircast import autodiff as ad
from aircast import graph
from aircast.autodiff import Parameter, Tensor, backward, no_grad
from aircast.errors import (ConfigurationError, ContractError, DimensionError,
                            NumericError)
from aircast.physics import (GATE_MODES, DEFunction, FusionParams,
                             MLPParams, PowerBranchParams, cheb_branch,
                             flow_field_adjacency,
                             flow_scaled_laplacian, gate_alpha, mlp,
                             simulate_advection_reference,
                             simulate_diffusion_reference, uniform_param)


def make_flow(rng, hidden=8):
    return MLPParams.create(rng, 2, hidden, 1, "flow")


def random_wind(rng, n):
    return Tensor(rng.standard_normal((n, 2)) * 3.0)


def test_uniform_param_bounds(rng):
    p = uniform_param(rng, (50, 50), 16, "p")
    bound = 1.0 / 4.0
    assert np.abs(p.data).max() <= bound
    assert p.name == "p"
    assert p.data.std() > 0.05


def test_mlp_params_draw_order_bounds_and_names():
    params = MLPParams.create(np.random.default_rng(3), 3, 5, 2, "net")
    twin = np.random.default_rng(3)
    bound_in, bound_hidden = 1.0 / np.sqrt(3), 1.0 / np.sqrt(5)
    expected = [("net.w1", twin.uniform(-bound_in, bound_in, (3, 5))),
                ("net.b1", twin.uniform(-bound_in, bound_in, (1, 5))),
                ("net.w2", twin.uniform(-bound_hidden, bound_hidden, (5, 2))),
                ("net.b2", twin.uniform(-bound_hidden, bound_hidden, (1, 2)))]
    got = params.parameters()
    assert got == [params.w1, params.b1, params.w2, params.b2]
    assert [p.name for p in got] == [name for name, _ in expected]
    for p, (_, values) in zip(got, expected):
        np.testing.assert_array_equal(p.data, values)


def test_mlp_matches_numpy_oracle_bitwise(rng):
    params = MLPParams.create(rng, 3, 5, 2, "net")
    x = rng.standard_normal((2, 4, 3))
    with no_grad():
        got = mlp(Tensor(x), params).data
    w1, b1, w2, b2 = (p.data for p in params.parameters())
    np.testing.assert_array_equal(got, np.tanh(x @ w1 + b1) @ w2 + b2)


def test_flow_adjacency_shape_and_validation(rng):
    params = make_flow(rng)
    assert flow_field_adjacency(random_wind(rng, 5), params).shape == (5, 5)
    assert flow_field_adjacency(Tensor(rng.standard_normal((3, 5, 2))),
                                params).shape == (3, 5, 5)
    with pytest.raises(DimensionError):
        flow_field_adjacency(Tensor(rng.standard_normal((5, 3))), params)


def test_flow_adjacency_bitwise_antisymmetric(rng):
    params = make_flow(rng)
    w = flow_field_adjacency(random_wind(rng, 6), params).data
    # exact IEEE negation, not just approximate
    assert np.array_equal(w, -w.T)
    assert np.all(np.diag(w) == 0.0)


def test_flow_adjacency_matches_potential_differences(rng):
    params = make_flow(rng)
    wind = random_wind(rng, 4)
    with no_grad():
        p = mlp(wind, params).data[:, 0]
        w = flow_field_adjacency(wind, params).data
    np.testing.assert_array_equal(w, p[:, None] - p[None, :])


def test_flow_scaled_laplacian_matches_numpy_path(rng):
    params = make_flow(rng)
    wind = random_wind(rng, 5)
    with no_grad():
        p = mlp(wind, params).data[:, 0]
        got = flow_scaled_laplacian(wind, params).data
    # the lambda_max = 2 rescaling 2 * Lbar / 2 - I is exactly Lbar - I
    expected = graph.normalized_laplacian(p[:, None] - p[None, :]) - np.eye(5)
    np.testing.assert_array_equal(got, expected)


def test_flow_scaled_laplacian_constant_potential_is_zero(rng):
    params = make_flow(rng)
    wind = Tensor(np.tile([1.5, -0.5], (4, 1)))
    with no_grad():
        lap = flow_scaled_laplacian(wind, params).data
    np.testing.assert_array_equal(lap, np.zeros((4, 4)))


def test_flow_scaled_laplacian_mask_rules(rng):
    # the off-diagonal mask zeroes every self-loop, one graph or a batch,
    # and a wind that is not (n, 2) or (batch, n, 2) is a typed error
    params = make_flow(rng)
    with no_grad():
        one = flow_scaled_laplacian(random_wind(rng, 4), params).data
        batch = flow_scaled_laplacian(
            Tensor(rng.standard_normal((3, 4, 2))), params).data
    assert one.shape == (4, 4) and batch.shape == (3, 4, 4)
    assert not np.diagonal(one).any()
    assert not np.diagonal(batch, axis1=1, axis2=2).any()
    for bad in ((4, 3), (4,), (2, 3, 4, 2)):
        with pytest.raises(DimensionError):
            flow_scaled_laplacian(Tensor(np.zeros(bad)), params)


def test_flow_scaled_laplacian_block_mask_is_block_diagonal(rng):
    # a batch of winds gives each sample its own Laplacian, bit for bit the
    # one of that sample alone: the diagonal blocks of the stacked graph
    params = make_flow(rng)
    winds = rng.standard_normal((3, 5, 2)) * 3.0
    with no_grad():
        batched = flow_scaled_laplacian(Tensor(winds), params).data
        singles = [flow_scaled_laplacian(Tensor(w), params).data for w in winds]
    np.testing.assert_array_equal(batched, np.stack(singles))


def test_flow_scaled_laplacian_gradient(rng):
    params = make_flow(rng, hidden=4)
    wind = random_wind(rng, 3)

    def loss():
        lap = flow_scaled_laplacian(wind, params)
        return ad.reduce_sum(ad.mul(lap, lap))

    assert ad.finite_diff_check(loss, params.parameters()) < 1e-6


def cheb_oracle(lap, h0, params):
    """Literal numpy replay of the residual Laplacian-power stack."""
    h = h0.copy()
    total = h0.copy()
    for layer in params.thetas:
        power = h.copy()
        acc = power @ layer[0].data
        for theta in layer[1:]:
            power = lap @ power
            acc += power @ theta.data
        h = np.tanh(acc)
        total = total + h
    return total


def test_cheb_branch_matches_numpy_oracle(rng):
    lap = rng.standard_normal((5, 5))
    lap = (lap + lap.T) / 4.0
    h0 = rng.standard_normal((5, 6))
    params = PowerBranchParams.create(rng, 6, order=3, layers=2,
                                      prefix="branch")
    with no_grad():
        got = cheb_branch(Tensor(lap), Tensor(h0), params).data
    np.testing.assert_allclose(got, cheb_oracle(lap, h0, params), atol=1e-12)


def test_cheb_branch_order_one_uses_no_laplacian(rng):
    # order 1 keeps only the k=0 term, so the laplacian cannot matter
    h0 = rng.standard_normal((4, 3))
    params = PowerBranchParams.create(rng, 3, order=1, layers=2,
                                      prefix="branch")
    with no_grad():
        a = cheb_branch(Tensor(np.zeros((4, 4))), Tensor(h0), params).data
        b = cheb_branch(Tensor(rng.standard_normal((4, 4))), Tensor(h0),
                        params).data
    np.testing.assert_array_equal(a, b)


def test_cheb_branch_shape_validation(rng):
    params = PowerBranchParams.create(rng, 3, order=3, layers=2,
                                      prefix="branch")
    with pytest.raises(DimensionError):
        cheb_branch(Tensor(np.zeros((4, 3))), Tensor(np.zeros((4, 3))), params)
    with pytest.raises(DimensionError):
        cheb_branch(Tensor(np.zeros((4, 4))), Tensor(np.zeros((5, 3))), params)


def test_cheb_params_validation(rng):
    with pytest.raises(ContractError):
        PowerBranchParams.create(rng, 3, order=0, layers=2, prefix="branch")
    ragged = (PowerBranchParams.create(rng, 2, order=2, layers=2,
                                       prefix="branch").thetas[0],
              PowerBranchParams.create(rng, 2, order=3, layers=2,
                                       prefix="branch").thetas[0])
    with pytest.raises(ContractError):
        PowerBranchParams(thetas=ragged)


def test_cheb_branch_gradient(rng):
    lap = rng.standard_normal((3, 3)) * 0.3
    h0 = Tensor(rng.standard_normal((3, 4)))
    params = PowerBranchParams.create(rng, 4, order=2, layers=2,
                                      prefix="branch")

    def loss():
        return ad.reduce_sum(cheb_branch(Tensor(lap), h0, params))

    assert ad.finite_diff_check(loss, params.parameters()) < 1e-6


def make_de_function(rng, n=4, latent=3, gate_mode="learned", order=2, layers=1):
    w = rng.uniform(0.1, 1.0, size=(n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    dist_lap = graph.scaled_laplacian(w)
    func = DEFunction(
        dist_lap=dist_lap,
        flow=MLPParams.create(rng, 2, 4, 1, "flow"),
        diff_branch=PowerBranchParams.create(rng, latent, order=order,
                                            layers=layers, prefix="cd"),
        adv_branch=PowerBranchParams.create(rng, latent, order=order,
                                           layers=layers, prefix="ca"),
        fusion=FusionParams.create(rng, latent),
        diffusion_coeff_raw=Parameter(
            np.array([[DEFunction.raw_coefficient(0.1)]]), "k_raw"),
        gate_mode=gate_mode,
    )
    func.set_flow_from_wind(random_wind(rng, n))
    return func


def test_raw_coefficient_roundtrip():
    # log(expm1(v)) would overflow above v ~ 709
    for v in (0.01, 0.1, 1.0, 5.0, 709.0, 710.0, 1000.0, 1e300):
        raw = DEFunction.raw_coefficient(v)
        assert np.logaddexp(0.0, raw) == pytest.approx(v, rel=1e-12)
    for v in (0.1, 1.0):  # the default start value keeps the bits of that form
        assert DEFunction.raw_coefficient(v) == float(np.log(np.expm1(v)))
    with pytest.raises(ContractError):
        DEFunction.raw_coefficient(0.0)


def test_de_function_requires_flow_state(rng):
    func = make_de_function(rng)
    func.flow_lap = None
    with pytest.raises(ConfigurationError):
        func(0.0, Tensor(np.zeros((4, 3))))


def test_de_function_gate_mode_validation(rng):
    with pytest.raises(ConfigurationError):
        make_de_function(rng, gate_mode="blend")


def test_de_function_diff_only_oracle(rng):
    func = make_de_function(rng, gate_mode="diff_only")
    z = rng.standard_normal((4, 3))
    with no_grad():
        got = func(0.0, Tensor(z)).data
        coeff = func.diffusion_coefficient().data
    expected = -coeff * cheb_oracle(func.dist_tensor.data, z, func.diff_branch)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_de_function_adv_only_oracle(rng):
    func = make_de_function(rng, gate_mode="adv_only")
    z = rng.standard_normal((4, 3))
    with no_grad():
        got = func(0.0, Tensor(z)).data
    expected = -cheb_oracle(func.flow_lap.data, z, func.adv_branch)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_de_function_learned_combines_branches(rng):
    func = make_de_function(rng)
    z = rng.standard_normal((4, 3))
    with no_grad():
        got = func(0.0, Tensor(z)).data
        coeff = func.diffusion_coefficient().data
        alpha = gate_alpha(
            Tensor(cheb_oracle(func.dist_tensor.data, z, func.diff_branch)),
            Tensor(cheb_oracle(func.flow_lap.data, z, func.adv_branch)),
            func.fusion).data
    h_diff = cheb_oracle(func.dist_tensor.data, z, func.diff_branch)
    h_adv = cheb_oracle(func.flow_lap.data, z, func.adv_branch)
    expected = -(alpha * coeff * h_diff + (1 - alpha) * h_adv)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_de_function_saturated_gate_matches_diff_only(rng):
    func = make_de_function(rng)
    func.fusion.w_diff.data[:] = 0.0
    func.fusion.w_adv.data[:] = 0.0
    func.fusion.b.data[:] = 20.0
    z = rng.standard_normal((4, 3))
    with no_grad():
        learned = func(0.0, Tensor(z)).data
        func.gate_mode = "diff_only"
        pinned = func(0.0, Tensor(z)).data
    np.testing.assert_allclose(learned, pinned, atol=1e-8)


def test_de_function_learned_is_convex_combination(rng):
    # alpha lies in (0, 1), so the learned mix lies between the two pinned
    # branches, -k*H_diff and -H_adv, in every component
    func = make_de_function(rng, n=5, latent=4)
    z = Tensor(rng.standard_normal((5, 4)))
    with no_grad():
        alpha = gate_alpha(cheb_branch(func.dist_tensor, z, func.diff_branch),
                           cheb_branch(func.flow_lap, z, func.adv_branch),
                           func.fusion).data
        learned = func(0.0, z).data
        func.gate_mode = "diff_only"
        diff = func(0.0, z).data
        func.gate_mode = "adv_only"
        adv = func(0.0, z).data
    assert np.all((alpha > 0) & (alpha < 1))
    np.testing.assert_allclose(learned, alpha * diff + (1 - alpha) * adv,
                               atol=1e-14)
    low = np.minimum(diff, adv) - 1e-12
    high = np.maximum(diff, adv) + 1e-12
    assert np.all((learned >= low) & (learned <= high))


def test_de_function_closed_gate_matches_adv_only(rng):
    func = make_de_function(rng)
    func.fusion.w_diff.data[:] = 0.0
    func.fusion.w_adv.data[:] = 0.0
    func.fusion.b.data[:] = -40.0
    z = rng.standard_normal((4, 3))
    with no_grad():
        learned = func(0.0, Tensor(z)).data
        func.gate_mode = "adv_only"
        pinned = func(0.0, Tensor(z)).data
    np.testing.assert_allclose(learned, pinned, atol=1e-12)


def test_de_function_batch_block_diagonal(rng):
    # a (batch, n, latent) state with per-sample flow Laplacians evolves each
    # sample as if alone; no sample sees another's nodes
    winds = [random_wind(rng, 3) for _ in range(4)]
    zs = [rng.standard_normal((3, 3)) for _ in range(4)]
    for mode in GATE_MODES:
        func = make_de_function(rng, n=3, gate_mode=mode)
        with no_grad():
            singles = []
            for wind, z in zip(winds, zs):
                func.set_flow_from_wind(wind)
                singles.append(func(0.0, Tensor(z)).data)
            func.set_flow_from_wind(Tensor(np.stack([w.data for w in winds])))
            batched = func(0.0, Tensor(np.stack(zs))).data
        assert batched.shape == (4, 3, 3)
        np.testing.assert_allclose(batched, np.stack(singles), rtol=0,
                                   atol=1e-12)


def test_de_function_state_shape_checks(rng):
    func = make_de_function(rng)
    with pytest.raises(DimensionError):
        func(0.0, Tensor(np.zeros(4)))
    with pytest.raises(DimensionError):
        func(0.0, Tensor(np.zeros((5, 3))))
    with pytest.raises(DimensionError):  # batched state, single flow graph
        func(0.0, Tensor(np.zeros((2, 4, 3))))


def test_de_function_gradient_all_parameters(rng):
    func = make_de_function(rng, n=3, latent=2)
    wind = random_wind(rng, 3)
    z = Tensor(rng.standard_normal((3, 2)))

    def loss():
        func.set_flow_from_wind(wind)
        return ad.reduce_sum(func(0.0, z))

    params = (func.flow.parameters() + func.diff_branch.parameters()
              + func.adv_branch.parameters() + func.fusion.parameters()
              + [func.diffusion_coeff_raw])
    assert ad.finite_diff_check(loss, params) < 1e-6


def test_de_function_coefficient_gradient_flows(rng):
    func = make_de_function(rng, gate_mode="diff_only")
    z = Tensor(rng.standard_normal((4, 3)))
    backward(ad.reduce_sum(func(0.0, z)))
    assert abs(func.diffusion_coeff_raw.grad[0, 0]) > 0


def random_symmetric_graph(rng, n):
    w = rng.uniform(0.0, 1.0, size=(n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return w


def test_diffusion_reference_matches_expm(rng):
    for _ in range(5):
        n = int(rng.integers(2, 7))
        w = random_symmetric_graph(rng, n)
        x0 = rng.uniform(0.0, 100.0, size=n)
        k = float(rng.uniform(0.05, 0.5))
        t = float(rng.uniform(0.5, 5.0))
        lap = np.diag(w.sum(axis=1)) - w
        expected = scipy.linalg.expm(-k * lap * t) @ x0
        got = simulate_diffusion_reference(w, x0, k, t)
        np.testing.assert_allclose(got, expected, atol=1e-6)


def test_diffusion_conserves_mass(rng):
    for _ in range(10):
        n = int(rng.integers(2, 9))
        w = random_symmetric_graph(rng, n)
        x0 = rng.uniform(0.0, 100.0, size=n)
        traj = simulate_diffusion_reference(w, x0, 0.2, [1.0, 5.0, 10.0])
        assert traj.shape == (3, n)
        for row in traj:
            assert abs(row.sum() - x0.sum()) < 1e-8


def test_diffusion_equilibrium_is_uniform():
    w = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    x0 = np.array([90.0, 0.0, 0.0])
    out = simulate_diffusion_reference(w, x0, 1.0, 50.0)
    np.testing.assert_allclose(out, [30.0, 30.0, 30.0], atol=1e-6)


def test_diffusion_zero_coefficient_is_identity():
    w = np.array([[0.0, 2.0], [2.0, 0.0]])
    out = simulate_diffusion_reference(w, [10.0, 4.0], 0.0, 3.0)
    np.testing.assert_allclose(out, [10.0, 4.0], atol=1e-10)


def test_diffusion_input_validation():
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ContractError):
        simulate_diffusion_reference(-w, [1.0, 1.0], 0.1, 1.0)
    with pytest.raises(ContractError):
        simulate_diffusion_reference(np.eye(2), [1.0, 1.0], 0.1, 1.0)
    with pytest.raises(ContractError):
        simulate_diffusion_reference(w, [1.0, 1.0], -0.1, 1.0)
    with pytest.raises(DimensionError):
        simulate_diffusion_reference(w, [1.0, 1.0, 1.0], 0.1, 1.0)
    with pytest.raises(ContractError):
        simulate_diffusion_reference(w, [1.0, 1.0], 0.1, [2.0, 1.0])
    with pytest.raises(ContractError):
        simulate_diffusion_reference(w, [1.0, 1.0], 0.1, 0.0)


def test_advection_reference_matches_expm(rng):
    for _ in range(5):
        n = int(rng.integers(2, 7))
        v = rng.uniform(0.0, 1.0, size=(n, n))
        np.fill_diagonal(v, 0.0)
        x0 = rng.uniform(0.0, 100.0, size=n)
        t = float(rng.uniform(0.5, 5.0))
        op = v.T - np.diag(v.sum(axis=1))
        expected = scipy.linalg.expm(op * t) @ x0
        got = simulate_advection_reference(v, x0, t)
        np.testing.assert_allclose(got, expected, atol=1e-6)


def test_advection_conserves_mass(rng):
    for _ in range(10):
        n = int(rng.integers(2, 9))
        v = rng.uniform(0.0, 1.0, size=(n, n))
        np.fill_diagonal(v, 0.0)
        x0 = rng.uniform(0.0, 100.0, size=n)
        traj = simulate_advection_reference(v, x0, [1.0, 10.0])
        for row in traj:
            assert abs(row.sum() - x0.sum()) < 1e-8


def test_advection_pure_transfer():
    # all mass at node 0, single edge 0 -> 1: node 0 decays exponentially
    v = np.array([[0.0, 0.5], [0.0, 0.0]])
    out = simulate_advection_reference(v, [100.0, 0.0], 2.0)
    np.testing.assert_allclose(out[0], 100.0 * np.exp(-1.0), atol=1e-6)
    np.testing.assert_allclose(out.sum(), 100.0, atol=1e-8)


def test_advection_input_validation():
    v = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ContractError):
        simulate_advection_reference(-v, [1.0, 1.0], 1.0)
    with pytest.raises(ContractError):
        simulate_advection_reference(np.eye(2), [1.0, 1.0], 1.0)
    with pytest.raises(DimensionError):
        simulate_advection_reference(v, [1.0], 1.0)
