"""The latent ODE's right-hand side as one tape entry: bitwise against the
composed primitives of tests/conftest.py, one entry per recorded call, and
gradients by central differences. Needs numpy alone."""

import numpy as np
import pytest

from aircast import autodiff as ad
from aircast import graph
from aircast.autodiff import Parameter, Tensor, backward, no_grad, tape_size
from aircast.errors import ConfigurationError, DimensionError
from aircast.physics import (GATE_MODES, DEFunction, FusionParams, MLPParams,
                             PowerBranchParams)
from conftest import composed_rhs


def make_rhs(rng, n, latent, gate_mode="learned", order=3, layers=2,
             raw_shape=()):
    """A DEFunction with the model's draw order, a random distance graph and
    a flow net of 8 hidden units; unbound."""
    w = rng.uniform(0.1, 1.0, size=(n, n))
    w = (w + w.T) / 2.0
    np.fill_diagonal(w, 0.0)
    return DEFunction(
        dist_lap=graph.scaled_laplacian(w),
        flow=MLPParams.create(rng, 2, 8, 1, "flow"),
        diff_branch=PowerBranchParams.create(rng, latent, order, layers,
                                             prefix="diff"),
        adv_branch=PowerBranchParams.create(rng, latent, order, layers,
                                            prefix="adv"),
        fusion=FusionParams.create(rng, latent),
        diffusion_coeff_raw=Parameter(
            np.full(raw_shape, DEFunction.raw_coefficient(0.1)), "k_raw"),
        gate_mode=gate_mode)


def all_parameters(func):
    return (func.flow.parameters() + func.diff_branch.parameters()
            + func.adv_branch.parameters() + func.fusion.parameters()
            + [func.diffusion_coeff_raw])


def two_stage_gradients(func, rhs, wind, z0, weights):
    """Both right-hand-side values and the gradients of every parameter and
    of z0 for a loss through two calls, as in an RK4 stage: z0's copy z is
    read by both calls and by the second stage's state, so its cotangents
    meet one held from a later entry."""
    params = all_parameters(func)
    for p in params:
        p.zero_grad()
    z_leaf = Parameter(z0, "z0")
    func.set_flow_from_wind(Tensor(wind))
    z = ad.mul(z_leaf, 1.0)
    k1 = rhs(func, z)
    k2 = rhs(func, z + k1 * 0.5)
    backward(ad.reduce_sum(ad.mul(k1 + k2, Tensor(weights))))
    return [k1.data, k2.data, z_leaf.grad] + [p.grad.copy() for p in params]


def fused(func, z):
    return func(0.0, z)


def assert_bitwise_oracle(rng, n, latent, batch, gate_mode, order=3,
                          layers=2, raw_shape=()):
    func = make_rhs(rng, n, latent, gate_mode, order, layers, raw_shape)
    lead = (n,) if batch is None else (batch, n)
    wind = rng.standard_normal(lead + (2,)) * 3.0
    z0 = rng.standard_normal(lead + (latent,))
    weights = rng.standard_normal(lead + (latent,))
    want = two_stage_gradients(func, composed_rhs, wind, z0, weights)
    got = two_stage_gradients(func, fused, wind, z0, weights)
    names = ["k1", "k2", "z0"] + [p.name for p in all_parameters(func)]
    for name, a, b in zip(names, want, got):
        assert a.shape == b.shape and np.array_equal(a, b), name


@pytest.mark.parametrize("gate_mode", GATE_MODES)
@pytest.mark.parametrize("n, batch", [(35, 32), (11, 17), (11, None)])
def test_rhs_is_bitwise_the_composed_primitives(rng, gate_mode, n, batch):
    # train-beijing's and forecast-shenzhen's shapes, and the unbatched
    # (n, latent) state bound to an (n, 2) wind, at the model's latent 16
    assert_bitwise_oracle(rng, n, 16, batch, gate_mode)


@pytest.mark.parametrize("gate_mode", GATE_MODES)
@pytest.mark.parametrize("batch", [17, None])
def test_rhs_flow_laplacian_gradient_is_bitwise_the_composed(rng, gate_mode,
                                                            batch):
    # the flow Laplacian as a leaf, read by two calls: its own gradient,
    # which reaches the flow net through flow_scaled_laplacian
    func = make_rhs(rng, 11, 16, gate_mode)
    lead = (11,) if batch is None else (batch, 11)
    lap = rng.standard_normal(lead + (11,)) * 0.3
    z = Tensor(rng.standard_normal(lead + (16,)), requires_grad=True)
    weights = Tensor(rng.standard_normal(lead + (16,)))
    grads = []
    for rhs in (composed_rhs, fused):
        func.flow_lap = Parameter(lap, "flow_lap")
        k1 = rhs(func, z)
        backward(ad.reduce_sum(ad.mul(k1 + rhs(func, z + k1 * 0.5),
                                      weights)))
        grads.append(func.flow_lap.grad)
    assert np.array_equal(*grads)
    assert grads[0].any() == (gate_mode != "diff_only")


@pytest.mark.parametrize("gate_mode", GATE_MODES)
@pytest.mark.parametrize("n, latent, batch, order, layers", [
    (1, 1, None, 1, 1), (2, 1, 1, 1, 1), (2, 2, 3, 2, 3), (3, 1, None, 4, 1)])
def test_rhs_is_bitwise_the_composed_primitives_at_tiny_shapes(
        rng, gate_mode, n, latent, batch, order, layers):
    # order 1 reads no Laplacian; a (1, 1) coefficient broadcasts
    assert_bitwise_oracle(rng, n, latent, batch, gate_mode, order, layers)
    assert_bitwise_oracle(rng, n, latent, batch, gate_mode, order, layers,
                          raw_shape=(1, 1))


@pytest.mark.parametrize("gate_mode", GATE_MODES)
def test_rhs_is_one_tape_entry_and_none_without_recording(rng, gate_mode):
    func = make_rhs(rng, 4, 3, gate_mode)
    func.set_flow_from_wind(Tensor(rng.standard_normal((2, 4, 2))))
    z = Tensor(rng.standard_normal((2, 4, 3)), requires_grad=True)
    before = tape_size()
    out = func(0.0, z)
    assert tape_size() == before + 1 and out.requires_grad
    func(0.0, out)
    assert tape_size() == before + 2
    with no_grad():
        out = func(0.0, z)
    assert tape_size() == before + 2 and not out.requires_grad


def test_rhs_with_constant_state_and_laplacian_still_trains_weights(rng):
    # neither z nor the flow Laplacian needs a gradient: the entry is still
    # recorded for the weights, bitwise the composed tape's
    func = make_rhs(rng, 5, 3)
    with no_grad():
        func.set_flow_from_wind(Tensor(rng.standard_normal((2, 5, 2))))
    z = Tensor(rng.standard_normal((2, 5, 3)))
    grads = []
    for rhs in (composed_rhs, fused):
        for p in all_parameters(func):
            p.zero_grad()
        backward(ad.reduce_sum(rhs(func, z)))
        grads.append([p.grad.copy() for p in all_parameters(func)])
    for a, b in zip(*grads):
        np.testing.assert_array_equal(a, b)
    assert not func.flow.w1.grad.any()


@pytest.mark.parametrize("gate_mode", GATE_MODES)
def test_rhs_gradient_by_central_differences(rng, gate_mode):
    # covers the flow net through flow_scaled_laplacian, the diffusion
    # coefficient and the batched state
    func = make_rhs(rng, 3, 2, gate_mode)
    wind = Tensor(rng.standard_normal((2, 3, 2)) * 2.0)
    z = Parameter(rng.standard_normal((2, 3, 2)), "z")

    def loss():
        func.set_flow_from_wind(wind)
        return ad.reduce_sum(ad.mul(func(0.0, z), func(0.0, z)))

    # flow.b2 shifts every potential alike, so the adjacency does not
    # depend on it: its gradient is zero up to rounding, which a relative
    # error cannot score
    params = [p for p in all_parameters(func) if p.name != "flow.b2"]
    assert ad.finite_diff_check(loss, params + [z]) < 1e-6


def test_rhs_errors(rng):
    func = make_rhs(rng, 4, 3)
    z = Tensor(np.zeros((4, 3)))
    with pytest.raises(ConfigurationError):
        func(0.0, z)  # no flow Laplacian bound
    func.set_flow_from_wind(Tensor(rng.standard_normal((4, 2))))
    for bad in ((4,), (5, 3), (2, 4, 3), (1, 2, 4, 3)):
        with pytest.raises(DimensionError):
            func(0.0, Tensor(np.zeros(bad)))
    func.flow_lap = Tensor(np.zeros((4, 3)))  # not square
    with pytest.raises(DimensionError):
        func(0.0, z)


@pytest.mark.parametrize("gate_mode", GATE_MODES)
@pytest.mark.parametrize("order, layers", [(1, 1), (3, 2)])
@pytest.mark.parametrize("need_z, need_lap", [(True, True), (False, False),
                                              (True, False), (False, True)])
def test_rhs_vjp_yields_one_cotangent_per_input(rng, monkeypatch, gate_mode,
                                                order, layers, need_z,
                                                need_lap):
    # backward() zips the inputs with what the VJP yields, so a short VJP
    # would drop cotangents without an error
    entries = []
    record = ad.record

    def keep(values, inputs, vjp):
        entries.append((inputs, vjp))
        return record(values, inputs, vjp)

    func = make_rhs(rng, 3, 2, gate_mode, order, layers)
    func.flow_lap = Tensor(rng.standard_normal((3, 3)), requires_grad=need_lap)
    z = Tensor(rng.standard_normal((3, 2)), requires_grad=need_z)
    monkeypatch.setattr(ad, "record", keep)
    out = func(0.0, z)
    (inputs, vjp), = entries
    cts = list(vjp(np.ones(out.shape)))
    assert len(cts) == len(inputs)
    for t, ct in zip(inputs, cts):
        if t is z or t is func.flow_lap:
            assert (ct is None) == (not t.requires_grad)
        if ct is not None:
            assert ct.shape == t.shape
    assert inputs.count(z) == (2 if order == 1 else 3) * (
        1 if gate_mode != "learned" else 2)
    assert inputs.count(func.flow_lap) == (
        0 if gate_mode == "diff_only" else layers * (order - 1))
