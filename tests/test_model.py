"""Model-layer tests: GRU cell, latent head, decoder, batched forward pass,
checkpoint persistence, and gradient correctness per parameter group."""

import json
from datetime import datetime, timezone

import numpy as np
import pytest

from aircast import autodiff as ad
from aircast.autodiff import Parameter, Tensor, clear_tape, no_grad
from aircast.data import NormStats, WindowSample
from aircast.graph import SensorGraph, Station
from aircast.errors import (ConfigurationError, ContractError, DataError,
                            DimensionError, FormatError)
from aircast.odeint import (SolverConfig, TimeGrid, _rk4_step,
                            fixed_step_integrate)
from aircast.physics import MLPParams
from aircast.model import (DecoderParams, GRUParams, Model, ModelConfig,
                           config_from_dict, decode_trajectory, encode_history,
                           gru_step, latent_head, load_checkpoint,
                           make_checkpoint, model_from_checkpoint,
                           reparameterize, save_checkpoint)
from aircast.training import mae_loss

from conftest import grid_stations, rewrite_metadata, stack, toy_graph

T0 = datetime(2017, 3, 1, tzinfo=timezone.utc)


def tiny_config(**overrides):
    base = dict(history_steps=2, horizon_steps=2, latent_dim=2, gru_hidden=3,
                head_hidden=2, cheb_order=2, cheb_layers=1, flownet_hidden=2,
                seed=7)
    base.update(overrides)
    return ModelConfig(**base)


def make_sample(rng, n, history, horizon, start_index=0):
    return WindowSample(
        x_hist=rng.uniform(-1.0, 1.0, size=(history, n, 1)),
        p_hist=rng.uniform(-3.0, 3.0, size=(history, n, 2)),
        x_future=rng.uniform(-1.0, 1.0, size=(horizon, n, 1)),
        start_time=T0,
        start_index=start_index,
    )


def test_model_config_validation():
    with pytest.raises(ConfigurationError):
        ModelConfig(latent_dim=0)
    with pytest.raises(ConfigurationError):
        ModelConfig(gate_mode="both")
    with pytest.raises(ConfigurationError):
        ModelConfig(diffusion_coeff_init=0.0)
    with pytest.raises(ConfigurationError):
        config_from_dict(ModelConfig, {"latent_dim": 4, "window": 3})
    cfg = config_from_dict(ModelConfig, {"latent_dim": 4})
    assert cfg.latent_dim == 4
    assert cfg.gru_hidden == 64


def test_gru_step_zero_params_halves_state(rng):
    params = GRUParams.create(rng, 4)
    for p in params.parameters():
        p.data[:] = 0.0
    h = rng.standard_normal((3, 4))
    with no_grad():
        out = gru_step(Tensor(np.zeros((3, 1))), Tensor(h), params).data
    # z = r = sigmoid(0) = 1/2 and n = tanh(0) = 0, so h' = h/2
    np.testing.assert_allclose(out, h / 2.0, atol=1e-15)


def test_gru_step_closed_update_gate_keeps_state(rng):
    params = GRUParams.create(rng, 4)
    params.b_z.data[:] = -30.0
    params.w_z.data[:] = 0.0
    params.u_z.data[:] = 0.0
    h = rng.standard_normal((3, 4))
    with no_grad():
        out = gru_step(Tensor(rng.standard_normal((3, 1))), Tensor(h),
                       params).data
    np.testing.assert_allclose(out, h, atol=1e-12)


def gru_oracle(x, h, params):
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    z = sig(x @ params.w_z.data + h @ params.u_z.data + params.b_z.data)
    r = sig(x @ params.w_r.data + h @ params.u_r.data + params.b_r.data)
    n = np.tanh(x @ params.w_n.data + (r * h) @ params.u_n.data
                + params.b_n.data)
    return (1.0 - z) * h + z * n


def test_gru_step_matches_numpy_oracle(rng):
    params = GRUParams.create(rng, 5)
    x = rng.standard_normal((4, 1))
    h = rng.standard_normal((4, 5))
    with no_grad():
        got = gru_step(Tensor(x), Tensor(h), params).data
    np.testing.assert_allclose(got, gru_oracle(x, h, params), atol=1e-13)


def test_gru_step_shape_validation(rng):
    params = GRUParams.create(rng, 4)
    with pytest.raises(DimensionError):
        gru_step(Tensor(np.zeros((3, 2))), Tensor(np.zeros((3, 4))), params)
    with pytest.raises(DimensionError):
        gru_step(Tensor(np.zeros((3, 1))), Tensor(np.zeros((2, 4))), params)


def test_gru_step_gradient(rng):
    params = GRUParams.create(rng, 3)
    x = Tensor(rng.standard_normal((2, 1)))
    h = Tensor(rng.standard_normal((2, 3)))

    def loss():
        return ad.reduce_sum(gru_step(x, h, params))

    assert ad.finite_diff_check(loss, params.parameters()) < 1e-6


def test_latent_head_matches_numpy_oracle(rng):
    params = MLPParams.create(rng, 5, 4, 6, "head")
    h = rng.standard_normal((6, 5))
    with no_grad():
        mu, sigma = latent_head(Tensor(h), params)
    out = np.tanh(h @ params.w1.data + params.b1.data) @ params.w2.data \
        + params.b2.data
    np.testing.assert_allclose(mu.data, out[:, :3], atol=1e-13)
    np.testing.assert_allclose(sigma.data, np.exp(out[:, 3:]), atol=1e-13)
    assert np.all(sigma.data > 0)


def test_encode_history_single_step_equals_gru_plus_head(rng):
    gru = GRUParams.create(rng, 4)
    head = MLPParams.create(rng, 4, 3, 4, "head")
    x = rng.standard_normal((1, 5, 1))
    with no_grad():
        mu, sigma = encode_history(x, gru, head)
        h1 = gru_step(Tensor(x[0]), Tensor(np.zeros((5, 4))), gru)
        mu2, sigma2 = latent_head(h1, head)
    np.testing.assert_array_equal(mu.data, mu2.data)
    np.testing.assert_array_equal(sigma.data, sigma2.data)


def test_encode_history_rejects_bad_shape(rng):
    gru = GRUParams.create(rng, 4)
    head = MLPParams.create(rng, 4, 3, 4, "head")
    with pytest.raises(DimensionError):
        encode_history(np.zeros((3, 5, 2)), gru, head)


def test_reparameterize_inference_returns_mean(rng):
    mu = Tensor(rng.standard_normal((3, 2)))
    sigma = Tensor(np.exp(rng.standard_normal((3, 2))))
    out = reparameterize(mu, sigma, None)
    np.testing.assert_array_equal(out.data, mu.data)


def test_reparameterize_training_draw(rng):
    mu = rng.standard_normal((3, 2))
    sigma = np.exp(rng.standard_normal((3, 2)))
    eps = rng.standard_normal((3, 2))
    with no_grad():
        out = reparameterize(Tensor(mu), Tensor(sigma), eps)
    np.testing.assert_allclose(out.data, mu + sigma * eps, atol=1e-15)
    with pytest.raises(DimensionError):
        reparameterize(Tensor(mu), Tensor(sigma), eps[:2])


def test_decode_trajectory_oracle(rng):
    params = DecoderParams.create(rng, 3)
    traj = rng.standard_normal((4, 5, 3))
    with no_grad():
        got = decode_trajectory(Tensor(traj), params).data
    expected = traj @ params.w.data + params.b.data
    assert got.shape == (4, 5, 1)
    np.testing.assert_allclose(got, expected, atol=1e-13)


def test_model_parameter_groups_partition_everything():
    model = Model(toy_graph(4), tiny_config())
    grouped = [p for ps in model.parameter_groups().values() for p in ps]
    assert {id(p) for p in grouped} == {id(p) for p in model.parameters()}
    assert len(grouped) == len(model.parameters())
    names = [p.name for p in model.parameters()]
    assert len(set(names)) == len(names)


def test_model_parameter_order():
    # Adam keeps its moment lists by position, so the order is part of the
    # training trajectory
    model = Model(toy_graph(4), tiny_config())
    names = [p.name for p in model.parameters()]
    assert names == [p.name for p in model.gru.parameters()
                     + model.head.parameters() + model.decoder.parameters()
                     + model.de.flow.parameters()
                     + model.de.diff_branch.parameters()
                     + model.de.adv_branch.parameters()
                     + model.de.fusion.parameters()
                     + [model.de.diffusion_coeff_raw]]
    prefixes = [name.split(".")[0] for name in names]
    assert list(dict.fromkeys(prefixes)) == [
        "gru", "head", "decoder", "flow", "diff", "adv", "fusion", "physics"]
    assert names[-1] == "physics.diffusion_coeff_raw"


def test_model_same_seed_same_parameters():
    a = Model(toy_graph(3), tiny_config())
    b = Model(toy_graph(3), tiny_config())
    for pa, pb in zip(a.parameters(), b.parameters()):
        np.testing.assert_array_equal(pa.data, pb.data)
    c = Model(toy_graph(3), tiny_config(seed=8))
    assert any(not np.array_equal(pa.data, pc.data)
               for pa, pc in zip(a.parameters(), c.parameters()))


def test_forward_batch_validation(rng):
    model = Model(toy_graph(3), tiny_config())
    sample = make_sample(rng, 3, 2, 2)
    with pytest.raises(ContractError):
        model.forward_batch([], "infer")
    with pytest.raises(ContractError):
        model.forward_batch([sample], "test")
    with pytest.raises(ContractError):
        model.forward_batch([sample], "train")  # missing eps generator
    with pytest.raises(DimensionError):
        model.forward_batch([make_sample(rng, 3, 5, 2)], "infer")
    with pytest.raises(DimensionError):
        model.forward_batch([make_sample(rng, 4, 2, 2)], "infer")


def test_forward_batch_output_shape_and_determinism(rng):
    model = Model(toy_graph(3), tiny_config())
    sample = make_sample(rng, 3, 2, 2)
    with no_grad():
        a = model.forward_batch([sample], "infer").data
        b = model.forward_batch([sample], "infer").data
    assert a.shape == (2, 3, 1)
    np.testing.assert_array_equal(a, b)


def test_forward_batch_matches_single_samples(rng):
    model = Model(toy_graph(3), tiny_config(), solver=SolverConfig())
    s1 = make_sample(rng, 3, 2, 2)
    s2 = make_sample(rng, 3, 2, 2, start_index=1)
    with no_grad():
        batched = model.forward_batch([s1, s2], "infer").data
        one = model.forward_batch([s1], "infer").data
        two = model.forward_batch([s2], "infer").data
    np.testing.assert_allclose(batched[:, :3], one, atol=1e-12)
    np.testing.assert_allclose(batched[:, 3:], two, atol=1e-12)


def test_forward_batch_train_records_no_stacked_graph(rng, monkeypatch):
    # each sample keeps its own n-node graph: no output recorded during a
    # train forward is sized like a Laplacian over all batch*n nodes. Tape
    # entries hold no outputs, so the sizes are collected as they are made.
    n, batch = 6, 8
    model = Model(toy_graph(n), tiny_config())
    samples = [make_sample(rng, n, 2, 2, start_index=k) for k in range(batch)]
    sizes = set()
    result = ad._result

    def recording_result(values, inputs, vjp):
        sizes.add(np.asarray(values).size)
        return result(values, inputs, vjp)

    monkeypatch.setattr(ad, "_result", recording_result)
    pred = model.forward_batch(samples, "train", np.random.default_rng(0))
    assert pred.shape == (2, batch * n, 1)
    assert ad.tape_size() > 0 and len(sizes) > 1
    assert (batch * n) ** 2 not in sizes


def test_forward_batch_train_draw_reproducible(rng):
    model = Model(toy_graph(3), tiny_config())
    sample = make_sample(rng, 3, 2, 2)
    with no_grad():
        a = model.forward_batch([sample], "train",
                                np.random.default_rng(5)).data
        clear_tape()
        b = model.forward_batch([sample], "train",
                                np.random.default_rng(5)).data
        clear_tape()
        c = model.forward_batch([sample], "train",
                                np.random.default_rng(6)).data
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_forecast_denormalizes(rng):
    stats = NormStats(mean=60.0, std=25.0)
    model = Model(toy_graph(3), tiny_config(), stats=stats)
    sample = make_sample(rng, 3, 2, 2)
    out = model.forecast([sample])
    with no_grad():
        normalized = model.forward_batch([sample], "infer").data
    np.testing.assert_array_equal(out, normalized * 25.0 + 60.0)
    np.testing.assert_array_equal(model.forecast([sample]), out)


def test_forecast_requires_stats(rng):
    model = Model(toy_graph(3), tiny_config())
    with pytest.raises(ConfigurationError):
        model.forecast([make_sample(rng, 3, 2, 2)])


def test_gate_mode_changes_dynamics(rng):
    sample = make_sample(rng, 3, 2, 2)
    outs = {}
    for mode in ("learned", "diff_only", "adv_only"):
        model = Model(toy_graph(3), tiny_config(gate_mode=mode))
        with no_grad():
            outs[mode] = model.forward_batch([sample], "infer").data
    assert not np.array_equal(outs["diff_only"], outs["adv_only"])
    assert not np.array_equal(outs["learned"], outs["diff_only"])


def test_finite_difference_every_parameter_group(rng):
    model = Model(toy_graph(3), tiny_config())
    samples = [make_sample(rng, 3, 2, 2)]
    eps_seed = 11

    def loss():
        pred = model.forward_batch(samples, "train", np.random.default_rng(eps_seed))
        target = np.concatenate([s.x_future for s in samples], axis=1)
        return mae_loss(pred, target)

    for group, params in model.parameter_groups().items():
        rel = ad.finite_diff_check(loss, params)
        assert rel < 1e-4, f"group {group} rel error {rel}"


def unrolled_rk4(f, z0, grid):
    """The training solve as a plain tape: every RK4 stage recorded, the
    states stacked."""
    z, states = z0, []
    times = grid.times
    for t0, t1 in zip(times[:-1], times[1:]):
        z = _rk4_step(f, t0, z, t1 - t0)
        states.append(z)
    return stack(states)


def solve_gradients(solve, f, make_z0, params, grid, weights):
    """Every parameter's gradient of a weighted sum of tanh(states)."""
    clear_tape()
    for p in params:
        p.zero_grad()
    traj = solve(f, make_z0(), grid)
    ad.backward(ad.reduce_sum(ad.mul(ad.tanh(traj), Tensor(weights))))
    return [p.grad.copy() for p in params]


GRID = TimeGrid([0.0, 0.5, 1.25, 2.0, 3.5])


def test_checkpointed_solve_gradients_bitwise_equal_unrolled_tape(rng):
    # a learned gate reads the flow Laplacian, an intermediate built before
    # the solve, in every stage; z0 is an intermediate too
    n, batch, latent = 4, 3, 2
    model = Model(toy_graph(n), tiny_config(latent_dim=latent))
    lift = Parameter(rng.standard_normal((3, latent)), "lift")
    x = rng.standard_normal((batch * n, 3))
    wind = rng.uniform(-3.0, 3.0, size=(batch, n, 2))
    weights = rng.standard_normal((GRID.times.size - 1, batch, n, latent))
    groups = model.parameter_groups()
    params = [p for name in ("flownet", "cheb_diff", "cheb_adv", "fusion",
                             "diffusion_coeff") for p in groups[name]] + [lift]

    def make_z0():
        model.de.set_flow_from_wind(Tensor(wind))
        return ad.reshape(ad.tanh(ad.matmul(Tensor(x), lift)),
                          (batch, n, latent))

    got, want = (solve_gradients(solve, model.de, make_z0, params, GRID,
                                 weights)
                 for solve in (fixed_step_integrate, unrolled_rk4))
    for p, g, w in zip(params, got, want):
        np.testing.assert_array_equal(g, w, err_msg=p.name)
    assert all(np.abs(g).sum() > 0 for g in got)


@pytest.mark.parametrize("z0_kind", ["constant", "leaf"])
def test_checkpointed_solve_gradients_when_only_f_reads_parameters(
        rng, z0_kind):
    w = Parameter(rng.standard_normal((3, 3)) * 0.5, "w")
    values = rng.standard_normal((2, 4, 3))
    z0 = Tensor(values) if z0_kind == "constant" else Parameter(values, "z0")
    params = [w] if z0_kind == "constant" else [w, z0]
    weights = rng.standard_normal((GRID.times.size - 1, 2, 4, 3))

    def f(t, z):
        return ad.tanh(ad.matmul(z, w))

    got, want = (solve_gradients(solve, f, lambda: z0, params, GRID, weights)
                 for solve in (fixed_step_integrate, unrolled_rk4))
    for g, u in zip(got, want):
        np.testing.assert_array_equal(g, u)
    assert all(np.abs(g).sum() > 0 for g in got)


def test_two_train_forwards_before_one_backward_sum_their_gradients(rng):
    # each forward solves with its own copy of the right-hand side, bound to
    # its batch's wind, so the second cannot change what backward() runs
    # again for the first. One backward() replays the second forward first,
    # so two separate passes must take the second sample first to sum each
    # leaf's gradient in the same order.
    model = Model(toy_graph(3), tiny_config())
    samples = [make_sample(rng, 3, 2, 2, start_index=k) for k in range(2)]

    def loss(k):
        pred = model.forward_batch([samples[k]], "train",
                                   np.random.default_rng(k))
        assert model.de.flow_lap is None
        return mae_loss(pred, samples[k].x_future)

    def take_gradients():
        out = [p.grad.copy() for p in model.parameters()]
        for p in model.parameters():
            p.zero_grad()
        return out

    ad.backward(ad.add(loss(0), loss(1)))
    together = take_gradients()
    for k in (1, 0):
        ad.backward(loss(k))
    apart = take_gradients()
    for p, a, b in zip(model.parameters(), together, apart):
        np.testing.assert_array_equal(a, b, err_msg=p.name)
    assert all(np.abs(g).sum() > 0 for g in together)


def test_checkpoint_roundtrip_bitwise(tmp_path, rng):
    stats = NormStats(mean=55.0, std=30.0)
    model = Model(toy_graph(3), tiny_config(), stats=stats)
    save_checkpoint(make_checkpoint(model), tmp_path / "ckpt.npz")
    restored = model_from_checkpoint(load_checkpoint(tmp_path / "ckpt.npz"),
                                     model.graph)
    for pa, pb in zip(model.parameters(), restored.parameters()):
        assert pa.name == pb.name
        np.testing.assert_array_equal(pa.data, pb.data)
    assert restored.stats.mean == 55.0
    assert restored.stats.std == 30.0
    sample = make_sample(rng, 3, 2, 2)
    np.testing.assert_array_equal(model.forecast([sample]),
                                  restored.forecast([sample]))


def test_checkpoint_preserves_split_ratio(tmp_path):
    model = Model(toy_graph(3), tiny_config(), stats=NormStats(50.0, 10.0))
    save_checkpoint(make_checkpoint(model, split_ratio=(3, 1, 6)),
                    tmp_path / "c.npz")
    ckpt = load_checkpoint(tmp_path / "c.npz")
    assert ckpt.split_ratio == (3, 1, 6)
    assert ckpt.config == model.config
    assert ckpt.n_stations == 3


def test_checkpoint_split_ratio_is_never_none(tmp_path):
    # make_checkpoint's default writes 7:1:2; a null or absent field reads
    # as 7:1:2
    model = Model(toy_graph(3), tiny_config(), stats=NormStats(50.0, 10.0))
    good = tmp_path / "c.npz"
    save_checkpoint(make_checkpoint(model), good)
    with np.load(good) as archive:
        meta = json.loads(str(archive["_meta"]))
    assert list(meta)[0] == "format"
    assert meta["split_ratio"] == [7, 1, 2]
    assert load_checkpoint(good).split_ratio == (7, 1, 2)
    for edit in (lambda m: {**m, "split_ratio": None},
                 lambda m: {k: v for k, v in m.items() if k != "split_ratio"}):
        bad = tmp_path / "bad.npz"
        rewrite_metadata(good, bad, edit)
        assert load_checkpoint(bad).split_ratio == (7, 1, 2)


def test_checkpoint_carries_solver_settings(tmp_path):
    solver = SolverConfig(rtol=1e-7, atol=1e-8, h_init=0.05, max_steps=500)
    model = Model(toy_graph(3), tiny_config(), stats=NormStats(50.0, 10.0),
                  solver=solver)
    save_checkpoint(make_checkpoint(model), tmp_path / "c.npz")
    with np.load(tmp_path / "c.npz") as archive:
        meta = json.loads(str(archive["_meta"]))
    assert meta["solver"] == {"rtol": 1e-7, "atol": 1e-8, "h_init": 0.05,
                              "max_steps": 500}
    ckpt = load_checkpoint(tmp_path / "c.npz")
    assert ckpt.solver == solver
    assert model_from_checkpoint(ckpt, toy_graph(3)).solver == solver


def test_checkpoint_requires_stats():
    model = Model(toy_graph(3), tiny_config())
    with pytest.raises(ConfigurationError):
        make_checkpoint(model)


def test_checkpoint_rejects_bad_std(tmp_path):
    model = Model(toy_graph(3), tiny_config(), stats=NormStats(50.0, 10.0))
    good = tmp_path / "c.npz"
    save_checkpoint(make_checkpoint(model), good)
    bad = tmp_path / "bad.npz"
    rewrite_metadata(good, bad, lambda meta: {**meta, "norm_std": 0.0})
    with pytest.raises(FormatError) as info:
        load_checkpoint(bad)
    assert str(info.value) == (
        f"{bad}: normalization std must be positive and finite, got 0.0")


def test_load_checkpoint_error_taxonomy(tmp_path):
    garbage = tmp_path / "garbage.npz"
    garbage.write_bytes(b"not a zip archive")
    with pytest.raises(FormatError):
        load_checkpoint(garbage)
    no_meta = tmp_path / "no_meta.npz"
    np.savez(no_meta, a=np.zeros(3))
    with pytest.raises(FormatError, match="metadata"):
        load_checkpoint(no_meta)
    wrong = tmp_path / "wrong.npz"
    import json
    np.savez(wrong, _meta=np.array(json.dumps({"format": "other-v9"})))
    with pytest.raises(FormatError, match="format"):
        load_checkpoint(wrong)


@pytest.mark.parametrize("edit, field", [
    (lambda meta: {k: v for k, v in meta.items() if k != "norm_mean"},
     "'norm_mean': missing"),
    (lambda meta: {**meta, "n_stations": "3"}, "'n_stations': '3'"),
    (lambda meta: {**meta, "split_ratio": [7, "1", 2]}, "'split_ratio'"),
    (lambda meta: {**meta, "config": {"latent_dim": "8"}}, "'latent_dim'"),
    (lambda meta: {**meta, "config": {"seed": 1.5}}, "'seed'"),
    (lambda meta: {**meta, "config": {"seed": -1}},
     "seed must be non-negative, got -1"),
    (lambda meta: [meta], "not a JSON object"),
], ids=["no-norm_mean", "str-n_stations", "str-in-split_ratio",
        "str-latent_dim", "float-seed", "negative-seed", "list-metadata"])
def test_load_checkpoint_rejects_malformed_metadata(tmp_path, edit, field):
    model = Model(toy_graph(3), tiny_config(), stats=NormStats(50.0, 10.0))
    good = tmp_path / "c.npz"
    save_checkpoint(make_checkpoint(model), good)
    bad = tmp_path / "bad.npz"
    rewrite_metadata(good, bad, edit)
    with pytest.raises(FormatError) as info:
        load_checkpoint(bad)
    assert str(info.value).startswith(f"{bad}: ")
    assert field in str(info.value)


def test_model_from_checkpoint_station_mismatch(tmp_path):
    model = Model(toy_graph(3), tiny_config(), stats=NormStats(50.0, 10.0))
    save_checkpoint(make_checkpoint(model), tmp_path / "c.npz")
    ckpt = load_checkpoint(tmp_path / "c.npz")
    with pytest.raises(DimensionError, match="graph.dist_laplacian"):
        model_from_checkpoint(ckpt, toy_graph(4))


def test_model_from_checkpoint_rejects_moved_stations(tmp_path):
    # same station count and ids, one station moved: the distance
    # Laplacian the checkpoint was trained on no longer matches the graph
    model = Model(toy_graph(4), tiny_config(), stats=NormStats(50.0, 10.0))
    save_checkpoint(make_checkpoint(model), tmp_path / "c.npz")
    ckpt = load_checkpoint(tmp_path / "c.npz")
    stations = grid_stations(4)
    stations[3] = Station("s3", 39.6, 116.5)
    with pytest.raises(DataError, match="graph.dist_laplacian"):
        model_from_checkpoint(ckpt, SensorGraph.from_stations(stations))
    restored = model_from_checkpoint(ckpt, toy_graph(4))
    np.testing.assert_array_equal(restored.dist_lap.matrix,
                                  model.dist_lap.matrix)


def test_model_from_checkpoint_missing_array(tmp_path):
    model = Model(toy_graph(3), tiny_config(), stats=NormStats(50.0, 10.0))
    save_checkpoint(make_checkpoint(model), tmp_path / "c.npz")
    ckpt = load_checkpoint(tmp_path / "c.npz")
    name = model.parameters()[0].name
    del ckpt.arrays[name]
    with pytest.raises(FormatError, match="missing"):
        model_from_checkpoint(ckpt, toy_graph(3))


def test_model_from_checkpoint_shape_mismatch(tmp_path):
    model = Model(toy_graph(3), tiny_config(), stats=NormStats(50.0, 10.0))
    save_checkpoint(make_checkpoint(model), tmp_path / "c.npz")
    ckpt = load_checkpoint(tmp_path / "c.npz")
    name = model.parameters()[0].name
    ckpt.arrays[name] = np.zeros((1, 1))
    with pytest.raises(DimensionError, match=name.replace(".", r"\.")):
        model_from_checkpoint(ckpt, toy_graph(3))
