"""Autodiff engine: forward values against numpy, gradients against
closed forms and central finite differences."""

import tracemalloc

import numpy as np
import pytest

from aircast import autodiff as ad
from aircast.autodiff import (Parameter, Tensor, backward, clear_tape,
                              finite_diff_check, no_grad, tape_size)
from aircast.errors import ContractError, DimensionError, NumericError

from conftest import stack


def test_tensor_rejects_non_finite():
    with pytest.raises(NumericError):
        Tensor([1.0, np.nan])
    with pytest.raises(NumericError):
        Tensor(np.inf)


@pytest.mark.filterwarnings("ignore:overflow")
def test_primitive_outputs_are_not_checked():
    # an overflow propagates; the solvers, the loss and the CLI catch it
    assert ad.mul(Tensor([1e308]), 10.0).data[0] == np.inf
    with no_grad():
        assert ad.matmul(Tensor([[1e308]]), Tensor([[10.0]])).data[0, 0] == np.inf


def test_leaf_grad_buffer():
    t = Tensor([1.0, 2.0], requires_grad=True)
    assert t.grad is not None and (t.grad == 0).all()
    assert Tensor([1.0]).grad is None


def test_item_requires_scalar():
    assert Tensor(3.5).item() == 3.5
    with pytest.raises(ContractError):
        Tensor([1.0, 2.0]).item()


def test_matmul_gradient_closed_form(rng):
    # d/dA sum((A @ B) * C) = C @ B.T and d/dB = A.T @ C, exactly
    a = Parameter(rng.standard_normal((3, 4)), "a")
    b = Parameter(rng.standard_normal((4, 2)), "b")
    c = rng.standard_normal((3, 2))
    loss = ad.reduce_sum(ad.mul(ad.matmul(a, b), Tensor(c)))
    backward(loss)
    np.testing.assert_allclose(a.grad, c @ b.data.T, rtol=0, atol=1e-14)
    np.testing.assert_allclose(b.grad, a.data.T @ c, rtol=0, atol=1e-14)


def test_matmul_shape_errors():
    with pytest.raises(DimensionError):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(DimensionError):
        ad.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 1))))
    with pytest.raises(DimensionError):  # batch axes 2 and 3 do not broadcast
        ad.matmul(Tensor(np.ones((2, 3, 3))), Tensor(np.ones((3, 3, 1))))


@pytest.mark.parametrize("a_shape, b_shape", [
    ((4, 4), (3, 4, 2)),     # shared Laplacian @ batched state
    ((3, 4, 4), (3, 4, 2)),  # per-sample Laplacians @ batched state
    ((3, 4, 2), (2, 2)),     # batched state @ shared weights
])
def test_broadcast_matmul_gradients_fd(rng, a_shape, b_shape):
    a = Parameter(rng.standard_normal(a_shape), "a")
    b = Parameter(rng.standard_normal(b_shape), "b")
    out_shape = np.broadcast_shapes(a_shape[:-2], b_shape[:-2]) \
        + (a_shape[-2], b_shape[-1])
    w = Tensor(rng.standard_normal(out_shape))

    def f():
        return ad.reduce_sum(ad.mul(ad.matmul(a, b), w))

    # the shared operand's gradient is summed over the batch it broadcast to
    assert finite_diff_check(f, [a, b]) < 1e-6
    assert a.grad.shape == a_shape and b.grad.shape == b_shape

    # an operand that needs no gradient gets no cotangent at all
    g = rng.standard_normal(out_shape)
    for const_a in (True, False):
        lhs = Tensor(a.data) if const_a else a
        rhs = b if const_a else Tensor(b.data)
        clear_tape()
        ad.matmul(lhs, rhs)
        (_, _, vjp), = ad._tape()
        ga, gb = vjp(g)
        assert (ga is None) == const_a and (gb is None) == (not const_a)
    clear_tape()


def test_broadcast_add_gradient_matches_loop_oracle(rng):
    a = Parameter(rng.standard_normal((3, 1)), "a")
    b = Parameter(rng.standard_normal((1, 4)), "b")
    g = rng.standard_normal((3, 4))
    loss = ad.reduce_sum(ad.mul(ad.add(a, b), Tensor(g)))
    backward(loss)
    # oracle: accumulate the upstream gradient entry by entry
    ga = np.zeros((3, 1))
    gb = np.zeros((1, 4))
    for i in range(3):
        for j in range(4):
            ga[i, 0] += g[i, j]
            gb[0, j] += g[i, j]
    np.testing.assert_allclose(a.grad, ga, atol=1e-14)
    np.testing.assert_allclose(b.grad, gb, atol=1e-14)


def test_broadcast_mul_gradient_matches_loop_oracle(rng):
    a = Parameter(rng.standard_normal((2, 3)), "a")
    b = Parameter(rng.standard_normal((1, 3)), "b")
    g = rng.standard_normal((2, 3))
    loss = ad.reduce_sum(ad.mul(ad.mul(a, b), Tensor(g)))
    backward(loss)
    ga = g * np.broadcast_to(b.data, (2, 3))
    gb = np.zeros((1, 3))
    for i in range(2):
        for j in range(3):
            gb[0, j] += g[i, j] * a.data[i, j]
    np.testing.assert_allclose(a.grad, ga, atol=1e-14)
    np.testing.assert_allclose(b.grad, gb, atol=1e-14)


def test_mul_constant_operand_gets_no_cotangent(rng):
    a = Parameter(rng.standard_normal((2, 3)), "a")
    b = Parameter(rng.standard_normal((1, 3)), "b")
    g = rng.standard_normal((2, 3))
    for const_a in (True, False):
        lhs = Tensor(a.data) if const_a else a
        rhs = b if const_a else Tensor(b.data)
        clear_tape()
        ad.mul(lhs, rhs)
        (_, _, vjp), = ad._tape()
        ga, gb = vjp(g)
        assert (ga is None) == const_a and (gb is None) == (not const_a)
        if const_a:
            np.testing.assert_array_equal(gb, (g * a.data).sum(axis=0,
                                                              keepdims=True))
        else:
            np.testing.assert_array_equal(ga, g * b.data)
    clear_tape()


def test_incompatible_broadcast_rejected():
    with pytest.raises(DimensionError):
        ad.add(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 3))))


@pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul])
def test_broadcast_error_names_op_and_shapes(op):
    with pytest.raises(DimensionError,
                       match=rf"{op.__name__}: shapes \(2, 3\) and \(4,\) "
                             "do not broadcast"):
        op(Tensor(np.ones((2, 3))), Tensor(np.ones(4)))


@pytest.mark.parametrize("op,ref", [
    (ad.tanh, np.tanh),
    (ad.exp, np.exp),
    (ad.sigmoid, lambda x: 1.0 / (1.0 + np.exp(-x))),
    (ad.softplus, lambda x: np.log1p(np.exp(x))),
])
def test_elementwise_forward(op, ref, rng):
    x = rng.standard_normal((4, 3))
    np.testing.assert_allclose(op(Tensor(x)).data, ref(x), rtol=1e-12)


@pytest.mark.parametrize("op", [ad.tanh, ad.exp, ad.sigmoid, ad.softplus,
                                ad.absolute])
def test_elementwise_gradients_fd(op, rng):
    # keep values away from |x| = 0 where absolute() is non-differentiable
    x = Parameter(rng.standard_normal((3, 3)) + np.sign(rng.standard_normal((3, 3))) * 0.5, "x")
    w = Tensor(rng.standard_normal((3, 3)))

    def f():
        return ad.reduce_sum(ad.mul(op(x), w))

    assert finite_diff_check(f, [x]) < 1e-7


def test_sigmoid_and_softplus_stable_at_extremes():
    big = Tensor([[800.0, -800.0]])
    s = ad.sigmoid(big).data
    assert s[0, 0] == 1.0 and s[0, 1] == 0.0
    sp = ad.softplus(big).data
    assert sp[0, 0] == 800.0 and sp[0, 1] == 0.0


def _three_exp_logistic(x):
    # the formula sigmoid and softplus's gradient used to evaluate
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                    np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))


EDGE_VALUES = [0.0, -0.0, 800.0, -800.0, 1e308, -1e308, 5e-324, -5e-324,
               2.2250738585072014e-308, -1e-310, 36.7, -36.7, 745.2, -745.2]


@pytest.mark.parametrize("scale", [1.0, 10.0, 100.0, 1000.0])
def test_sigmoid_and_softplus_gradient_bitwise_equal_three_exp_formula(
        rng, scale):
    x = np.concatenate([rng.standard_normal(500) * scale, EDGE_VALUES])
    expected = _three_exp_logistic(x)
    np.testing.assert_array_equal(ad.sigmoid(Tensor(x)).data, expected)
    p = Parameter(x, "p")
    backward(ad.reduce_sum(ad.softplus(p)))
    np.testing.assert_array_equal(p.grad, expected)


def test_reduce_sum_axis_gradients(rng):
    x = Parameter(rng.standard_normal((3, 4)), "x")
    w = Tensor(rng.standard_normal(4))
    loss = ad.reduce_sum(ad.mul(ad.reduce_sum(x, axis=0), w))
    backward(loss)
    np.testing.assert_allclose(x.grad, np.broadcast_to(w.data, (3, 4)), atol=1e-14)


def test_reduce_mean_gradient(rng):
    x = Parameter(rng.standard_normal((2, 5)), "x")
    backward(ad.reduce_mean(x))
    np.testing.assert_allclose(x.grad, np.full((2, 5), 1.0 / 10), atol=1e-15)


@pytest.mark.parametrize("axis", [0, 1, -1])
def test_reduce_mean_axis_gradients_fd(rng, axis):
    x = Parameter(rng.standard_normal((3, 4, 5)), "x")
    out_shape = np.delete(np.array(x.shape), axis)
    w = Tensor(rng.standard_normal(tuple(out_shape)))

    def f():
        return ad.reduce_sum(ad.mul(ad.reduce_mean(x, axis=axis), w))

    assert finite_diff_check(f, [x]) < 1e-7


def test_reduce_axis_out_of_range():
    with pytest.raises(DimensionError):
        ad.reduce_sum(Tensor(np.ones((2, 2))), axis=2)


def test_reshape_gradient_roundtrip(rng):
    x = Parameter(rng.standard_normal((2, 6)), "x")
    w = Tensor(rng.standard_normal((3, 4)))
    loss = ad.reduce_sum(ad.mul(ad.reshape(x, (3, 4)), w))
    backward(loss)
    np.testing.assert_allclose(x.grad, w.data.reshape(2, 6), atol=1e-14)
    with pytest.raises(DimensionError):
        ad.reshape(x, (5, 5))


def test_stack_gradient_slices(rng):
    # the oracles' test-local stack
    xs = [Parameter(rng.standard_normal((2, 2)), f"x{i}") for i in range(3)]
    w = Tensor(rng.standard_normal((3, 2, 2)))
    loss = ad.reduce_sum(ad.mul(stack(xs), w))
    backward(loss)
    for i, x in enumerate(xs):
        np.testing.assert_allclose(x.grad, w.data[i], atol=1e-14)


def test_slice_cols_gradient_placement(rng):
    x = Parameter(rng.standard_normal((3, 6)), "x")
    w = Tensor(rng.standard_normal((3, 2)))
    loss = ad.reduce_sum(ad.mul(ad.slice_cols(x, 2, 4), w))
    backward(loss)
    expected = np.zeros((3, 6))
    expected[:, 2:4] = w.data
    np.testing.assert_allclose(x.grad, expected, atol=1e-14)
    with pytest.raises(DimensionError):
        ad.slice_cols(x, 4, 2)
    with pytest.raises(DimensionError):
        ad.slice_cols(x, 0, 7)


def test_safe_inv_sqrt_values_and_gradient():
    x = Parameter(np.array([4.0, 0.0, 0.25]), "x")
    y = ad.safe_inv_sqrt(x)
    np.testing.assert_allclose(y.data, [0.5, 0.0, 2.0], atol=1e-15)
    backward(ad.reduce_sum(y))
    # d/dx x^(-1/2) = -x^(-3/2)/2; the zero entry must stay untouched
    np.testing.assert_allclose(x.grad, [-0.5 * 4.0 ** -1.5, 0.0,
                                        -0.5 * 0.25 ** -1.5], atol=1e-12)


def test_safe_inv_sqrt_power_of_two_scaling_is_bitwise():
    x = np.array([3.7, 11.1, 0.9])
    a = ad.safe_inv_sqrt(Tensor(4.0 * x)).data
    b = 0.5 * ad.safe_inv_sqrt(Tensor(x)).data
    assert (a == b).all()


def test_fanout_accumulates():
    x = Parameter(np.array([[2.0]]), "x")
    backward(ad.reduce_sum(ad.mul(x, x)))
    np.testing.assert_allclose(x.grad, [[4.0]], atol=1e-15)


def test_diamond_graph_gradient():
    x = Parameter(np.array([[1.5]]), "x")
    y = ad.add(x, x)                 # 2x
    backward(ad.reduce_sum(ad.mul(y, y)))  # d/dx (2x)^2 = 8x
    np.testing.assert_allclose(x.grad, [[12.0]], atol=1e-12)


def test_backward_exact_when_cotangents_alias(rng):
    # add hands one array to both inputs, so y's two cotangents and v's are
    # the same memory; accumulating y's in place would change v's
    x0 = rng.standard_normal((3, 4))
    c = rng.standard_normal((3, 4))
    x = Parameter(x0, "x")
    y = ad.tanh(x)
    v = ad.exp(x)
    q = ad.add(ad.add(y, y), v)
    backward(ad.reduce_sum(ad.mul(q, Tensor(c))))
    gq = np.ones_like(c) * c
    expected = np.zeros_like(x0)
    expected += gq * np.exp(x0)
    expected += (gq + gq) * (1.0 - np.tanh(x0) * np.tanh(x0))
    np.testing.assert_array_equal(x.grad, expected)


def test_backward_requires_scalar():
    x = Parameter(np.ones((2, 2)), "x")
    with pytest.raises(ContractError):
        backward(ad.tanh(x))
    clear_tape()
    with pytest.raises(ContractError):
        backward(np.float64(1.0))


def test_backward_clears_tape_and_accumulates_across_calls(rng):
    x = Parameter(rng.standard_normal((2, 2)), "x")
    backward(ad.reduce_sum(ad.mul(x, 2.0)))
    assert tape_size() == 0
    first = x.grad.copy()
    backward(ad.reduce_sum(ad.mul(x, 2.0)))
    np.testing.assert_allclose(x.grad, 2.0 * first, atol=1e-14)


def test_backward_on_constant_loss_is_noop():
    x = Parameter(np.ones(3), "x")
    backward(Tensor(5.0))
    assert (x.grad == 0).all()


def test_no_grad_suppresses_recording():
    x = Parameter(np.ones((2, 2)), "x")
    with no_grad():
        y = ad.tanh(ad.matmul(x, x))
    assert not y.requires_grad
    assert tape_size() == 0


def test_two_layer_network_fd(rng):
    w1 = Parameter(rng.standard_normal((3, 5)) * 0.3, "w1")
    b1 = Parameter(rng.standard_normal((1, 5)) * 0.1, "b1")
    w2 = Parameter(rng.standard_normal((5, 1)) * 0.3, "w2")
    x = Tensor(rng.standard_normal((4, 3)))

    def f():
        h = ad.tanh(ad.add(ad.matmul(x, w1), b1))
        return ad.reduce_mean(ad.matmul(h, w2))

    assert finite_diff_check(f, [w1, b1, w2]) < 1e-6


def test_tape_retains_only_what_vjps_read(rng):
    # tanh's VJP reads its output; add's reads nothing; a matmul by a
    # constant reads only the constant. So after the forward the tape holds
    # the 50 tanh outputs, not the 50 sums or the 20 matmul products.
    x = Parameter(rng.standard_normal((250, 500)), "x")  # 1 MB
    const = Tensor(rng.standard_normal((500, 500)) / np.sqrt(500.0))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = x
        for _ in range(50):
            y = ad.tanh(y + 1.0)
        z = y
        for _ in range(20):
            z = ad.matmul(z, const)
        loss = ad.reduce_sum(z)
        del y, z
        held = tracemalloc.get_traced_memory()[0] - before
        backward(loss)
        after = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert tape_size() == 0
    assert held < 50 * x.data.nbytes + 2 * x.data.nbytes
    assert after < x.data.nbytes // 10
    assert np.isfinite(x.grad).all() and np.abs(x.grad).sum() > 0


def test_checkpointed_steps_hold_states_not_intermediates(rng):
    # each step makes 8 state-sized tanh outputs, which the tanh VJPs and
    # the next matmul's VJP read. Recorded step by step, 20 steps keep 160
    # of them until backward(); checkpoint_steps keeps the 20 states, and
    # one step's tape at a time while backward() runs.
    steps, depth = 20, 8
    w = Parameter(rng.standard_normal((64, 64)) / 8.0, "w")
    z0 = Tensor(rng.standard_normal((256, 64)))  # 128 KB
    state = z0.data.nbytes

    def step(i, z):
        for _ in range(depth):
            z = ad.tanh(ad.matmul(z, w))
        return z

    def unrolled(step, z, n):
        states = []
        for i in range(n):
            z = step(i, z)
            states.append(z)
        return stack(states)

    held = {}
    tracemalloc.start()
    try:
        for solve in (unrolled, ad.checkpoint_steps):
            before = tracemalloc.get_traced_memory()[0]
            loss = ad.reduce_sum(solve(step, z0, steps))
            held[solve] = tracemalloc.get_traced_memory()[0] - before
            entries = tape_size()
            w.zero_grad()
            backward(loss)
            del loss
    finally:
        tracemalloc.stop()
    assert entries == 2  # the steps' one entry and the sum
    assert held[unrolled] > (depth - 1) * steps * state
    assert held[ad.checkpoint_steps] < 2 * steps * state
    assert np.abs(w.grad).sum() > 0


def test_checkpoint_steps_without_recording_is_the_stacked_states(rng):
    w = Parameter(rng.standard_normal((3, 3)), "w")
    z0 = Tensor(rng.standard_normal((2, 3)))

    def step(i, z):
        return ad.tanh(ad.matmul(z, w))

    with no_grad():
        traj = ad.checkpoint_steps(step, z0, 4)
        z, expected = z0, []
        for i in range(4):
            z = step(i, z)
            expected.append(z.data)
    assert tape_size() == 0 and not traj.requires_grad
    np.testing.assert_array_equal(traj.data, np.stack(expected))
    with pytest.raises(ContractError):
        ad.checkpoint_steps(step, z0, 0)


@pytest.mark.parametrize("where", ["vjp", "step"])
def test_failure_in_a_recompute_leaves_tape_empty_and_recording_on(rng, where):
    w = Parameter(rng.standard_normal((3, 3)) * 0.5, "w")
    z0 = Tensor(rng.standard_normal((2, 3)))

    def fail(g):
        raise RuntimeError("vjp failed")

    def step(i, z):
        z = ad.tanh(ad.matmul(z, w))
        if ad._grad_enabled():  # only when backward() runs the step again
            if where == "step":
                raise RuntimeError("step failed")
            z = ad._result(z.data, (z,), fail)
        return z

    loss = ad.reduce_sum(ad.checkpoint_steps(step, z0, 3))
    with pytest.raises(RuntimeError, match=f"{where} failed"):
        backward(loss)
    assert tape_size() == 0 and ad._grad_enabled()
    # the next forward records on the thread's tape as usual
    w.zero_grad()
    y = ad.tanh(ad.matmul(z0, w))
    assert y.requires_grad and tape_size() == 2
    backward(ad.reduce_sum(y))
    expected = z0.data.T @ (1.0 - y.data * y.data)
    np.testing.assert_array_equal(w.grad, expected)


def test_checkpoint_steps_refuses_a_step_that_changed_before_backward(rng):
    # the steps are run again in backward(); had w changed in between, the
    # replayed tape would differentiate other values than the forward's
    w = Parameter(rng.standard_normal((3, 3)), "w")
    z0 = Tensor(rng.standard_normal((2, 3)))
    loss = ad.reduce_sum(ad.checkpoint_steps(
        lambda i, z: ad.tanh(ad.matmul(z, w)), z0, 3))
    w.data[0, 0] += 1.0
    with pytest.raises(ContractError, match="^step 2 computed other values"):
        backward(loss)
    assert tape_size() == 0 and ad._grad_enabled()


def test_gradients_exact_when_intermediate_ids_are_reused(rng):
    # every intermediate is dropped as soon as the next op has read it, so
    # CPython hands its id() to a later tensor; gradients must still reach
    # the right inputs. Whether a freed id comes back within one forward
    # depends on the allocator's free lists, which earlier tests and the
    # hash seed leave in varying states; so the check is repeated, with one
    # more live tensor-sized object on the heap each time, until a recorded
    # forward has reused an id.
    x = Parameter(rng.standard_normal((3, 4)) * 0.5, "x")
    w = Parameter(rng.standard_normal((4, 4)) * 0.5, "w")
    ids = []

    def f():
        y = x
        for _ in range(12):
            y = ad.tanh(ad.add(ad.matmul(y, w), ad.mul(y, 0.5)))
            if ad._grad_enabled():
                ids.append(id(y))
        return ad.reduce_sum(ad.mul(y, y))

    padding = []
    for attempt in range(8):
        ids.clear()
        assert finite_diff_check(f, [x, w]) < 1e-6
        if len(set(ids)) < len(ids):
            break
        padding.append((attempt,) * 3)
    assert len(set(ids)) < len(ids)
