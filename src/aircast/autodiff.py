"""Dense float64 tensors with reverse-mode automatic differentiation.

Values live in row-major numpy arrays. Every primitive checks its inputs'
shapes, computes the forward value, and (when gradients are being tracked)
appends a tape entry; it does not look for NaN or inf in the values (see
Tensor for where they are caught). An entry names its output and inputs by
their integer keys and holds no tensor other than a leaf, so an intermediate
is freed as soon as the forward drops it. Its closure, which turns the output
cotangent into input cotangents, keeps only the arrays that formula reads: a
matmul by a constant Laplacian keeps the Laplacian, not the activation. What
stays alive until backward() is therefore what the VJPs read. A GRU step
(the encoder's) is one entry, gru_cell, whose hand-written VJP keeps the
gates z and r, the candidate n and the input state h, four state-sized
arrays where the 20 primitives it is made of kept six. A call of the latent
ODE's right-hand side is one entry too, which physics records through
record(). A loop of steps (the training ODE solve) is recorded as one entry
by checkpoint_steps, which keeps only the loop's input tensor and each
step's output state and recomputes a step's intermediates when backward()
reaches it, so the solve holds steps x state rather than steps x
intermediates. backward() replays the tape once in reverse and frees each
entry as it is used; the tape is rebuilt on every forward pass and confined
to one thread.
"""

from __future__ import annotations

import itertools
import threading
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, DimensionError, NumericError

_state = threading.local()
# Tensor keys: unlike id(), never reused once an intermediate is freed
_keys = itertools.count()


def _tape() -> list:
    if not hasattr(_state, "tape"):
        _state.tape = []
    return _state.tape


def grad_enabled() -> bool:
    """Whether primitives record on this thread: False inside no_grad."""
    return getattr(_state, "grad_enabled", True)


class no_grad:
    """Context manager that disables tape recording on this thread."""

    def __enter__(self):
        self._prev = grad_enabled()
        _state.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _state.grad_enabled = self._prev
        return False


def tape_size() -> int:
    return len(_tape())


def clear_tape() -> None:
    _tape().clear()


class Tensor:
    """Immutable-by-convention dense array node.

    Leaf tensors created with requires_grad=True own a zero-initialized grad
    buffer; tensors produced by primitives keep requires_grad set but receive
    gradients only transiently during backward(), routed by their key.

    Constructing a Tensor or Parameter from values with a NaN or inf is a
    NumericError, also for a Python number that a primitive wraps. A
    primitive's output skips that check, so an overflow inside the model
    travels on as inf or NaN to where values leave it: fixed-step RK4 checks
    each state, dopri5 each stage's state and each error estimate, mae_loss
    the loss, Adam the gradients and Model.forecast the de-normalized
    forecast.
    """

    __slots__ = ("data", "requires_grad", "grad", "key")
    _checked = True  # False on _Unchecked, the primitives' outputs

    def __init__(self, values, requires_grad: bool = False):
        arr = np.asarray(values, dtype=np.float64)
        if self._checked and not np.isfinite(arr).all():
            raise NumericError("non-finite value at tensor construction")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(arr) if requires_grad else None
        self.key = next(_keys)

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)


class Parameter(Tensor):
    """Named trainable leaf; names must be unique within a model."""

    __slots__ = ("name",)

    def __init__(self, values, name: str):
        super().__init__(values, requires_grad=True)
        self.name = name

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.shape})"


class _Unchecked(Tensor):
    """A primitive's output: a Tensor that skips the finiteness check."""

    __slots__ = ()
    _checked = False


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def record(values: np.ndarray, inputs: tuple, vjp: Callable) -> Tensor:
    """Wrap values; when recording, append (out key, input slots, vjp).

    An input slot is None when the input needs no gradient, else (key, leaf)
    where leaf is the tensor itself if it owns a grad buffer and None if it
    is an intermediate, which the entry must not keep alive. vjp(g) returns
    or yields one cotangent per input, None for one it skips. An input may
    be listed once per use: backward() adds its cotangents to what it holds
    in the listed order, so a fused primitive (the physics right-hand side)
    sums them as the primitives it replaces did, and a yielded cotangent is
    added before the next is made.
    """
    out = _Unchecked(values)
    if grad_enabled() and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        slots = tuple((t.key, t if t.grad is not None else None)
                      if t.requires_grad else None for t in inputs)
        _tape().append((out.key, slots, vjp))
    return out


def unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _no_broadcast(opname: str, a: Tensor, b: Tensor) -> DimensionError:
    return DimensionError(
        f"{opname}: shapes {a.shape} and {b.shape} do not broadcast")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes, broadcasting leading axes
    like np.matmul; both operands must be at least 2-D.

    The VJP sums a broadcast operand's cotangent back to its shape and
    skips operands that do not require gradients (constant Laplacians). It
    keeps b only for a's cotangent and a only for b's.
    """
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    try:
        if ad.ndim < 2 or bd.ndim < 2:  # np.matmul would accept vectors
            raise ValueError
        out = ad @ bd  # raises ValueError on mismatched or unbroadcastable axes
    except ValueError:
        raise DimensionError(
            f"matmul: incompatible shapes {a.shape} @ {b.shape}") from None
    if not grad_enabled():  # nothing is recorded, so skip the VJP's captures
        return _Unchecked(out)
    ash, bsh = ad.shape, bd.shape
    for_ga = bd if a.requires_grad else None
    for_gb = ad if b.requires_grad else None

    def vjp(g):
        ga = None if for_ga is None else \
            unbroadcast(g @ np.swapaxes(for_ga, -1, -2), ash)
        gb = None if for_gb is None else \
            unbroadcast(np.swapaxes(for_gb, -1, -2) @ g, bsh)
        return ga, gb

    return record(out, (a, b), vjp)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.data + b.data
    except ValueError:  # numpy's broadcast failure
        raise _no_broadcast("add", a, b) from None
    ash, bsh = a.shape, b.shape

    def vjp(g):
        return unbroadcast(g, ash), unbroadcast(g, bsh)

    return record(out, (a, b), vjp)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    try:
        out = a.data - b.data
    except ValueError:
        raise _no_broadcast("sub", a, b) from None
    ash, bsh = a.shape, b.shape

    def vjp(g):
        return unbroadcast(g, ash), unbroadcast(-g, bsh)

    return record(out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    ad, bd = a.data, b.data
    try:
        out = ad * bd
    except ValueError:
        raise _no_broadcast("mul", a, b) from None
    if not grad_enabled():
        return _Unchecked(out)
    ash, bsh = a.shape, b.shape
    for_ga = bd if a.requires_grad else None
    for_gb = ad if b.requires_grad else None

    def vjp(g):
        ga = None if for_ga is None else unbroadcast(g * for_ga, ash)
        gb = None if for_gb is None else unbroadcast(g * for_gb, bsh)
        return ga, gb

    return record(out, (a, b), vjp)


def neg(a) -> Tensor:
    a = as_tensor(a)

    def vjp(g):
        return (-g,)

    return record(-a.data, (a,), vjp)


def tanh(a) -> Tensor:
    a = as_tensor(a)
    y = np.tanh(a.data)

    def vjp(g):
        return (g * (1.0 - y * y),)

    return record(y, (a,), vjp)


def logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) without overflow: both exponents are at most 0.

    Bitwise equal to 1 / (1 + e^-|x|) for x >= 0 and e^-|x| / (1 + e^-|x|)
    below 0, in one pass with two exps.
    """
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    y = logistic(a.data)

    def vjp(g):
        return (g * y * (1.0 - y),)

    return record(y, (a,), vjp)


def exp(a) -> Tensor:
    a = as_tensor(a)
    y = np.exp(a.data)

    def vjp(g):
        return (g * y,)

    return record(y, (a,), vjp)


def softplus(a) -> Tensor:
    """log(1 + e^x), evaluated stably; gradient is sigmoid(x)."""
    a = as_tensor(a)
    x = a.data
    y = np.logaddexp(0.0, x)

    def vjp(g):
        return (g * logistic(x),)

    return record(y, (a,), vjp)


def absolute(a) -> Tensor:
    """Elementwise |x| with sign(x) subgradient (0 at 0)."""
    a = as_tensor(a)
    x = a.data

    def vjp(g):
        return (g * np.sign(x),)

    return record(np.abs(x), (a,), vjp)


def _reduce(a, axis, mean: bool) -> Tensor:
    """Sum or mean over one axis, or over all of them when axis is None.

    Both share one VJP: the cotangent spread back over the reduced axes and
    divided by the count of averaged entries, which is 1 for a sum (an exact
    division, so a sum's gradient is bitwise the spread cotangent).
    """
    a = as_tensor(a)
    sh = a.shape
    if axis is not None and not (-len(sh) <= axis < len(sh)):
        raise DimensionError(f"axis {axis} out of range for shape {sh}")
    count = 1
    if mean:
        count = a.data.size if axis is None else sh[axis]
        if count == 0:
            raise DimensionError("mean over an empty axis")

    def vjp(g):
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g / count, sh).copy(),)

    values = a.data.mean(axis=axis) if mean else a.data.sum(axis=axis)
    return record(values, (a,), vjp)


def reduce_sum(a, axis=None) -> Tensor:
    return _reduce(a, axis, mean=False)


def reduce_mean(a, axis=None) -> Tensor:
    return _reduce(a, axis, mean=True)


def reshape(a, shape: tuple) -> Tensor:
    a = as_tensor(a)
    old = a.shape
    try:
        values = a.data.reshape(shape)
    except ValueError:
        raise DimensionError(f"cannot reshape {old} to {shape}") from None

    def vjp(g):
        return (g.reshape(old),)

    return record(values, (a,), vjp)


def slice_cols(a, start: int, stop: int) -> Tensor:
    """Contiguous column slice of a 2-D tensor."""
    a = as_tensor(a)
    if a.data.ndim != 2:
        raise DimensionError(f"slice_cols expects 2-D, got {a.shape}")
    if not (0 <= start < stop <= a.shape[1]):
        raise DimensionError(f"column range [{start}:{stop}) invalid for {a.shape}")
    sh = a.shape

    def vjp(g):
        full = np.zeros(sh)
        full[:, start:stop] = g
        return (full,)

    return record(a.data[:, start:stop].copy(), (a,), vjp)


def safe_inv_sqrt(a) -> Tensor:
    """x^(-1/2) where x > 0, exactly 0 elsewhere (degree-normalization guard)."""
    a = as_tensor(a)
    x = a.data
    pos = x > 0
    y = np.zeros_like(x)
    y[pos] = 1.0 / np.sqrt(x[pos])

    def vjp(g):
        gx = np.zeros_like(x)
        gx[pos] = -0.5 * y[pos] / x[pos]
        return (g * gx,)

    return record(y, (a,), vjp)


def gru_cell(x, h, w_z, u_z, b_z, w_r, u_r, b_r, w_n, u_n, b_n) -> Tensor:
    """One GRU update of an input of width 1, recorded as one tape entry.

    z = sigmoid(x w_z + h u_z + b_z), r = sigmoid(x w_r + h u_r + b_r),
    n = tanh(x w_n + (r*h) u_n + b_n) and h' = (1 - z)*h + z*n, for x of
    shape (rows, 1), h of (rows, H), each w and b of (1, H) and each u of
    (H, H). The values are bitwise those of the same formula composed of
    matmul, add, sigmoid, tanh, mul and sub: x w is a product with one term
    per entry, so x * w rounds it the same. The VJP keeps x, h, z, r and n,
    recomputes 1 - z and r*h, and sums every cotangent in the order the
    composed tape would, so the gradients are bitwise that tape's too; it
    skips the cotangents of x and h when they need none.
    """
    x, h = as_tensor(x), as_tensor(h)
    weights = tuple(as_tensor(t) for t in (w_z, u_z, b_z, w_r, u_r, b_r,
                                           w_n, u_n, b_n))
    if x.data.ndim != 2 or x.shape[1] != 1:
        raise DimensionError(f"gru input must be (rows, 1), got {x.shape}")
    if h.data.ndim != 2 or h.shape[0] != x.shape[0]:
        raise DimensionError(
            f"hidden state {h.shape} does not match input rows {x.shape[0]}")
    hidden = h.shape[1]
    for t, shape in zip(weights, ((1, hidden), (hidden, hidden),
                                  (1, hidden)) * 3):
        if t.shape != shape:
            raise DimensionError(
                f"gru weight {t.shape} does not match hidden state {h.shape}")
    xd, hd = x.data, h.data
    wz, uz, bz, wr, ur, br, wn, un, bn = (t.data for t in weights)
    z = logistic(xd * wz + hd @ uz + bz)
    r = logistic(xd * wr + hd @ ur + br)
    n = np.tanh(xd * wn + (r * hd) @ un + bn)
    out = (1.0 - z) * hd + z * n
    if not grad_enabled():
        return _Unchecked(out)
    need_x, need_h = x.requires_grad, h.requires_grad

    def vjp(g):
        # g_az, g_ar, g_an: the cotangents of the gates' pre-activations
        g_an = g * z * (1.0 - n * n)
        g_rh = g_an @ un.T
        g_ar = g_rh * hd * r * (1.0 - r)
        g_az = (g * n + -(g * hd)) * z * (1.0 - z)
        gx = gh = None
        if need_x:
            gx = (g_an @ wn.T + g_ar @ wr.T) + g_az @ wz.T
        if need_h:
            gh = ((g * (1.0 - z) + g_rh * r) + g_ar @ ur.T) + g_az @ uz.T
        grads = []
        for ga, hu in ((g_az, hd), (g_ar, hd), (g_an, r * hd)):
            grads += [xd.T @ ga, hu.T @ ga, ga.sum(axis=0, keepdims=True)]
        return (gx, gh, *grads)

    return record(out, (x, h, *weights), vjp)


def checkpoint_steps(step: Callable[[int, Tensor], Tensor], z0: Tensor,
                     n: int) -> Tensor:
    """The states z_1..z_n, stacked (n, *state), of z_{i+1} = step(i, z_i).

    The steps run without recording and only their output states are kept.
    When recording is on, one tape entry stands for all n steps, also when
    z0 needs no gradient, since step may read parameters. When backward()
    reaches it, it walks the steps from last to first: each step is run
    again from its stored input on a tape of its own, which is replayed
    into the same cotangent map before the step before it is run. A stored
    state's share of the stack's cotangent is put in the map before the
    step that reads it is replayed, so every cotangent is summed in the
    order an unrolled tape of the n steps and a stack would sum it, and
    the gradients are bitwise those of that tape. The price is a second
    run of every step in backward(). step must compute the same values
    then, so what it reads besides its input must not change before
    backward() has run; a step whose second run differs from its first is
    a ContractError.
    """
    if n < 1:
        raise ContractError("checkpoint_steps needs at least one step")
    states = []
    with no_grad():
        z = z0
        for i in range(n):
            z = step(i, z)
            states.append(z.data)
    out = _Unchecked(np.stack(states))
    if not grad_enabled():
        return out

    def replay(g, grads):
        outer, enabled = _tape(), grad_enabled()
        key = None  # the input of step i + 1, which holds z_{i+1}'s cotangent
        try:
            for i in range(n - 1, -1, -1):
                ct = np.take(g, i, axis=0) if key is None else grads.pop(key)
                if i:
                    z_in = _Unchecked(states[i - 1])
                    z_in.requires_grad = True
                    grads[z_in.key] = np.take(g, i - 1, axis=0)
                else:
                    z_in = z0
                key = z_in.key
                _state.tape, _state.grad_enabled = [], True
                z = step(i, z_in)
                local, _state.tape = _state.tape, outer
                if not np.array_equal(z.data, states[i], equal_nan=True):
                    raise ContractError(
                        f"step {i} computed other values in backward() than "
                        "in the forward; what it reads changed in between")
                grads[z.key] = ct
                _replay(local, grads)
        finally:
            _state.tape, _state.grad_enabled = outer, enabled

    out.requires_grad = True
    _tape().append((out.key, None, replay))
    return out


def _replay(tape: list, grads: dict) -> None:
    """Pop tape's entries last to first, turning each output's cotangent in
    grads into cotangents of its inputs.

    Cotangents of intermediates are routed by tensor key into grads; those
    of leaves go straight into their grad buffers. An entry without slots
    is checkpoint_steps', which replays its steps into grads itself.
    """
    while tape:
        out_key, slots, vjp = tape.pop()
        g = grads.pop(out_key, None)
        if g is None:
            continue
        if slots is None:
            vjp(g, grads)
            continue
        for slot, ct in zip(slots, vjp(g)):
            if slot is None or ct is None:
                continue
            key, leaf = slot
            if leaf is not None:
                leaf.grad += ct
            else:
                # no VJP writes into its g, so a cotangent may be kept
                # as returned, even when it aliases another one
                prev = grads.get(key)
                grads[key] = ct if prev is None else prev + ct


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable leaf's grad buffer.

    The loss must be scalar. Entries are popped in reverse recording order,
    which is a valid topological order for a define-by-run tape, so each
    closure and the arrays it keeps are freed once it has run; the tape is
    empty on return and recording is as it was, also when a VJP raises. A
    constant loss (nothing recorded against it) is a no-op: all gradients
    are trivially zero.
    """
    if not isinstance(loss, Tensor):
        raise ContractError("backward expects a Tensor loss")
    if loss.data.size != 1:
        raise ContractError(f"backward expects a scalar loss, got shape {loss.shape}")
    tape = _tape()
    grads: dict[int, np.ndarray] = {loss.key: np.ones_like(loss.data)}
    if loss.grad is not None:
        loss.grad += 1.0
    try:
        _replay(tape, grads)
    finally:
        tape.clear()


def finite_diff_check(f: Callable[[], Tensor],
                      params: Sequence[Parameter]) -> float:
    """Compare backward() gradients of f against central differences.

    Returns the max over all elements of the listed parameters of
    |analytic - numeric| / (|analytic| + |numeric| + 1e-12). f is re-evaluated
    with recording disabled for every probe, so it must be deterministic.
    """
    eps = 1e-5  # the central-difference step
    clear_tape()
    for p in params:
        p.zero_grad()
    loss = f()
    backward(loss)
    analytic = [p.grad.copy() for p in params]
    worst = 0.0
    for p, an in zip(params, analytic):
        flat = p.data.reshape(-1)
        aflat = an.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            with no_grad():
                flat[i] = orig + eps
                f_plus = f().item()
                flat[i] = orig - eps
                f_minus = f().item()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            rel = abs(aflat[i] - numeric) / (abs(aflat[i]) + abs(numeric) + 1e-12)
            worst = max(worst, rel)
    return worst
