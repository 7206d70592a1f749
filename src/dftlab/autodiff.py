"""Reverse-mode automatic differentiation over dense float64 arrays.

Every operation records an OpNode linking its parents (its inputs' nodes,
or leaf tensors) to its output; ``backward`` linearizes the graph
reachable from a scalar loss into a ComputationRecord (topological order)
and runs each node's backward rule exactly once.

Primitives: ``add``, ``mul``, ``matmul``, ``softmax``,
``scaled_masked_softmax`` (attention scores: ``softmax`` of ``mask_fill``
of ``scale``, fused into one node), ``log``, ``exp``, ``gather``,
``tensor_sum``, ``tensor_mean``, ``layer_norm``, ``gelu``, ``mlp`` (a
transformer MLP, ``gelu(x @ w1 + b1) @ w2 + b2``, fused into one node),
``transpose``, ``reshape``, ``embedding``, ``scale``, ``mask_fill``,
``pow_const``, ``stop_gradient`` and ``row_join`` (two row halves' graphs
stacked along the batch rows).

Conventions

* All values are 64-bit floats. Integer index arrays (gather, embedding)
  are plain numpy arrays, not Tensors.
* ``backward`` accumulates into ``Tensor.grad``. The caller resets grads
  explicitly (``zero_grad``) between uses; repeated backward calls without
  a reset add up.
* Each tensor's gradient is summed once per pass. A leaf's ``.grad`` is an
  owned, writable array (safe to scale in place, never shared with another
  leaf). An interior tensor's ``.grad`` is the gradient that was propagated
  through it, stored without a copy: it may share memory with other
  interior grads or be a read-only broadcast view, so treat it as
  read-only. No backward rule writes into the gradient it receives.
* ``log`` clamps its input at ``LOG_FLOOR`` (1e-12) before taking the log,
  so probabilities touching zero produce a large-but-finite value instead
  of -inf. Inputs below the floor get zero gradient (the clamped branch is
  constant). This only matters for pathological inputs.
* A graph keeps only what its backward rules read. An OpNode names
  each input by its parent OpNode, or by the leaf Tensor when the input
  has no node, and holds its output tensor weakly; each rule's closure
  captures the arrays and shapes it reads (``a.data``, ``x.shape``),
  never an input Tensor. So an interior tensor the caller drops is freed
  at once, together with its array unless some rule reads that array:
  the pre-bias output of a ``matmul``, or the scores fed to a softmax,
  do not outlive the next op. ``mlp``'s rule reads only its input and
  weights and recomputes the hidden layer, so a graph holds no
  (batch, length, hidden) array. There is no reference cycle, and a graph
  is freed as soon as the loss (and any ComputationRecord returned for
  it) is dropped, without waiting for the cyclic collector.
* ``backward`` writes an interior tensor's ``.grad`` only while the
  caller still holds that tensor (found through its node's weak output
  reference). A dropped interior tensor cannot be read, so no caller
  sees the difference; its gradient is freed as soon as its rule has
  used it.
* There is no global tape, so independent graphs never share state,
  and any thread may build or walk its own. One graph is built and
  walked by one thread, except across a ``row_join``: its two halves are
  separate graphs over the same leaves, built by the caller of
  ``Model.forward`` and its helper thread, and ``backward`` walks each
  half's subgraph on its own thread (``_walk_halves``). The halves meet
  only in the gradients of inputs without a batch-row axis, weights and
  tables, which are sums over batch rows (``_RowSum``): the second
  half's rows carry on from the first half's sum, in row order, so each
  gradient has the bits of one graph over all the rows. Every other
  gradient stays inside its half. Leaf ``.grad``s are written once,
  after both halves, on the thread that called ``backward``.
* The primitives a model forward calls have their forward halves on
  plain arrays: ``softmax_array``, ``scaled_masked_softmax_array``,
  ``layer_norm_array``, ``mlp_array``, ``gather_array`` and
  ``log_array``; for ``add``, ``matmul``, ``embedding``, ``transpose``
  and ``reshape`` the half is the numpy call itself. Each primitive calls
  its half, then records its node. A forward that needs no graph (a
  gradient-free ``Model.forward``: every decode step and teacher-forced
  read-out) runs the halves and makes no Tensor, OpNode or closure per
  call, with the same numpy calls in the same order, so the same bits.
* Shape checks that numpy makes anyway (the broadcast in ``add`` and
  ``mul``) run only on the failure path: numpy computes first, and only
  when it refuses is the op's own error built. The oracles' graphs are
  thousands of tiny ones (d=8, T<=5), bound by per-call Python cost; a
  check on every call took 40% of ``add``'s time on decode-sized rows.
  For the same reason the hot forwards call the ufunc reductions
  (``np.add.reduce``) directly: ``.mean``, ``.max`` and ``.sum`` run the
  same loops behind extra Python wrappers, so every result keeps its
  bits.
* ``gelu``, ``softmax``, ``scaled_masked_softmax`` and ``layer_norm`` are
  blocked kernels, forward and backward: a large C-contiguous input is
  cut into leading-axis views of at most ``BLOCK_ELEMS`` (32K) elements,
  whole rows each, and every block is computed through ``out=`` buffers
  made once per call, so the temporaries stay in cache. Each element
  keeps the formula's operation order (``(x*x)*x``, ``0.5*x*(1+t)``, the
  same ufunc reductions along the last axis, a mean as ``add.reduce / n``),
  and sums over rows carry on from block to block in row order, so every
  result has the bits of the unblocked formula. Blocks are views of the
  input as it is laid out, never of a contiguous copy: a copy of a
  transposed array reduces in another order. An input that fits in one
  block, or is not C-contiguous, runs as one block on the arrays as given.
* ``mlp`` blocks by whole batch rows, at most ``BLOCK_ELEMS`` hidden
  elements each (or one row), forward and backward. numpy's matmul runs
  one gemm per batch row, so a row's products do not depend on its block;
  the bias add and gelu are the same elementwise kernels, and the weight
  and bias gradients carry their sums over batch rows from block to
  block. Backward recomputes each block's hidden layer, one extra
  ``x @ w1`` and gelu forward per step.
"""

from __future__ import annotations

import math
import threading
import weakref
from typing import Callable, Optional, Sequence

import numpy as np

LOG_FLOOR = 1e-12
BLOCK_ELEMS = 1 << 15  # 256 KB of float64: a blocked kernel's working set fits in L2


def _as_array(data) -> np.ndarray:
    return np.asarray(data, dtype=np.float64)


class Tensor:
    """A dense float64 array with an optional gradient record."""

    __slots__ = ("data", "requires_grad", "grad", "_node", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self._node: Optional[OpNode] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    # --- sugar ---

    def __mul__(self, other):
        if isinstance(other, Tensor):
            return mul(self, other)
        return scale(self, float(other))

    __rmul__ = __mul__

    def __pow__(self, p):
        return pow_const(self, float(p))

    def sum(self, axis=None):
        return tensor_sum(self, axis=axis)

    def mean(self, axis=None):
        return tensor_mean(self, axis=axis)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class OpNode:
    """One applied primitive: its parents, its output, and its backward rule.

    ``inputs`` holds, per input, the input's OpNode, or the input Tensor
    itself when it has none (a leaf). The output is held through a weak
    reference; the output holds the node (``Tensor._node``), and a strong
    link back would make every graph a reference cycle.
    """

    __slots__ = ("op", "inputs", "_output", "backward")

    def __init__(
        self,
        op: str,
        inputs: tuple,
        output: Tensor,
        backward: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]],
    ):
        self.op = op
        self.inputs = inputs
        self._output = weakref.ref(output)
        self.backward = backward

    @property
    def output(self) -> Optional[Tensor]:
        """The tensor this op produced, or None once it has been freed."""
        return self._output()


class ComputationRecord:
    """Topologically ordered list of the ops behind one output tensor.

    Built by tracing parent links; every op appears exactly once and all
    of an op's inputs precede it in the list.
    """

    def __init__(self, nodes: list):
        self.nodes = nodes

    def __len__(self):
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    @classmethod
    def trace(cls, root: Tensor) -> "ComputationRecord":
        return cls([] if root._node is None else cls._ops_behind(root._node))

    @staticmethod
    def _ops_behind(root: "OpNode") -> list:
        nodes = []
        # OpNode defines no __eq__, so it hashes by identity.
        seen = set()
        stack = [(root, False)]
        while stack:
            node, post = stack.pop()
            if post:
                nodes.append(node)
                continue
            if node in seen:
                continue
            seen.add(node)
            stack.append((node, True))
            for parent in node.inputs:
                if type(parent) is not Tensor:
                    stack.append((parent, False))
        return nodes


def _make(data: np.ndarray, op: str, inputs: tuple, backward_fn) -> Tensor:
    out = Tensor(data)
    for t in inputs:
        if t.requires_grad:
            out.requires_grad = True
            parents = tuple(t if t._node is None else t._node for t in inputs)
            out._node = OpNode(op, parents, out, backward_fn)
            break
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple, borrowed: bool = True):
    """Sum a broadcasted gradient back down to the original shape.

    A leading axis that ``shape`` lacks holds the batch rows, so in the
    walk of a row half it is summed first as a ``_row_sum`` that the
    halves share. ``borrowed`` is False when ``grad`` is the rule's own
    product, not the gradient it received.
    """
    if grad.ndim > len(shape) and _this_thread.walk is not None:
        return _row_sum(grad, finish=lambda rows: _sum_to(rows, shape), borrowed=borrowed)
    return _sum_to(grad, shape)


def _sum_to(grad: np.ndarray, shape: tuple) -> np.ndarray:
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    """Raise the op's own error if the shapes cannot broadcast.

    Called only after numpy has already refused the operands, so a
    ValueError numpy raises for another reason propagates unchanged.
    """
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ValueError(
            f"{op}: shapes {a.shape} and {b.shape} are not broadcast-compatible"
        ) from None


def _blocked(kernel: Callable, inputs: tuple, out_shapes: tuple, scratch: int = 0,
             trailing: int = 1) -> tuple:
    """Run ``kernel(*inputs, *outputs, *buffers)`` block by block; return the outputs.

    Every array shares the leading axes of ``inputs[0]``. A block is a run
    of whole slabs over the last ``trailing`` axes of each array's
    C-ordered view: at most BLOCK_ELEMS elements of ``inputs[0]``, or one
    slab. The outputs (``out_shapes``) and ``scratch`` buffers shaped like
    a block of ``inputs[0]`` are made once per call. When ``inputs[0]``
    fits in one block, or some input is not C-contiguous, the kernel runs
    once on the inputs as they are, with None for every output and buffer:
    numpy then allocates each as the plain formula would, and a copy,
    which would reduce the rows in another order, is never made.
    """
    x = inputs[0]
    if x.size <= BLOCK_ELEMS or not all(a.flags.c_contiguous for a in inputs):
        return kernel(*inputs, *(None,) * (len(out_shapes) + scratch))
    outputs = tuple(np.empty(shape) for shape in out_shapes)
    views = [a.reshape((-1,) + a.shape[a.ndim - trailing:]) for a in inputs + outputs]
    rows = len(views[0])
    step = max(1, BLOCK_ELEMS * rows // x.size)
    buffers = [np.empty((step,) + views[0].shape[1:]) for _ in range(scratch)]
    for lo in range(0, rows, step):
        n = min(step, rows - lo)
        kernel(*[v[lo:lo + n] for v in views], *[b[:n] for b in buffers])
    return outputs


# --- sums over batch rows ---


def _carry_rows(carry: Optional[np.ndarray], a: np.ndarray, axes: int = 1) -> np.ndarray:
    """Sum ``a`` over its first ``axes`` axes, carrying on from ``carry``, the sum of earlier rows.

    numpy adds the rows in order, so adding ``carry`` into the first row
    (which ``a`` then no longer holds) continues the unblocked sum. The
    sum is laid out as ``a`` is, and a later sum over it (``_sum_to``)
    takes its order from that layout, so a copy of ``a`` must keep it.
    """
    if carry is not None:
        a[(0,) * axes] += carry
    return np.add.reduce(a, axis=tuple(range(axes)))


def _carry_leading(carry: Optional[np.ndarray], a: np.ndarray) -> np.ndarray:
    """``_carry_rows`` over every axis of ``a`` but the last."""
    return _carry_rows(carry, a, a.ndim - 1)


class _Halves:
    """The row sums that the backward walks of a ``row_join``'s two halves share.

    Slot k is the k-th ``_RowSum`` each walk opens; both halves open the
    same sums in the same order, since they ran the same ops.
    """

    def __init__(self):
        self.ready = threading.Condition()
        self.first: dict = {}  # slot -> the first half's sum over its rows
        self.first_ended = False  # the first half's walk is over, or raised
        self.value: dict = {}  # slot -> the finished gradient

    def hand_over(self, slot: int, total: np.ndarray) -> None:
        with self.ready:
            self.first[slot] = total
            self.ready.notify()

    def end_first(self) -> None:
        with self.ready:
            self.first_ended = True
            self.ready.notify()

    def take(self, slot: int) -> np.ndarray:
        """The first half's sum for ``slot``, once it is there."""
        with self.ready:
            while slot not in self.first:
                if self.first_ended:
                    raise RuntimeError(f"row-join: the first row half ended without row sum {slot}")
                self.ready.wait()
            return self.first.pop(slot)


class _HalfWalk:
    __slots__ = ("halves", "half", "opened")

    def __init__(self, halves: _Halves, half: int):
        self.halves, self.half, self.opened = halves, half, 0


class _ThisThread(threading.local):
    walk: Optional[_HalfWalk] = None  # the row half this thread's backward walks, if any


_this_thread = _ThisThread()


class _RowSum:
    """A gradient summed over batch rows, fed block by block in row order.

    ``step(carry, *block)`` folds a block of rows into ``carry``, the sum
    of the rows before it (None before the first block), and ``done``
    returns ``finish`` of the sum of every row. ``add(..., borrowed=True)``
    marks a block the rule does not own, such as the gradient it
    received: it is copied before the carry is written into it.

    In the backward walk of one half of a ``row_join`` the two halves
    share the sum, and each half reduces its own rows. The first half's
    rows come first: it hands its sum over at ``done`` and never waits.
    The second half carries on from that sum, waiting for it as the sum
    opens if it has not come yet, so it holds no unreduced rows and
    runs at most about one rule behind the first half. In such a
    walk ``done`` returns the ``_RowSum`` itself; the finished gradient
    is read from its slot once both walks are over.
    """

    __slots__ = ("step", "finish", "carry", "walk", "slot")

    def __init__(self, finish: Optional[Callable] = None, step: Callable = _carry_rows):
        self.step, self.finish, self.carry = step, finish, None
        walk = self.walk = _this_thread.walk
        if walk is not None:
            self.slot = walk.opened
            walk.opened += 1
            if walk.half:  # before the rule allocates anything for its rows
                self.carry = walk.halves.take(self.slot)

    def add(self, *block, borrowed: bool = False) -> None:
        if borrowed and self.carry is not None:
            block = tuple(a.copy(order="K") for a in block)  # laid out as given: see _carry_rows
        self.carry = self.step(self.carry, *block)

    def done(self):
        walk, carry = self.walk, self.carry
        self.carry = None
        if walk is None:
            return carry if self.finish is None else self.finish(carry)
        if walk.half == 0:
            walk.halves.hand_over(self.slot, carry)
        else:
            walk.halves.value[self.slot] = carry if self.finish is None else self.finish(carry)
        return self


def _row_sum(*block, finish: Optional[Callable] = None, step: Callable = _carry_rows,
             borrowed: bool = False):
    """A ``_RowSum`` of the one ``block``, done."""
    if _this_thread.walk is None:  # one graph over all the rows: no sum to share
        total = step(None, *block)
        return total if finish is None else finish(total)
    total = _RowSum(finish, step)
    total.add(*block, borrowed=borrowed)
    return total.done()


# --- primitives ---


def add(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    try:
        data = ad + bd
    except ValueError:
        _check_broadcast(a, b, "add")
        raise
    sa, sb = ad.shape, bd.shape

    def bw(g):
        return (_unbroadcast(g, sa), _unbroadcast(g, sb))

    return _make(data, "add", (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    try:
        data = ad * bd
    except ValueError:
        _check_broadcast(a, b, "multiply")
        raise

    def bw(g):
        return (
            _unbroadcast(g * bd, ad.shape),
            _unbroadcast(g * ad, bd.shape),
        )

    return _make(data, "multiply", (a, b), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError(
            f"matmul: operands must be at least 2-D, got {a.shape} and {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(
            f"matmul: inner dimensions differ, {a.shape} vs {b.shape}"
        )

    ad, bd = a.data, b.data

    def bw(g):
        ga = _unbroadcast(np.matmul(g, np.swapaxes(bd, -1, -2)), ad.shape)
        gb = _unbroadcast(np.matmul(np.swapaxes(ad, -1, -2), g), bd.shape, borrowed=False)
        return (ga, gb)

    return _make(np.matmul(ad, bd), "matmul", (a, b), bw)


def _softmax_forward(x, s, shifted) -> tuple:
    shifted = np.subtract(x, np.maximum.reduce(x, axis=-1, keepdims=True), shifted)
    s = np.exp(shifted, s)
    np.divide(s, np.add.reduce(s, axis=-1, keepdims=True), s)
    return (s,)


def _softmax_backward(s, g, gx) -> tuple:
    # s * (g - sum(g * s)), with gx holding g * s first
    gx = np.multiply(g, s, gx)
    np.subtract(g, np.add.reduce(gx, axis=-1, keepdims=True), gx)
    np.multiply(s, gx, gx)
    return (gx,)


def softmax_array(x: np.ndarray) -> np.ndarray:
    """``softmax``'s forward on a plain array."""
    return _blocked(_softmax_forward, (x,), (x.shape,), scratch=1)[0]


def softmax(x: Tensor) -> Tensor:
    """Row-wise softmax over the last axis, with row-max subtraction."""
    s = softmax_array(x.data)

    def bw(g):
        return _blocked(_softmax_backward, (s, g), (s.shape,))

    return _make(s, "softmax-rowwise", (x,), bw)


def scaled_masked_softmax_array(x: np.ndarray, a: float, mask: Optional[np.ndarray] = None,
                                fill: float = 0.0) -> np.ndarray:
    """``scaled_masked_softmax``'s forward on a plain array."""
    if x.ndim < 2:
        raise ValueError(f"scaled-masked-softmax: input must be at least 2-D, got {x.shape}")
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != x.shape[-2:]:
            raise ValueError(
                f"scaled-masked-softmax: mask shape {mask.shape} must be {x.shape[-2:]}"
            )

    def forward(xb, sb, buf):
        # no "+ 0.0" as in scale: exp and the row-max shift treat -0.0 and 0.0 alike
        buf = np.multiply(a, xb, buf)
        if mask is not None:
            np.copyto(buf, fill, where=mask)
        return _softmax_forward(buf, sb, buf)

    return _blocked(forward, (x,), (x.shape,), scratch=1, trailing=2)[0]


def scaled_masked_softmax(x: Tensor, a: float, mask: Optional[np.ndarray] = None,
                          fill: float = 0.0) -> Tensor:
    """``softmax(mask_fill(scale(x, a), mask, fill))`` as one op, bit for bit.

    Attention scores in one blocked pass and one graph node. ``mask`` is
    None or a bool array of shape ``x.shape[-2:]`` (queries, keys), the
    same for every leading index; its True entries become ``fill`` before
    the softmax and get zero gradient.
    """
    s = scaled_masked_softmax_array(x.data, a, mask, fill)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)

    def bw(g):
        def backward(sb, gb, gxb):
            (gxb,) = _softmax_backward(sb, gb, gxb)
            if mask is not None:
                np.copyto(gxb, 0.0, where=mask)
            np.multiply(gxb, a, gxb)
            return (gxb,)

        return _blocked(backward, (s, g), (s.shape,), trailing=2)

    return _make(s, "scaled-masked-softmax", (x,), bw)


def log_array(x: np.ndarray) -> np.ndarray:
    """``log``'s forward on a plain array."""
    return np.log(np.maximum(x, LOG_FLOOR))


def log(x: Tensor) -> Tensor:
    xd = x.data

    def bw(g):
        return (np.where(xd >= LOG_FLOOR, g / np.maximum(xd, LOG_FLOOR), 0.0),)

    return _make(log_array(xd), "log", (x,), bw)


def exp(x: Tensor) -> Tensor:
    e = np.exp(x.data)

    def bw(g):
        return (g * e,)

    return _make(e, "exp", (x,), bw)


def gather_array(x: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``gather``'s forward on a plain array."""
    ids = np.asarray(ids)
    if ids.shape != x.shape[:-1]:
        raise ValueError(
            f"gather: index shape {ids.shape} must match {x.shape[:-1]}"
        )
    if ids.size and (ids.min() < 0 or ids.max() >= x.shape[-1]):
        raise IndexError(
            f"gather: index out of range for last axis of size {x.shape[-1]}"
        )
    return np.take_along_axis(x, ids[..., None], axis=-1)[..., 0]


def gather(x: Tensor, ids: np.ndarray) -> Tensor:
    """Pick one entry along the last axis: out[...] = x[..., ids[...]]."""
    xd, ids = x.data, np.asarray(ids)
    picked = gather_array(xd, ids)

    def bw(g):
        gx = np.zeros_like(xd)  # takes xd's layout; in the model, softmax's rule holds xd anyway
        np.put_along_axis(gx, ids[..., None], g[..., None], axis=-1)
        return (gx,)

    return _make(picked, "gather-index", (x,), bw)


def tensor_sum(x: Tensor, axis=None) -> Tensor:
    shape = x.shape

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g, shape),)
        return (np.broadcast_to(np.expand_dims(g, axis), shape),)

    return _make(np.sum(x.data, axis=axis), "sum", (x,), bw)


def tensor_mean(x: Tensor, axis=None) -> Tensor:
    shape = x.shape
    n = x.data.size if axis is None else shape[axis]

    def bw(g):
        if axis is None:
            return (np.broadcast_to(g / n, shape),)
        return (np.broadcast_to(np.expand_dims(g, axis) / n, shape),)

    return _make(np.mean(x.data, axis=axis), "mean", (x,), bw)


def _layer_norm_forward(x: np.ndarray, w: np.ndarray, bias: np.ndarray, eps: float) -> tuple:
    """``(xhat, out, inv)``: the normalized input, the output and 1/std per row."""
    if w.shape != (x.shape[-1],) or bias.shape != (x.shape[-1],):
        raise ValueError(
            f"layer-norm: weight/bias {w.shape}/{bias.shape} "
            f"must be ({x.shape[-1]},)"
        )
    d = x.shape[-1]

    def forward(xb, xhat, out, inv):
        mu = np.add.reduce(xb, axis=-1, keepdims=True)
        mu /= d
        xhat = np.subtract(xb, mu, xhat)  # centered until scaled by inv
        out = np.multiply(xhat, xhat, out)
        var = np.add.reduce(out, axis=-1, keepdims=True)
        var /= d
        var += eps
        inv = np.divide(1.0, np.sqrt(var, var), inv)
        np.multiply(xhat, inv, xhat)
        np.multiply(w, xhat, out)
        np.add(out, bias, out)
        return xhat, out, inv

    return _blocked(forward, (x,), (x.shape, x.shape, x.shape[:-1] + (1,)))


def layer_norm_array(x: np.ndarray, w: np.ndarray, bias: np.ndarray,
                     eps: float = 1e-5) -> np.ndarray:
    """``layer_norm``'s forward on plain arrays."""
    return _layer_norm_forward(x, w, bias, eps)[1]


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d, w = x.shape[-1], weight.data
    xhat, out, inv = _layer_norm_forward(x.data, w, bias.data, eps)

    def bw(g):
        gw = _RowSum(step=_carry_leading)  # of g * xhat

        def backward(xhatb, gb, invb, gx, buf):
            dxhat = buf = np.multiply(gb, w, buf)
            m = np.add.reduce(dxhat, axis=-1, keepdims=True)
            m /= d
            gx = np.subtract(dxhat, m, gx)
            np.multiply(dxhat, xhatb, buf)
            m = np.add.reduce(buf, axis=-1, keepdims=True)
            m /= d
            np.multiply(xhatb, m, buf)
            np.subtract(gx, buf, gx)
            np.multiply(invb, gx, gx)
            gw.add(np.multiply(gb, xhatb, buf))
            return (gx,)

        (gx,) = _blocked(backward, (xhat, g, inv), (g.shape,), scratch=1)
        return (gx, gw.done(), _row_sum(g, step=_carry_leading, borrowed=True))

    return _make(out, "layer-norm", (x, weight, bias), bw)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_K = 0.044715
_GELU_3K = 3.0 * _GELU_K


def _gelu_forward(x, t, out, buf) -> tuple:
    # t = tanh(C * (x + K * ((x * x) * x))); out = (0.5 * x) * (1 + t)
    buf = np.multiply(x, x, buf)
    np.multiply(buf, x, buf)
    np.multiply(_GELU_K, buf, buf)
    np.add(x, buf, buf)
    np.multiply(_GELU_C, buf, buf)
    t = np.tanh(buf, t)
    np.multiply(0.5, x, buf)
    out = np.add(1.0, t, out)
    np.multiply(buf, out, out)
    return t, out


def _gelu_backward(x, t, g, gx, du, buf) -> tuple:
    # g * (0.5 * (1 + t) + ((0.5 * x) * (1 - t * t)) * du),
    # du = C * (1 + 3K * (x * x))
    du = np.multiply(x, x, du)
    np.multiply(_GELU_3K, du, du)
    np.add(1.0, du, du)
    np.multiply(_GELU_C, du, du)
    buf = np.multiply(t, t, buf)
    np.subtract(1.0, buf, buf)
    gx = np.multiply(0.5, x, gx)
    np.multiply(gx, buf, gx)
    np.multiply(gx, du, gx)
    np.add(1.0, t, buf)
    np.multiply(0.5, buf, buf)
    np.add(buf, gx, buf)
    np.multiply(g, buf, gx)
    return (gx,)


def gelu(x: Tensor) -> Tensor:
    """tanh-approximation GELU."""
    xd = x.data
    t, out = _blocked(_gelu_forward, (xd,), (x.shape, x.shape), scratch=1)

    def bw(g):
        return _blocked(_gelu_backward, (xd, t, g), (xd.shape,), scratch=2)

    return _make(out, "gelu", (x,), bw)


def _mlp_hidden(x, w1, b1, u, t, h, buf) -> None:
    # u = x @ w1 + b1, then gelu's t and h = gelu(u), each into its buffer
    np.matmul(x, w1, out=u)
    np.add(u, b1, u)
    _gelu_forward(u, t, h, buf)


def _mlp_blocks(x: np.ndarray, w1: np.ndarray) -> tuple:
    """The (lo, hi) row blocks of an ``mlp`` input, and a function making ``count``
    hidden-layer buffers of one block each."""
    rows, length, hidden = x.shape[0], x.shape[1], w1.shape[1]
    step = max(1, BLOCK_ELEMS // (length * hidden))

    def buffers(count):
        return [np.empty((min(step, rows), length, hidden)) for _ in range(count)]

    return [(lo, min(lo + step, rows)) for lo in range(0, rows, step)], buffers


def mlp_array(x: np.ndarray, w1: np.ndarray, b1: np.ndarray, w2: np.ndarray,
              b2: np.ndarray) -> np.ndarray:
    """``mlp``'s forward on plain arrays."""
    if x.ndim != 3:
        raise ValueError(f"mlp: input must be (batch, length, d), got {x.shape}")
    if (w1.ndim != 2 or w2.ndim != 2 or w1.shape[0] != x.shape[2]
            or w2.shape[0] != w1.shape[1]
            or b1.shape != w1.shape[1:] or b2.shape != w2.shape[1:]):
        raise ValueError(f"mlp: weights {w1.shape}, {b1.shape}, {w2.shape}, {b2.shape} "
                         f"do not fit an input of shape {x.shape}")
    blocks, buffers = _mlp_blocks(x, w1)
    out = np.empty((x.shape[0], x.shape[1], w2.shape[1]))
    u, t, h, buf = buffers(4)
    for lo, hi in blocks:
        n = hi - lo
        _mlp_hidden(x[lo:hi], w1, b1, u[:n], t[:n], h[:n], buf[:n])
        ob = np.matmul(h[:n], w2, out=out[lo:hi])
        np.add(ob, b2, ob)
    return out


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """``add(matmul(gelu(add(matmul(x, w1), b1)), w2), b2)`` as one node, bit for bit.

    ``x`` is (batch, length, d). The (batch, length, hidden) layer is never
    held whole: forward and backward run blocks of whole batch rows, at
    most BLOCK_ELEMS hidden elements each (or one row), and the node keeps
    only ``x``; backward recomputes each block's hidden layer with the same
    kernels. numpy's matmul runs one gemm per batch row, so a block's rows
    get the chain's bits, and the weight and bias gradients carry their
    sums over batch rows from block to block in row order.
    """
    xd, w1d, b1d, w2d, b2d = x.data, w1.data, b1.data, w2.data, b2.data
    out = mlp_array(xd, w1d, b1d, w2d, b2d)

    def bw(g):
        blocks, buffers = _mlp_blocks(xd, w1d)
        gx = np.empty(xd.shape)
        gw1, gb1, gw2 = _RowSum(), _RowSum(lambda rows: np.add.reduce(rows, axis=0)), _RowSum()
        u, t, h, buf, du = buffers(5)
        for lo, hi in blocks:
            n = hi - lo
            xb, gb, ub, hb = xd[lo:hi], g[lo:hi], u[:n], h[:n]
            _mlp_hidden(xb, w1d, b1d, ub, t[:n], hb, buf[:n])
            gw2.add(np.matmul(np.swapaxes(hb, -1, -2), gb))
            gh = np.matmul(gb, w2d.T, out=hb)
            # gelu's backward reads u before writing gu over it
            (gu,) = _gelu_backward(ub, t[:n], gh, ub, du[:n], buf[:n])
            np.matmul(gu, w1d.T, out=gx[lo:hi])
            gw1.add(np.matmul(np.swapaxes(xb, -1, -2), gu))
            gb1.add(gu)
        return (gx, gw1.done(), gb1.done(), gw2.done(), _unbroadcast(g, b2d.shape))

    return _make(out, "mlp", (x, w1, b1, w2, b2), bw)


def transpose(x: Tensor, axes=None) -> Tensor:
    if axes is None:
        axes = tuple(reversed(range(x.data.ndim)))
    axes = tuple(axes)

    def bw(g):
        return (np.transpose(g, np.argsort(axes)),)

    return _make(np.transpose(x.data, axes), "transpose", (x,), bw)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    old = x.shape

    def bw(g):
        return (g.reshape(old),)

    return _make(x.data.reshape(shape), "reshape", (x,), bw)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: out[...] = table[ids[...], :]."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ValueError("embedding: ids must be integers")
    if table.data.ndim != 2:
        raise ValueError(f"embedding: table must be 2-D, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(
            f"embedding: id out of range for table with {table.shape[0]} rows"
        )

    td = table.data

    def scatter(gt, ids_rows, g_rows):
        if gt is None:
            gt = np.zeros_like(td)  # takes td's layout
        np.add.at(gt, ids_rows.reshape(-1), g_rows.reshape(-1, td.shape[1]))
        return gt

    def bw(g):
        return (_row_sum(ids, g, step=scatter),)

    return _make(td[ids], "embedding-lookup", (table,), bw)


def scale(x: Tensor, a: float, shift: float = 0.0) -> Tensor:
    def bw(g):
        return (g * a,)

    return _make(a * x.data + shift, "scalar-scale", (x,), bw)


def mask_fill(x: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Replace entries where mask is True with a constant."""
    mask = np.asarray(mask, dtype=bool)
    try:
        np.broadcast_shapes(mask.shape, x.shape)
    except ValueError:
        raise ValueError(
            f"mask-fill: mask shape {mask.shape} incompatible with {x.shape}"
        ) from None

    shape = x.shape

    def bw(g):
        return (_unbroadcast(np.where(mask, 0.0, g), shape),)

    return _make(np.where(mask, value, x.data), "mask-fill", (x,), bw)


def pow_const(x: Tensor, p: float) -> Tensor:
    xd = x.data

    def bw(g):
        if p == 0.0:
            return (np.zeros_like(xd),)
        return (g * p * xd ** (p - 1.0),)

    return _make(xd**p, "pow-const", (x,), bw)


def stop_gradient(x: Tensor) -> Tensor:
    """Identity forward; the backward pass does not reach ``x`` through it.

    The result is a fresh leaf tensor (no parents, requires_grad False), so
    the traced record never visits the subgraph that produced ``x``.
    """
    return Tensor(x.data.copy())


class _RowJoin(OpNode):
    __slots__ = ("run",)


def row_join(first: Tensor, second: Tensor, run: Callable) -> Tensor:
    """``first`` and ``second`` stacked along their leading axis, the batch rows.

    The two are the outputs of the same ops on two blocks of batch rows,
    built in one graph each (``Model.forward`` runs its halves on two
    threads). ``run(fn, 0, 1)`` returns ``(fn(0), fn(1))``, running them
    where it decides, or None to have the caller run both in turn:
    ``backward`` walks each half's subgraph through it. Gradients for
    inputs without a row axis (weights, biases, tables) are sums over
    batch rows, and the halves share them as ``_RowSum``s, so every
    gradient has the bits of one graph over all the rows. No ``.grad``
    of a leaf is written until both halves are done.
    """
    out = Tensor(np.concatenate([first.data, second.data]))
    if first.requires_grad and second.requires_grad:
        rows = len(first.data)
        out.requires_grad = True
        out._node = _RowJoin("row-join", (first._node, second._node), out,
                             lambda g: (g[:rows], g[rows:]))
        out._node.run = run
    return out


def _walk(nodes: list, flow: dict, finished: Optional[dict] = None) -> list:
    """Run the backward rules of ``nodes``, topologically ordered, from ``flow``.

    ``flow`` maps an OpNode or leaf to the gradient flowing into it so
    far; each node's entry is consumed when its rule runs, and the
    leaves' entries are left. ``finished[node]`` lists (input, gradient)
    pairs that go into ``flow`` where ``node`` is reached. Returns the
    (node, input, ``_RowSum``) of each sum left open by a walk of one
    row half.
    """
    opened = []
    for node in reversed(nodes):
        if finished:
            for parent, pg in finished.pop(node, ()):
                flow[parent] = flow[parent] + pg if parent in flow else pg
        g = flow.pop(node, None)
        if g is None:
            continue
        out = node.output
        if out is not None:  # still held by the caller
            out.grad = g if out.grad is None else out.grad + g
        if type(node) is _RowJoin:
            _walk_halves(node, g, flow)
            continue
        for parent, pg in zip(node.inputs, node.backward(g)):
            if pg is None or (type(parent) is Tensor and not parent.requires_grad):
                continue
            if type(pg) is _RowSum:
                opened.append((node, parent, pg))
                continue
            flow[parent] = flow[parent] + pg if parent in flow else pg
    return opened


def _walk_halves(join: _RowJoin, g: np.ndarray, flow: dict) -> None:
    """Walk each half of ``join`` from its rows of ``g``, then add the
    gradients that leave the rows into ``flow``.

    Nothing but the row sums leaves a half, so the first half's
    subgraph, replayed on this thread with its finished sums, carries the
    rest: the nodes without a row axis that the sums flow into (the
    position-embedding lookup) run there, in the order one graph would
    run them.
    """
    halves, grads = _Halves(), join.backward(g)

    def walk(half: int) -> tuple:
        root = join.inputs[half]
        nodes, own = ComputationRecord._ops_behind(root), {root: grads[half]}
        outer, _this_thread.walk = _this_thread.walk, _HalfWalk(halves, half)
        try:
            opened = _walk(nodes, own)
        finally:
            _this_thread.walk = outer
            if half == 0:  # the second half may wait for a sum that will not come
                halves.end_first()
        if own:
            raise RuntimeError(f"row-join: a gradient left row half {half} without a row sum")
        return nodes, opened

    both = join.run(walk, 0, 1)
    (nodes, opened), _ = both if both is not None else (walk(0), walk(1))
    finished: dict = {}
    for node, parent, total in opened:
        finished.setdefault(node, []).append((parent, halves.value[total.slot]))
    _walk(nodes, flow, finished)


def backward(loss: Tensor) -> ComputationRecord:
    """Backpropagate from a scalar, accumulating into each requires_grad tensor.

    Returns the ComputationRecord that was traversed. Grads add onto any
    existing ``.grad``; reset with ``zero_grad`` between independent passes.
    Leaf grads are written last, so a rule that raises leaves them as
    they were.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    record = ComputationRecord.trace(loss)
    # Keyed by OpNode for an interior gradient and by Tensor for a leaf's;
    # neither defines __eq__, so both hash by identity.
    flow: dict = {}
    if loss.requires_grad:
        flow[loss if loss._node is None else loss._node] = np.ones_like(loss.data)
    _walk(record.nodes, flow)
    for leaf, g in flow.items():
        if leaf.grad is None:
            leaf.grad = np.array(g, dtype=np.float64)
        else:
            leaf.grad += g
    return record
