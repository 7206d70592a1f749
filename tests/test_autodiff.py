import gc
import math
import weakref
import zlib

import numpy as np
import pytest

from dftlab.autodiff import (
    ComputationRecord,
    OpNode,
    Tensor,
    add,
    backward,
    embedding,
    exp,
    gather,
    gelu,
    layer_norm,
    log,
    mask_fill,
    matmul,
    mlp,
    mul,
    pow_const,
    reshape,
    scale,
    scaled_masked_softmax,
    softmax,
    stop_gradient,
    tensor_mean,
    tensor_sum,
    transpose,
)
from helpers import check_gradients


def rnd(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


# --- forward examples ---


def test_softmax_symmetry():
    out = softmax(Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    out = softmax(Tensor(rng.standard_normal((7, 11)) * 20))
    assert np.max(np.abs(out.data.sum(axis=-1) - 1.0)) <= 1e-12


def test_matmul_identity():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 2))
    out = matmul(Tensor(np.eye(2)), Tensor(a))
    assert np.array_equal(out.data, a)


def test_log_softmax_of_zeros():
    out = log(softmax(Tensor([0.0, 0.0])))
    assert out.data[0] == pytest.approx(-0.6931471805599453, abs=1e-15)


def test_shape_mismatch_diagnostics():
    with pytest.raises(ValueError, match=r"^add: shapes \(2, 3\) and \(4, 5\)"):
        add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5)), requires_grad=True))
    with pytest.raises(ValueError, match=r"^multiply: shapes \(3,\) and \(2, 4\)"):
        mul(Tensor(np.zeros(3)), Tensor(np.zeros((2, 4))))
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(4, 5\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    weights = [Tensor(np.zeros(s)) for s in ((8, 32), (32,), (32, 8), (8,))]
    with pytest.raises(ValueError, match=r"^mlp: input must be \(batch, length, d\), "
                                         r"got \(4, 8\)$"):
        mlp(Tensor(np.zeros((4, 8))), *weights)
    with pytest.raises(ValueError, match=r"^mlp: weights .* input of shape \(2, 3, 7\)$"):
        mlp(Tensor(np.zeros((2, 3, 7))), *weights)


def test_gather_index_out_of_range():
    with pytest.raises(IndexError):
        gather(Tensor(np.zeros((2, 3))), np.array([0, 3]))
    with pytest.raises(IndexError):
        embedding(Tensor(np.zeros((4, 2))), np.array([4]))


def _softmax_by_methods(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_grad_by_methods(s, g):
    return s * (g - (g * s).sum(axis=-1, keepdims=True))


def _layer_norm_by_mean(x, w, b, eps=1e-5):
    centered = x - x.mean(axis=-1, keepdims=True)
    var = np.mean(centered * centered, axis=-1, keepdims=True)
    return w * (centered * (1.0 / np.sqrt(var + eps))) + b


def _layer_norm_grads_by_mean(x, w, g, eps=1e-5):
    centered = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(np.mean(centered * centered, axis=-1, keepdims=True) + eps)
    xhat = centered * inv
    dxhat = g * w
    term = dxhat - dxhat.mean(axis=-1, keepdims=True)
    term -= xhat * np.mean(dxhat * xhat, axis=-1, keepdims=True)
    axes = tuple(range(g.ndim - 1))
    return inv * term, (g * xhat).sum(axis=axes), g.sum(axis=axes)


GELU_C, GELU_K = math.sqrt(2.0 / math.pi), 0.044715


def _gelu_by_formula(x):
    t = np.tanh(GELU_C * (x + GELU_K * (x * x * x)))
    return 0.5 * x * (1.0 + t)


def _gelu_grad_by_formula(x, g):
    t = np.tanh(GELU_C * (x + GELU_K * (x * x * x)))
    du = GELU_C * (1.0 + 3.0 * GELU_K * (x * x))
    return g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)


def _grads(f, g, *arrays):
    """f's output and the grads its inputs get when the output's grad is g."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    out = f(*leaves)
    backward(mul(out, Tensor(g)).sum())
    return out.data, [t.grad for t in leaves]


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


BLOCK = 1 << 15  # autodiff.BLOCK_ELEMS, spelled out so a change to it shows here


@pytest.mark.parametrize("shape,order", [
    ((12, 1, 32), None),
    ((32, 47, 32), None),
    ((3, 2, 1, 9), None),
    ((32, 6, 12), (2, 1, 0)),
    ((151, 217), None),
    ((1024, 32), None),
    ((99, 331), None),
    ((7, 97, 211), None),
    ((300, 1, 130), None),
    ((16, 2, 20, 57), None),
], ids=["decode-step", "train-batch", "attention", "transposed-view", "block-minus-1",
        "block", "block-plus-1", "ragged-blocks", "decode-step-rows", "prefill-mask"])
def test_reduction_forwards_keep_the_bits_of_the_mean_max_sum_formulas(shape, order):
    # The blocked kernels (gelu, softmax, layer_norm and the fused attention
    # softmax, forward and backward) must give the bits of the plain
    # formulas on every size and layout: below, at and just past one block,
    # several blocks with a ragged tail, a decode step (rows, 1, n) and a
    # prefill whose mask is (t, start + t). The formulas' .mean/.max/.sum
    # run the same loops as the ufunc reductions the kernels call.
    assert BLOCK - 1 == 151 * 217 and BLOCK == 1024 * 32 and BLOCK + 1 == 99 * 331
    rng = np.random.default_rng(11)
    x = rng.standard_normal(shape) * 3.0
    if order is not None:
        x = x.transpose(order)
        assert not x.flags.c_contiguous
    g = rng.standard_normal(x.shape)
    w, b = rng.standard_normal(x.shape[-1]), rng.standard_normal(x.shape[-1])

    out, (gx, gw, gb) = _grads(layer_norm, g, x, w, b)
    assert _bits(out) == _bits(_layer_norm_by_mean(x, w, b))
    assert [_bits(a) for a in (gx, gw, gb)] == [
        _bits(a) for a in _layer_norm_grads_by_mean(x, w, g)]

    s, (gx,) = _grads(softmax, g, x)
    assert _bits(s) == _bits(_softmax_by_methods(x))
    assert _bits(gx) == _bits(_softmax_grad_by_methods(s, g))

    out, (gx,) = _grads(gelu, g, x)
    assert _bits(out) == _bits(_gelu_by_formula(x))
    assert _bits(gx) == _bits(_gelu_grad_by_formula(x, g))

    t, n = x.shape[-2:]
    causal = ~np.tril(np.ones((t, n), dtype=bool), k=n - t)
    for mask in (None, causal):
        fused, (gx,) = _grads(lambda z: scaled_masked_softmax(z, 0.25, mask, -1e30), g, x)

        def composed(z):
            z = scale(z, 0.25)
            return softmax(z if mask is None else mask_fill(z, mask, -1e30))

        want, (want_gx,) = _grads(composed, g, x)
        assert _bits(fused) == _bits(want)
        assert _bits(gx) == _bits(want_gx)


def _mlp_chain(x, w1, b1, w2, b2):
    return add(matmul(gelu(add(matmul(x, w1), b1)), w2), b2)


@pytest.mark.parametrize("shape", [
    (7, 32, 32),
    (8, 32, 32),
    (9, 32, 32),
    (21, 32, 32),
    (40, 1, 32),
    (243, 6, 8),
], ids=["block-minus-1-row", "block", "block-plus-1-row", "ragged-blocks", "decode-step",
        "oracle"])
def test_mlp_keeps_the_bits_of_the_unfused_chain(shape):
    # A (b, 32, 32) input has 32 * 128 hidden elements a row, so 8 rows make
    # a block: below, at and just past one block, then blocks of 8, 8 and 5.
    # The oracles' (243, 6, 8) runs as blocks of 170 and 73 rows.
    assert BLOCK == 8 * 32 * 128
    rng = np.random.default_rng(5)
    d = shape[-1]
    arrays = (rng.standard_normal(shape), rng.standard_normal((d, 4 * d)) / math.sqrt(d),
              rng.standard_normal(4 * d), rng.standard_normal((4 * d, d)) / math.sqrt(4 * d),
              rng.standard_normal(d))
    g = rng.standard_normal(shape)
    out, grads = _grads(mlp, g, *arrays)
    want, want_grads = _grads(_mlp_chain, g, *arrays)
    assert _bits(out) == _bits(want)
    assert [_bits(a) for a in grads] == [_bits(a) for a in want_grads]


# --- backward basics ---


def test_backward_sum_gives_ones():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    backward(x.sum())
    assert np.array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_softmax_ce_gradient():
    z = Tensor([0.0, 0.0], requires_grad=True)
    loss = scale(log(gather(softmax(reshape(z, (1, 2))), np.array([0]))), -1.0).sum()
    backward(loss)
    assert np.allclose(z.grad, [-0.5, 0.5], atol=1e-12)


def test_backward_rejects_non_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        backward(scale(x, 2.0))


def test_backward_accumulates_until_reset():
    x = Tensor([1.0, 2.0], requires_grad=True)
    backward(x.sum())
    backward(x.sum())
    assert np.array_equal(x.grad, [2.0, 2.0])
    x.zero_grad()
    backward(x.sum())
    assert np.array_equal(x.grad, [1.0, 1.0])


def test_record_is_topologically_ordered():
    x = Tensor([1.0, 2.0], requires_grad=True)
    a = scale(x, 2.0)
    b = exp(x)
    c = mul(a, b)
    loss = c.sum()
    record = ComputationRecord.trace(loss)
    seen = set()
    for node in record:
        for parent in node.inputs:
            # a parent is an earlier node, or a leaf tensor (one with no node)
            if isinstance(parent, OpNode):
                assert id(parent) in seen
            else:
                assert isinstance(parent, Tensor) and parent._node is None
        seen.add(id(node))
    assert len({id(n) for n in record}) == len(record) == 4


def test_graph_is_freed_without_the_cyclic_collector():
    rng = np.random.default_rng(3)
    w = rnd(rng, 4, 3)
    x = Tensor(rng.standard_normal((5, 4)))
    gc.disable()
    try:
        hidden = gelu(matmul(x, w))
        loss = tensor_mean(softmax(hidden))
        record = backward(loss)
        node = next(n for n in record if n.op == "gelu")
        assert node.output is hidden
        probe = weakref.ref(hidden)
        del hidden, node
        assert probe() is None  # softmax's node names gelu's node, not its output
        del loss, record
        assert probe() is None
        assert w.grad is not None
    finally:
        gc.enable()


def _attention_loss(x, wq, wk, causal, keep):
    """A one-head attention loss; ``keep`` collects the interior tensors
    the caller is to hold, by name."""
    pre = matmul(x, wq)
    q = add(pre, Tensor(np.full(wq.shape[-1], 0.25)))
    scores = matmul(q, transpose(matmul(x, wk), (1, 0)))
    att = scaled_masked_softmax(scores, 0.5, causal, -1e30)
    keep.update(pre=pre, scores=scores, att=att)
    return tensor_mean(matmul(att, x))


def _attention_inputs():
    rng = np.random.default_rng(11)
    x, wq, wk = (rnd(rng, *shape) for shape in ((5, 4), (4, 3), (4, 3)))
    return x, wq, wk, ~np.tril(np.ones((5, 5), dtype=bool))


def test_dropped_interior_tensor_no_rule_reads_is_freed_before_backward():
    # add reads only its inputs' shapes and the fused softmax only its
    # output, so the pre-bias matmul output and the attention scores, with
    # their arrays, go as soon as the caller drops them
    x, wq, wk, causal = _attention_inputs()
    gc.disable()
    try:
        keep = {}
        loss = _attention_loss(x, wq, wk, causal, keep)
        probes = {name: (weakref.ref(keep[name]), weakref.ref(keep[name].data))
                  for name in ("pre", "scores")}
        keep.clear()
        for name, (tensor, array) in probes.items():
            assert tensor() is None, name
            assert array() is None, name
        backward(loss)
        assert all(t.grad is not None for t in (x, wq, wk))
    finally:
        gc.enable()


def test_held_interior_tensor_receives_grad_and_leaf_grads_keep_their_bits():
    x, wq, wk, causal = _attention_inputs()
    keep = {}
    backward(_attention_loss(x, wq, wk, causal, keep))
    held = [keep[name].grad for name in ("pre", "scores", "att")]
    leaves_held = [_bits(t.grad) for t in (x, wq, wk)]
    assert all(g is not None and g.shape == keep[name].shape
               for g, name in zip(held, ("pre", "scores", "att")))

    x2, wq2, wk2, _ = _attention_inputs()
    backward(_attention_loss(x2, wq2, wk2, causal, {}))
    assert [_bits(t.grad) for t in (x2, wq2, wk2)] == leaves_held
    # att's gradient is d mean(att @ x) / d att
    np.testing.assert_allclose(held[2], np.full((5, 4), 1.0 / 20) @ x.data.T, rtol=1e-14)


# --- stop gradient ---


def test_stop_gradient_forward_is_bitwise_identity():
    rng = np.random.default_rng(2)
    x = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
    y = stop_gradient(x)
    assert np.array_equal(
        x.data.view(np.uint64), y.data.view(np.uint64)
    )


def test_stop_gradient_blocks_flow():
    # d/dx [sg(x) * (-log x)] at 0.5 is 0.5 * (-1/0.5) = -1.0
    x = Tensor([0.5], requires_grad=True)
    loss = mul(stop_gradient(x), scale(log(x), -1.0)).sum()
    backward(loss)
    assert x.grad[0] == pytest.approx(-1.0, abs=1e-12)

    # fully differentiable x * (-log x): product rule gives -log 0.5 - 1
    x2 = Tensor([0.5], requires_grad=True)
    backward(mul(x2, scale(log(x2), -1.0)).sum())
    assert x2.grad[0] == pytest.approx(-math.log(0.5) - 1.0, abs=1e-12)


def test_stop_gradient_times_function_rule():
    # For f = sg(x) * g(x), df/dx must equal x * g'(x) with g(x) = exp(a x).
    rng = np.random.default_rng(3)
    for _ in range(20):
        xv = float(rng.uniform(0.2, 2.0))
        a = float(rng.uniform(-1.5, 1.5))
        x = Tensor([xv], requires_grad=True)
        f = mul(stop_gradient(x), exp(scale(x, a))).sum()
        backward(f)
        expected = xv * a * math.exp(a * xv)
        assert x.grad[0] == pytest.approx(expected, abs=1e-10)


# --- finite-difference checks for every primitive ---

N_INSTANCES = 50


def _const(rng, *shape):
    # fixed multiplier so the checked function is pure in its inputs
    return Tensor(rng.standard_normal(shape))


def _fd_cases():
    def two(rng):
        return rnd(rng, 3, 4), rnd(rng, 3, 4)

    def softmax_case(rng):
        c = _const(rng, 3, 4)
        return lambda a: mul(softmax(a), c).sum(), (rnd(rng, 3, 4),)

    def mean_axis_case(rng):
        c = _const(rng, 4)
        return lambda a: mul(tensor_mean(a, axis=0), c).sum(), (rnd(rng, 3, 4),)

    def layer_norm_case(rng):
        c = _const(rng, 3, 4)
        return (
            lambda x, w, b: mul(layer_norm(x, w, b), c).sum(),
            (rnd(rng, 3, 4), rnd(rng, 4), rnd(rng, 4)),
        )

    def scaled_masked_softmax_case(rng):
        c = _const(rng, 2, 3, 4)
        causal = ~np.tril(np.ones((3, 4), dtype=bool), k=1)
        return (
            lambda a: mul(scaled_masked_softmax(a, 0.7, causal, -1e30), c).sum(),
            (rnd(rng, 2, 3, 4),),
        )

    def transpose_case(rng):
        c = _const(rng, 4, 3)
        return lambda a: mul(transpose(a, (1, 0)), c).sum(), (rnd(rng, 3, 4),)

    def transpose_3d_case(rng):
        # (1, 2, 0) is not its own inverse, unlike every 2-D permutation
        c = _const(rng, 3, 4, 2)
        return lambda a: mul(transpose(a, (1, 2, 0)), c).sum(), (rnd(rng, 2, 3, 4),)

    def reshape_case(rng):
        c = _const(rng, 2, 6)
        return lambda a: mul(reshape(a, (2, 6)), c).sum(), (rnd(rng, 3, 4),)

    def embedding_case(rng):
        c = _const(rng, 2, 2, 4)
        ids = np.array([[0, 2], [2, 1]])
        return lambda t: mul(embedding(t, ids), c).sum(), (rnd(rng, 3, 4),)

    cases = {
        "add": lambda rng: (lambda a, b: add(a, b).sum(), two(rng)),
        "add-broadcast": lambda rng: (
            lambda a, b: add(a, b).sum(),
            (rnd(rng, 3, 4), rnd(rng, 4)),
        ),
        "multiply": lambda rng: (lambda a, b: mul(a, b).sum(), two(rng)),
        "matmul": lambda rng: (
            lambda a, b: matmul(a, b).sum(),
            (rnd(rng, 3, 4), rnd(rng, 4, 2)),
        ),
        "matmul-batched": lambda rng: (
            lambda a, b: matmul(a, b).sum(),
            (rnd(rng, 2, 3, 4), rnd(rng, 4, 2)),
        ),
        "softmax-rowwise": softmax_case,
        "scaled-masked-softmax": scaled_masked_softmax_case,
        "log": lambda rng: (
            lambda a: log(a).sum(),
            (Tensor(rng.uniform(0.1, 2.0, (3, 4)), requires_grad=True),),
        ),
        "exp": lambda rng: (lambda a: exp(a).sum(), (rnd(rng, 3, 4),)),
        "gather-index": lambda rng: (
            lambda a: gather(a, np.array([1, 3, 0])).sum(),
            (rnd(rng, 3, 4),),
        ),
        "sum-axis": lambda rng: (
            lambda a: mul(tensor_sum(a, axis=1), Tensor([1.0, -2.0, 0.5])).sum(),
            (rnd(rng, 3, 4),),
        ),
        "mean": lambda rng: (lambda a: tensor_mean(a), (rnd(rng, 3, 4),)),
        "mean-axis": mean_axis_case,
        "layer-norm": layer_norm_case,
        "gelu": lambda rng: (lambda a: gelu(a).sum(), (rnd(rng, 3, 4),)),
        "transpose": transpose_case,
        "transpose-3d": transpose_3d_case,
        "reshape": reshape_case,
        "embedding-lookup": embedding_case,
        "scalar-scale": lambda rng: (
            lambda a: scale(a, 1.7, shift=-0.3).sum(),
            (rnd(rng, 3, 4),),
        ),
        "mask-fill": lambda rng: (
            lambda a: mask_fill(a, np.array([[True, False, False, True]] * 3), 5.0).sum(),
            (rnd(rng, 3, 4),),
        ),
        "pow-const": lambda rng: (
            lambda a: pow_const(a, 2.5).sum(),
            (Tensor(rng.uniform(0.2, 2.0, (3, 4)), requires_grad=True),),
        ),
    }
    return cases


@pytest.mark.parametrize("name", sorted(_fd_cases().keys()))
def test_primitive_matches_finite_differences(name):
    make = _fd_cases()[name]
    worst = 0.0
    base = zlib.crc32(name.encode())  # stable across processes
    for i in range(N_INSTANCES):
        rng = np.random.default_rng(1000 * base + i)
        f, tensors = make(rng)
        worst = max(worst, check_gradients(lambda: f(*tensors), tensors))
    assert worst <= 1e-5, f"{name}: max relative error {worst}"


def test_pow_zero_exponent_is_exact_one():
    x = Tensor([0.3, 0.9], requires_grad=True)
    y = pow_const(x, 0.0)
    assert np.array_equal(y.data, [1.0, 1.0])
    backward(y.sum())
    assert np.array_equal(x.grad, [0.0, 0.0])


def test_log_clamps_at_floor():
    x = Tensor([1e-30, 0.5])
    out = log(x)
    assert out.data[0] == math.log(1e-12)
    assert np.isfinite(out.data).all()


def test_interior_requires_grad_tensor_receives_grad():
    x = Tensor([2.0], requires_grad=True)
    y = exp(x)
    backward(y.sum())
    assert y.grad is not None and y.grad[0] == 1.0
    assert x.grad[0] == pytest.approx(math.exp(2.0))


def test_grad_flows_through_both_uses_of_same_tensor():
    x = Tensor([1.5], requires_grad=True)
    backward(mul(x, x).sum())
    assert x.grad[0] == pytest.approx(3.0)
