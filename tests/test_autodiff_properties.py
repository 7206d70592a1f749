"""Property tests for how ``backward`` stores gradients.

Leaf grads are writable arrays of the leaf's shape; two leaves never
share one, and a gradient handed to two inputs is never summed into in
place; and a graph can be backpropagated again with the same result. Examples are derandomized so the suite stays deterministic.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dftlab.autodiff import Tensor, add, backward, mul, tensor_mean, tensor_sum

FUZZ = settings(derandomize=True, deadline=None, max_examples=60)

shape_pairs = hnp.mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=3,
                                                max_side=3)
shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=3)


def leaves(*shapes, seed=0):
    rng = np.random.default_rng(seed)
    return [Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]


def fold(a, shape):
    """Sum ``a`` over every axis that broadcasting stretched ``shape`` along."""
    padded = (1,) * (a.ndim - len(shape)) + tuple(shape)
    axes = tuple(i for i, n in enumerate(padded) if n == 1 and a.shape[i] != 1)
    return a.sum(axis=axes, keepdims=True).reshape(shape)


@FUZZ
@given(pair=shape_pairs, op=st.sampled_from(["add", "mul"]),
       reduce=st.sampled_from(["sum", "mean"]), data=st.data())
def test_broadcast_grads_match_the_closed_form(pair, op, reduce, data):
    (xs, ys), out = pair.input_shapes, pair.result_shape
    axis = data.draw(st.none() | st.integers(-len(out), len(out) - 1)
                     if out else st.none())
    x, y = leaves(xs, ys)
    z = add(x, y) if op == "add" else mul(x, y)
    r = tensor_sum(z, axis=axis) if reduce == "sum" else tensor_mean(z, axis=axis)
    backward(r if axis is None else tensor_sum(r))
    n = 1 if reduce == "sum" else (int(np.prod(out)) if axis is None else out[axis])
    upstream = np.full(out, 1.0 / n)
    if op == "add":
        want_x, want_y = fold(upstream, xs), fold(upstream, ys)
    else:
        want_x = fold(upstream * np.broadcast_to(y.data, out), xs)
        want_y = fold(upstream * np.broadcast_to(x.data, out), ys)
    for leaf, want in ((x, want_x), (y, want_y)):
        assert leaf.grad.shape == leaf.shape
        assert leaf.grad.flags.writeable
        np.testing.assert_allclose(leaf.grad, want, rtol=1e-12, atol=1e-15)


@FUZZ
@given(shape=shapes, through_mul=st.booleans())
def test_same_shape_leaves_get_separate_grads(shape, through_mul):
    x, y, w = leaves(shape, shape, shape, seed=1)
    s = add(x, y)
    backward(tensor_sum(mul(s, w) if through_mul else s))
    assert x.grad is not y.grad
    before = y.grad.copy()
    x.grad *= 3.0
    assert np.array_equal(y.grad, before)


@FUZZ
@given(shape=shapes, through_mul=st.booleans())
def test_a_gradient_handed_to_two_inputs_is_not_summed_into(shape, through_mul):
    x, y, w = leaves(shape, shape, shape, seed=1)
    s = add(add(x, y), x)  # x's second contribution arrives after y got the first
    backward(tensor_sum(mul(s, w) if through_mul else s))
    upstream = w.data if through_mul else np.ones(shape)
    assert np.array_equal(x.grad, 2.0 * upstream)
    assert np.array_equal(y.grad, upstream)


@FUZZ
@given(pair=shape_pairs)
def test_backward_twice_through_one_graph_repeats_the_grads(pair):
    x, y = leaves(*pair.input_shapes, seed=2)
    loss = tensor_mean(mul(add(x, y), add(mul(x, y), x)))
    backward(loss)
    first = [x.grad.copy(), y.grad.copy()]
    x.zero_grad()
    y.zero_grad()
    backward(loss)
    assert np.array_equal(x.grad, first[0])
    assert np.array_equal(y.grad, first[1])

