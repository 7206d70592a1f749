import math

import numpy as np
import pytest

from dftlab.autodiff import Tensor, backward, exp, gather, log, mul, reshape, scale, softmax
from dftlab.losses import (
    LossSpec,
    _weight,
    compute_loss,
    dft_sequence_loss,
    dft_token_loss,
    focal_loss,
    iw_sft_loss,
    sft_loss,
)
from dftlab.model import Model, ModelConfig
from dftlab.theory import dft_token_reference_grad
from helpers import analytic_gradients, directional_fd, vec_rel_err


def lp(*values):
    return Tensor(np.log(np.array(values, dtype=np.float64)), requires_grad=True)


def softmax_logp(z, targets):
    """Log probs of targets under softmax(z) rows, differentiable in z."""
    probs = softmax(reshape(z, (len(targets), -1)))
    return log(gather(probs, np.asarray(targets)))


# --- sft ---


def test_sft_mean_of_half_probs():
    assert sft_loss(lp(0.5, 0.5)).item() == pytest.approx(0.6931471805599453, abs=1e-12)


def test_sft_prob_one_contributes_zero():
    assert sft_loss(lp(1.0, 1.0)).item() == 0.0


def test_sft_mask_excludes_tokens():
    loss = sft_loss(lp(0.5, 0.25), mask=np.array([False, True]))
    assert loss.item() == pytest.approx(-math.log(0.25), abs=1e-12)  # 1.3863
    with pytest.raises(ValueError, match="unmasked"):
        sft_loss(lp(0.5, 0.25), mask=np.array([False, False]))


def test_sft_sum_reduction():
    loss = sft_loss(lp(0.5, 0.25), reduction="sum")
    assert loss.item() == pytest.approx(-math.log(0.5) - math.log(0.25), abs=1e-12)


# --- dft token ---


def test_dft_token_value_and_logit_gradient():
    z = Tensor([0.0, 0.0], requires_grad=True)
    loss = dft_token_loss(softmax_logp(z, [0]))
    assert loss.item() == pytest.approx(0.5 * 0.6931471805599453, abs=1e-12)  # 0.3466
    backward(loss)
    assert np.allclose(z.grad, [-0.25, 0.25], atol=1e-12)


def test_dft_token_fd_cross_check():
    # FD runs on the frozen-weight surrogate: stop-gradient means the loss
    # gradient equals the gradient of sum(-w0 * logp) with w0 = p at the
    # evaluation point, held fixed while perturbing.
    rng = np.random.default_rng(5)
    z = Tensor(rng.standard_normal(8), requires_grad=True)
    f = lambda: dft_token_loss(softmax_logp(z, [2, 3]))
    (an,) = analytic_gradients(f, [z])
    w0 = np.exp(softmax_logp(z, [2, 3]).data)
    frozen = lambda: mul(Tensor(-w0 / len(w0)), softmax_logp(z, [2, 3])).sum()
    d = rng.standard_normal(8)
    fd = directional_fd(frozen, [z], [d])
    assert abs(float(an @ d) - fd) <= 1e-5 * max(1.0, abs(fd))


def test_dft_token_prob_one_zero_loss_and_grad():
    z = Tensor([60.0, -60.0], requires_grad=True)
    loss = dft_token_loss(softmax_logp(z, [0]))
    assert loss.item() == pytest.approx(0.0, abs=1e-20)
    backward(loss)
    assert np.max(np.abs(z.grad)) <= 1e-20


def test_dft_token_maximum_at_one_over_e():
    loss = dft_token_loss(Tensor(np.array([-1.0]), requires_grad=True))
    assert loss.item() == pytest.approx(1.0 / math.e, abs=1e-15)


# --- dft sequence ---


def test_dft_sequence_two_tokens():
    loss = dft_sequence_loss(lp(0.5, 0.5), reduction="sum")
    assert loss.item() == pytest.approx(0.25 * 2 * 0.6931471805599453, abs=1e-12)


def test_dft_sequence_all_ones_zero():
    assert dft_sequence_loss(lp(1.0, 1.0, 1.0)).item() == 0.0


def test_dft_sequence_long_sequence_underflows_to_zero():
    # 100 tokens at p=0.5: weight 2^-100 ~ 7.9e-31, loss shrinks toward 0;
    # far longer sequences flush the weight (and loss) to exactly 0.
    logp = Tensor(np.full(100, math.log(0.5)), requires_grad=True)
    loss = dft_sequence_loss(logp, reduction="sum")
    expect = math.exp(100 * math.log(0.5)) * (100 * math.log(2.0))
    assert loss.item() == pytest.approx(expect, rel=1e-12)
    assert loss.item() < 1e-28

    huge = Tensor(np.full(5000, math.log(0.5)))
    assert dft_sequence_loss(huge, reduction="sum").item() == 0.0


def test_dft_sequence_weight_detached():
    rng = np.random.default_rng(6)
    z = Tensor(rng.standard_normal(8), requires_grad=True)
    f = lambda: dft_sequence_loss(softmax_logp(z, [1, 3]), reduction="sum")
    (an,) = analytic_gradients(f, [z])
    d = rng.standard_normal(8)
    fd = directional_fd(f, [z], [d])
    # the detached weight makes the analytic grad differ from the full FD
    # derivative of the value; instead it must equal W * grad(sum -logp)
    logp = softmax_logp(z, [1, 3])
    w = float(np.exp(logp.data.sum()))
    z.zero_grad()
    backward(scale(sft_loss(softmax_logp(z, [1, 3]), reduction="sum"), w))
    assert np.allclose(an, z.grad, atol=1e-12)
    assert not np.isclose(float(an @ d), fd, rtol=1e-3)


# --- focal ---


def test_focal_gamma_zero_equals_sft():
    rng = np.random.default_rng(7)
    for _ in range(10):
        logp = Tensor(np.log(rng.uniform(0.01, 1.0, 5)), requires_grad=True)
        a = focal_loss(logp, gamma=0.0)
        b = sft_loss(logp)
        assert abs(a.item() - b.item()) <= 1e-12


def test_focal_value_example():
    loss = focal_loss(Tensor([math.log(0.9)]), gamma=2.0)
    assert loss.item() == pytest.approx(0.0010536051565782628, abs=1e-15)


def test_focal_prob_one_zero_for_any_gamma():
    for gamma in (0.0, 0.5, 2.0, 5.0):
        assert focal_loss(lp(1.0), gamma=gamma).item() == 0.0


def test_focal_weight_is_differentiable():
    rng = np.random.default_rng(8)
    z = Tensor(rng.standard_normal(4), requires_grad=True)
    f = lambda: focal_loss(softmax_logp(z, [1]), gamma=2.0)
    (an,) = analytic_gradients(f, [z])
    d = rng.standard_normal(4)
    fd = directional_fd(f, [z], [d])
    assert abs(float(an @ d) - fd) <= 1e-5 * max(1.0, abs(fd))


# --- iw-sft ---


def test_iw_sft_reference_equals_self_is_sft():
    logp = lp(0.3, 0.7, 0.1)
    a = iw_sft_loss(logp, logp.data.copy())
    b = sft_loss(logp)
    assert abs(a.item() - b.item()) <= 1e-12


def test_iw_sft_clipping():
    # p=0.8 vs ref 0.2 gives ratio 4, clipped to 2
    loss = iw_sft_loss(lp(0.8), np.array([math.log(0.2)]), iw_clip=2.0)
    assert loss.item() == pytest.approx(2.0 * -math.log(0.8), abs=1e-12)


def test_iw_sft_downweighting():
    loss = iw_sft_loss(lp(0.1), np.array([math.log(0.5)]))
    assert loss.item() == pytest.approx(0.2 * -math.log(0.1), abs=1e-12)  # 0.4605


def test_iw_sft_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="shape"):
        iw_sft_loss(lp(0.5, 0.5), np.array([0.0]))


# --- batched reduction semantics ---


def test_batched_mean_is_per_sequence_then_batch():
    logp = Tensor(np.log([[0.5, 0.5, 1.0], [0.25, 1.0, 1.0]]))
    mask = np.array([[True, True, False], [True, False, False]])
    got = sft_loss(logp, mask=mask).item()
    expect = 0.5 * (math.log(2.0) + math.log(4.0))
    assert got == pytest.approx(expect, abs=1e-12)


def test_batched_dft_sequence_weights_per_row():
    logp = Tensor(np.log([[0.5, 0.5], [0.1, 1.0]]))
    got = dft_sequence_loss(logp, reduction="sum").item()
    expect = 0.5 * (0.25 * 2 * math.log(2.0) + 0.1 * -math.log(0.1))
    assert got == pytest.approx(expect, abs=1e-12)


# --- shared properties ---


def test_losses_nonnegative():
    rng = np.random.default_rng(9)
    for _ in range(20):
        logp = Tensor(np.log(rng.uniform(1e-6, 1.0, 8)), requires_grad=True)
        ref = np.log(rng.uniform(1e-6, 1.0, 8))
        assert sft_loss(logp).item() >= 0
        assert dft_token_loss(logp).item() >= 0
        assert dft_sequence_loss(logp).item() >= 0
        assert focal_loss(logp, gamma=rng.uniform(0, 4)).item() >= 0
        assert iw_sft_loss(logp, ref).item() >= 0


def test_sum_reduction_permutation_invariant():
    rng = np.random.default_rng(10)
    vals = np.log(rng.uniform(0.01, 1.0, 6))
    perm = rng.permutation(6)
    for fn in (sft_loss, dft_token_loss, dft_sequence_loss):
        a = fn(Tensor(vals), reduction="sum").item()
        b = fn(Tensor(vals[perm]), reduction="sum").item()
        assert a == pytest.approx(b, rel=1e-12)


# --- gradient identities on real models ---


def tiny_model(seed, vocab=6, d=12):
    return Model(ModelConfig(vocab_size=vocab, d_model=d, n_layers=1, n_heads=2,
                             context_length=12, seed=seed))


def test_dft_gradient_equals_scaled_sft_reference():
    # Eq-level contract: grad(dft_token) == per-token p_t-scaled SFT grads
    rng = np.random.default_rng(11)
    for trial in range(20):
        model = tiny_model(trial)
        prompt = list(rng.integers(2, 6, size=2))
        response = list(rng.integers(0, 6, size=3))
        model.zero_grad()
        backward(dft_token_loss(model.token_log_probs(prompt, response)))
        got = model.flat_grad()
        ref = dft_token_reference_grad(model, prompt, response)
        assert vec_rel_err(got, ref) <= 1e-10


def test_dft_gradient_matches_finite_differences():
    rng = np.random.default_rng(12)
    for trial in range(5):
        model = tiny_model(100 + trial)
        prompt = list(rng.integers(2, 6, size=2))
        response = list(rng.integers(0, 6, size=3))
        model.zero_grad()
        backward(dft_token_loss(model.token_log_probs(prompt, response)))
        flat = model.flat_grad()
        # frozen-weight surrogate (see test_dft_token_fd_cross_check)
        w0 = np.exp(model.token_log_probs(prompt, response).data)
        frozen = lambda: mul(
            Tensor(-w0 / len(w0)), model.token_log_probs(prompt, response)
        ).sum()
        params = [t for _, t in model.named_parameters()]
        dirs = [rng.standard_normal(t.data.shape) for t in params]
        fd = directional_fd(frozen, params, dirs)
        an = float(sum((t.grad * d).sum() for t, d in zip(params, dirs)))
        assert abs(an - fd) <= 1e-5 * max(1.0, abs(fd), abs(an))
        assert flat.size == model.num_params()


def test_stop_gradient_separation():
    # grad(dft) + grad(removed product-rule term) == grad(fully diff -p log p)
    rng = np.random.default_rng(13)
    for trial in range(20):
        n = int(rng.integers(2, 6))
        v = int(rng.integers(3, 7))
        z = Tensor(rng.standard_normal(n * v), requires_grad=True)
        targets = list(rng.integers(0, v, size=n))

        def logp():
            return log(gather(softmax(reshape(z, (n, v))), np.asarray(targets)))

        z.zero_grad()
        backward(dft_token_loss(logp()))
        g_dft = z.grad.copy()

        # removed term: coefficient (-p_t log p_t) detached, applied to logp
        base = logp()
        coeff = -(np.exp(base.data) * base.data)
        z.zero_grad()
        backward(mul(Tensor(coeff), logp()).mean())
        g_removed = z.grad.copy()

        # fully differentiable -p log p with the same mean reduction
        z.zero_grad()
        full = logp()
        backward(mul(exp(full), scale(full, -1.0)).mean())
        g_full = z.grad.copy()

        assert np.max(np.abs(g_dft + g_removed - g_full)) <= 1e-10


# --- the weight table ---


def weight(spec, logp, ref=None):
    """``_weight`` over one sequence with every token unmasked."""
    logp = logp if isinstance(logp, Tensor) else Tensor(logp)
    return _weight(spec, logp, np.ones(logp.shape, dtype=bool), ref)


def test_diagnostics_effective_weights():
    logp = np.log([0.3, 0.5])
    assert weight(LossSpec(kind="dft_token"), logp).data == pytest.approx([0.3, 0.5], rel=1e-12)
    assert weight(LossSpec(kind="dft_sequence"), logp) == pytest.approx(0.15, rel=1e-12)
    df = weight(LossSpec(kind="focal", gamma=2.0), logp)
    assert df.data == pytest.approx([0.49, 0.25], rel=1e-12)


@pytest.mark.parametrize("kind", ["sft", "dft_token", "dft_sequence", "iw_sft"])
def test_loss_gradient_is_minus_the_diagnosed_weight(kind):
    rng = np.random.default_rng(15)
    logp = Tensor(np.log(rng.uniform(0.05, 1.0, 7)), requires_grad=True)
    ref = logp.data + rng.uniform(-1.0, 1.0, 7) if kind == "iw_sft" else None
    spec = LossSpec(kind=kind, reduction="sum", iw_clip=1.2 if ref is not None else None)
    backward(compute_loss(spec, logp, reference_log_probs=ref))
    eff = weight(spec, logp, ref)
    eff = eff.data if isinstance(eff, Tensor) else eff  # dft_sequence: one weight per row
    assert np.max(np.abs(logp.grad + eff)) <= 1e-15
    if kind == "iw_sft":
        assert 0 < eff.min() < eff.max() == 1.2  # the ratio is clipped somewhere


def test_diagnostics_iw_sft_needs_reference_log_probs():
    logp = np.log([0.2, 0.9])
    w = weight(LossSpec(kind="iw_sft", iw_clip=2.0), logp, np.log([0.4, 0.3]))
    assert w.data == pytest.approx([0.5, 2.0], rel=1e-12)
    with pytest.raises(ValueError, match="reference"):
        weight(LossSpec(kind="iw_sft"), logp)


# --- spec plumbing ---


def test_loss_spec_validation():
    with pytest.raises(ValueError, match="gamma"):
        LossSpec(kind="sft", gamma=1.0)
    with pytest.raises(ValueError, match="gamma"):
        LossSpec(kind="focal")
    with pytest.raises(ValueError, match="iw_clip"):
        LossSpec(kind="sft", iw_clip=2.0)
    with pytest.raises(ValueError, match="kind"):
        LossSpec(kind="nonsense")
    assert LossSpec(kind="iw_sft").iw_clip == 4.0


def test_compute_loss_dispatch():
    logp = lp(0.5, 0.5)
    assert compute_loss(LossSpec(kind="sft"), logp).item() == pytest.approx(
        math.log(2.0), abs=1e-12
    )
    got = compute_loss(LossSpec(kind="iw_sft"), logp,
                       reference_log_probs=logp.data.copy())
    assert got.item() == pytest.approx(math.log(2.0), abs=1e-12)
    with pytest.raises(ValueError, match="reference"):
        compute_loss(LossSpec(kind="iw_sft"), logp)
