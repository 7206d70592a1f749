"""Oracles for the gradient-level claims behind dynamic fine-tuning.

Three facts get verified numerically rather than symbolically:

1. The cross-entropy gradient on a demonstration equals the on-policy
   expectation of indicator-reward policy gradients carrying a 1/pi(y|x)
   importance weight. ``exact_policy_expectation`` computes that
   expectation by brute force over every sequence of a fixed length and
   must land exactly on the autodiff cross-entropy gradient.
2. The score function has zero mean under the policy
   (``exact_score_function_mean``).
3. The implicit 1/pi weight blows up the estimator variance by 1/p^2
   for single-token responses (``variance_probe``), which is the paper's
   instability argument in its smallest closed form.

Every gradient expectation here is enumerated, none is sampled: each
goes through ``_weighted_grad``, which sums weight(y, pi(y|x)) *
grad log pi(y|x) over the sequences it is given. Only
``variance_probe`` draws, and it draws single tokens, not gradients.
Enumeration visits sequences in lexicographic order, in blocks of
``_BLOCK_ROWS`` rows. Each block is one batched teacher-forced forward
and one backward of the weighted sum of its rows' log pi(y|x); the
weights are read from that forward and held constant, so by linearity of
the gradient the block's backward equals the sum of its per-sequence
terms. Every sequence is still forwarded and differentiated. The block
cap bounds memory at the ``EnumerationBudget`` cap. Flat gradients use
the model's canonical parameter order.

``dft_token_reference_grad`` is deliberately not batched: it keeps one
backward per token, because the token-scaled gradient identity compares
it with the stop-gradient route, and one weighted backward would be that
route itself, leaving the check unable to fail.

``run_verification`` runs its four checks on two processes when the
process may use 2 CPUs (``parallel.on_two_processes``, which owns the
fork): the two enumerated checks, the importance-sampling identity and
the score function's zero mean, in a forked child, and the token-scaled
gradient identity and the variance probe in the caller. Each check seeds
its own models and draws, so the report keeps its order and every bit.
The checks build thousands of tiny graphs (d=8, T<=5), whose time is
Python's, not BLAS's: at the ``oracle`` benchmark grid on a 2-core box
the suite took 131-138 ms serially, 96 ms on two processes and 171 ms
split over the row helper thread instead, because two threads take
turns holding the interpreter. The variance probe stays in the caller,
so a traced run still sees its ``grad_log_prob`` spans; what the child
records is dropped with it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, backward, mul, softmax_array
from .evalreport import teacher_forced_probs
from .losses import dft_token_loss, sft_loss
from .model import Model, ModelConfig, Record, batch_token_log_probs, inverse_cdf
from .parallel import on_two_processes
from .seeding import derive_seed

# Rows per batched forward and backward in ``_weighted_grad``; bounds peak
# memory when enumerating up to the ``EnumerationBudget`` cap.
_BLOCK_ROWS = 1024


@dataclass
class EnumerationBudget:
    """Bounds for exact enumeration over all length-T sequences."""

    vocab_size: int
    horizon: int
    max_sequences: int = 10000

    def __post_init__(self):
        if self.vocab_size < 2 or self.horizon < 1:
            raise ValueError("need vocab_size >= 2 and horizon >= 1")
        if self.vocab_size**self.horizon > self.max_sequences:
            raise ValueError(
                f"{self.vocab_size}^{self.horizon} sequences exceed the "
                f"budget cap of {self.max_sequences}"
            )


def _flat_grad(model: Model, scalar: Tensor) -> np.ndarray:
    """Flat gradient of ``scalar``; the model's grads are reset around it."""
    model.zero_grad()
    backward(scalar)
    g = model.flat_grad()
    model.zero_grad()
    return g


def grad_log_prob(model: Model, prompt, sequence) -> tuple:
    """(log pi(y|x), flat gradient of log pi(y|x)) for one sequence."""
    logp = model.token_log_probs(prompt, list(sequence)).sum()
    return float(logp.data), _flat_grad(model, logp)


def _weighted_grad(model: Model, prompt, sequences, weight_fn) -> np.ndarray:
    """Sum over y in ``sequences`` of weight_fn(y, pi(y|x)) * grad log pi(y|x).

    Each block of up to ``_BLOCK_ROWS`` same-length sequences takes one
    forward over its prompt+sequence rows and one backward of
    sum_y w_y * log pi(y|x), with the weights computed from the forward's
    values and held constant.
    """
    prompt = [int(t) for t in prompt]
    if not prompt or not all(sequences):
        raise ValueError("need a non-empty prompt and non-empty sequences")
    start = len(prompt) - 1  # first response position of the shifted log-probs
    total = np.zeros(model.num_params())
    for lo in range(0, len(sequences), _BLOCK_ROWS):
        block = sequences[lo:lo + _BLOCK_ROWS]
        ids = np.array([prompt + list(y) for y in block], dtype=np.int64)
        logp = batch_token_log_probs(model, ids)
        log_pi = logp.data[:, start:].sum(axis=1)
        weights = np.zeros(logp.shape)
        weights[:, start:] = np.array(
            [float(weight_fn(y, math.exp(lp))) for y, lp in zip(block, log_pi)]
        )[:, None]
        total += _flat_grad(model, mul(logp, Tensor(weights)).sum())
    return total


def _enumerate(budget: EnumerationBudget) -> list:
    return list(itertools.product(range(budget.vocab_size), repeat=budget.horizon))


def exact_policy_expectation(model: Model, prompt, y_star,
                             budget: EnumerationBudget) -> np.ndarray:
    """Sum of pi(y) * [1[y=y*]/pi(y)] * grad log pi(y) over all y in V^T.

    Analytically this collapses to grad log pi(y*|x); the sum is computed
    in full so the collapse can be checked, not assumed.
    """
    target = tuple(y_star)
    if len(target) != budget.horizon:
        raise ValueError(
            f"y_star length {len(target)} must equal horizon {budget.horizon}"
        )

    def weight(y, p):
        r = 1.0 if y == target else 0.0
        return p * (r / p)

    return _weighted_grad(model, prompt, _enumerate(budget), weight)


def exact_score_function_mean(model: Model, prompt,
                              budget: EnumerationBudget) -> np.ndarray:
    """E_y[grad log pi(y|x)] by enumeration; zero for any policy."""
    return _weighted_grad(model, prompt, _enumerate(budget), lambda y, p: p)


def variance_probe(model: Model, prompt, y_star: int, n_samples: int,
                   seed: int) -> dict:
    """Compare the implicit-weight estimator against the indicator one.

    Single-token responses only. Estimator A draws y ~ pi and returns
    (1[y=y*]/pi(y)) * grad log pi(y); estimator B returns
    1[y=y*] * grad log pi(y). Both zero out on non-matching draws, so
    their per-coordinate variances factor into var(indicator) times the
    squared gradient at y*, scaled by 1/p*^2 for A. The two estimators
    use independent draw streams; sharing draws would make the empirical
    ratio collapse to the closed form and test nothing.
    """
    y_star = int(y_star)
    net = model.detached()
    logits = net.forward(np.asarray(prompt, dtype=np.int64)[None, :]).data[0, -1]
    probs = softmax_array(logits)
    p_star = float(probs[y_star])
    _, g = grad_log_prob(model, prompt, [y_star])
    g_sq_mean = float(np.mean(g * g))

    def indicator_variance(stream_name):
        rng = np.random.default_rng(derive_seed(seed, "variance-probe", stream_name))
        draws = inverse_cdf(probs, rng.random(n_samples))
        ind = (draws == y_star).astype(np.float64)
        return float(ind.var())

    var_a = indicator_variance("implicit") / (p_star * p_star) * g_sq_mean
    var_b = indicator_variance("indicator") * g_sq_mean
    analytic = 1.0 / (p_star * p_star)
    return {
        "p_star": p_star,
        "n_samples": n_samples,
        "var_sft_implicit": var_a,
        "var_dft": var_b,
        "analytic_ratio": analytic,
        "empirical_ratio": (var_a / var_b) if var_b > 0 else None,
    }


def implicit_reward_scan(model: Model, dataset) -> dict:
    """Distribution of the implicit weight w = 1/p over response tokens.

    ``dataset`` holds Demonstration-like items (prompt_ids/response_ids).
    Tokens with w > 100 get counted as flagged; the probability floor of
    the log primitive caps w at 1e12.
    """
    if not dataset:
        raise ValueError("dataset must be non-empty")
    w = np.concatenate([1.0 / np.maximum(p, 1e-12)
                        for p, _ in teacher_forced_probs(model, dataset)])
    return {
        "n_tokens": int(w.size),
        "quantiles": {
            "min": float(w.min()),
            "p50": float(np.quantile(w, 0.50)),
            "p90": float(np.quantile(w, 0.90)),
            "p99": float(np.quantile(w, 0.99)),
            "max": float(w.max()),
        },
        "n_flagged_above_100": int((w > 100.0).sum()),
    }


def sft_autodiff_grad(model: Model, prompt, response, reduction: str = "sum") -> np.ndarray:
    """Autodiff route for the cross-entropy gradient (identity check target)."""
    logp = model.token_log_probs(prompt, response)
    return _flat_grad(model, sft_loss(logp, reduction=reduction))


def dft_token_reference_grad(model: Model, prompt, response,
                             reduction: str = "mean") -> np.ndarray:
    """Second route for the token-scaled gradient contract.

    Differentiates each token's -log p separately, by backpropagating one
    pick at a time through the one log-prob graph, and scales that whole
    gradient by the token's probability, never touching stop-gradient.
    """
    logp = model.token_log_probs(prompt, response)
    probs = np.exp(logp.data)
    n = logp.data.shape[0]
    total = np.zeros(model.num_params())
    for t in range(n):
        picker = np.zeros(n)
        picker[t] = -1.0
        total += probs[t] * _flat_grad(model, mul(logp, Tensor(picker)).sum())
    return total / n if reduction == "mean" else total


# --- the oracle suite behind `dftlab verify` ---


def _tiny_model(vocab: int, seed: int) -> Model:
    return Model(ModelConfig(vocab_size=vocab, d_model=8, n_layers=1,
                             n_heads=2, context_length=12, seed=seed))


def _check_importance_identity(vocab_sizes, horizons, models_per_cell) -> dict:
    worst = 0.0
    for vocab in vocab_sizes:
        for horizon in horizons:
            for m in range(models_per_cell):
                model = _tiny_model(vocab, seed=derive_seed(m, "verify", vocab, horizon))
                rng = np.random.default_rng(derive_seed(m, "verify-data", vocab, horizon))
                prompt = [int(rng.integers(0, vocab))]
                y_star = [int(t) for t in rng.integers(0, vocab, size=horizon)]
                got = exact_policy_expectation(
                    model, prompt, y_star, EnumerationBudget(vocab, horizon)
                )
                sft = sft_autodiff_grad(model, prompt, y_star, reduction="sum")
                worst = max(worst, float(np.max(np.abs(got + sft))))
    return {
        "name": "importance-sampling-identity",
        "passed": worst <= 1e-10,
        "detail": f"max abs deviation {worst:.3e} over "
                  f"{list(vocab_sizes)}x{list(horizons)}, tol 1e-10",
    }


def _check_score_zero_mean(seed: int) -> dict:
    model = _tiny_model(3, seed=derive_seed(seed, "verify", "score"))
    mean = exact_score_function_mean(model, [1], EnumerationBudget(3, 3))
    worst = float(np.max(np.abs(mean)))
    return {
        "name": "score-function-zero-mean",
        "passed": worst <= 1e-10,
        "detail": f"V=3 T=3 max abs coordinate {worst:.3e}, tol 1e-10",
    }


def _check_gradient_identity(seed: int, trials: int = 20) -> dict:
    rng = np.random.default_rng(derive_seed(seed, "verify", "eq7"))
    worst = 0.0
    for trial in range(trials):
        model = _tiny_model(6, seed=derive_seed(seed, "verify", "eq7", trial))
        prompt = [int(t) for t in rng.integers(0, 6, size=2)]
        response = [int(t) for t in rng.integers(0, 6, size=3)]
        got = _flat_grad(model, dft_token_loss(model.token_log_probs(prompt, response)))
        ref = dft_token_reference_grad(model, prompt, response)
        scale = max(float(np.max(np.abs(ref))), 1e-12)
        worst = max(worst, float(np.max(np.abs(got - ref))) / scale)
    return {
        "name": "token-scaled-gradient-identity",
        "passed": worst <= 1e-10,
        "detail": f"max relative deviation {worst:.3e} over {trials} instances, tol 1e-10",
    }


def _check_variance_ratio(seed: int, n_samples: int) -> dict:
    worst = 0.0
    for p_star in (0.05, 0.1, 0.5):
        vocab = 6
        model = _tiny_model(vocab, seed=derive_seed(seed, "verify", "var"))
        net = model.detached()
        logits = net.forward(np.array([[0]])).data[0, -1]
        probs = np.full(vocab, (1.0 - p_star) / (vocab - 1))
        probs[3] = p_star
        model.params["head.b"].data[:] += np.log(probs) - logits
        report = variance_probe(model, [0], 3, n_samples=n_samples, seed=seed)
        ratio = report["empirical_ratio"] / report["analytic_ratio"]
        worst = max(worst, ratio, 1.0 / ratio)
    return {
        "name": "variance-blowup-ratio",
        "passed": worst <= 2.0,
        "detail": f"worst empirical/analytic factor {worst:.3f} at n={n_samples}, "
                  "tol x2",
    }


@dataclass(kw_only=True)
class VerifyConfig(Record):
    """The ``dftlab verify`` suite: ``models_per_cell`` random models per
    (vocab size, horizon) cell for the importance-sampling identity, and
    ``n_samples`` draws per variance probe."""

    seed: int = 0
    vocab_sizes: list[int] = field(default_factory=lambda: [2, 3])
    horizons: list[int] = field(default_factory=lambda: [1, 2, 3, 4])
    models_per_cell: int = 5
    n_samples: int = 100_000

    def __post_init__(self):
        # an empty grid or no models would let the identity check pass on nothing
        for key, low in (("vocab_sizes", 2), ("horizons", 1)):
            values = getattr(self, key)
            if not values or min(values) < low:
                raise ValueError(f"{key!r} must be non-empty, each >= {low}, got {values!r}")
        for key, low in (("models_per_cell", 1), ("n_samples", 1), ("seed", 0)):
            if getattr(self, key) < low:
                raise ValueError(f"{key!r} must be >= {low}, got {getattr(self, key)!r}")


def _run_checks(checks) -> list:
    return [check() for check in checks]


def run_verification(config: VerifyConfig) -> list:
    """Run every oracle check; returns [{name, passed, detail}, ...].

    With 2 CPUs the enumerated checks run in a forked child while the
    caller runs the other two (module docstring); the report's order and
    bits are the same either way.
    """
    enumerated = [
        lambda: _check_importance_identity(config.vocab_sizes, config.horizons,
                                           config.models_per_cell),
        lambda: _check_score_zero_mean(config.seed),
    ]
    in_caller = [
        lambda: _check_gradient_identity(config.seed),
        lambda: _check_variance_ratio(config.seed, config.n_samples),
    ]
    both = on_two_processes(_run_checks, in_caller, enumerated)
    if both is None:
        return _run_checks(enumerated) + _run_checks(in_caller)
    mine, theirs = both
    return theirs + mine
