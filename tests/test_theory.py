import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest

from dftlab import theory
from dftlab.model import Model, ModelConfig
from dftlab.theory import (
    EnumerationBudget,
    dft_token_reference_grad,
    exact_policy_expectation,
    exact_score_function_mean,
    grad_log_prob,
    implicit_reward_scan,
    sft_autodiff_grad,
    variance_probe,
)


def tiny(vocab, seed, d=8):
    return Model(ModelConfig(vocab_size=vocab, d_model=d, n_layers=1, n_heads=2,
                             context_length=10, seed=seed))


@dataclass
class Demo:
    prompt_ids: list
    response_ids: list


@pytest.mark.parametrize("changes", [{"vocab_sizes": []}, {"horizons": []},
                                     {"models_per_cell": 0}, {"vocab_sizes": [1, 2]},
                                     {"n_samples": 0}, {"seed": -1}],
                         ids=["empty-vocab-sizes", "empty-horizons", "no-models",
                              "vocab-below-2", "no-samples", "negative-seed"])
def test_run_verification_rejects_a_check_that_cannot_fail(changes):
    # an empty grid or no models would pass the identity check over nothing
    (key,) = changes
    with pytest.raises(ValueError, match=repr(key)):
        theory.run_verification(theory.VerifyConfig(**changes))


def test_budget_validation():
    EnumerationBudget(vocab_size=3, horizon=4)
    with pytest.raises(ValueError, match="budget"):
        EnumerationBudget(vocab_size=3, horizon=9)


def test_uniform_single_step_collapse():
    model = tiny(2, seed=0)
    model.params["head.w"].data[:] = 0.0
    model.params["head.b"].data[:] = 0.0
    got = exact_policy_expectation(model, [1], [0], EnumerationBudget(2, 1))
    _, expect = grad_log_prob(model, [1], [0])
    assert np.max(np.abs(got - expect)) <= 1e-12


@pytest.mark.parametrize("vocab,horizon", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_importance_sampling_identity(vocab, horizon):
    # full-grid reweighted expectation == grad log pi(y*|x), which is the
    # negated autodiff gradient of the summed cross-entropy
    for seed in (0, 1):
        model = tiny(vocab, seed=seed)
        rng = np.random.default_rng(seed + 50)
        prompt = [int(rng.integers(0, vocab))]
        y_star = [int(t) for t in rng.integers(0, vocab, size=horizon)]
        got = exact_policy_expectation(
            model, prompt, y_star, EnumerationBudget(vocab, horizon)
        )
        sft = sft_autodiff_grad(model, prompt, y_star, reduction="sum")
        assert np.max(np.abs(got + sft)) <= 1e-10


def test_score_function_zero_mean():
    model = tiny(3, seed=4)
    mean = exact_score_function_mean(model, [1], EnumerationBudget(3, 2))
    assert np.max(np.abs(mean)) <= 1e-10


def _per_sequence_sum(model, prompt, sequences, weight_fn):
    """Reference for the batched oracles: one grad_log_prob per sequence."""
    total = np.zeros(model.num_params())
    for y in sequences:
        log_p, g = grad_log_prob(model, prompt, y)
        total += weight_fn(y, math.exp(log_p)) * g
    return total


def _grid(vocab, horizon):
    return list(itertools.product(range(vocab), repeat=horizon))


@pytest.mark.parametrize("vocab,horizon", [(2, 3), (3, 3)])
def test_batched_expectation_matches_per_sequence_terms(vocab, horizon):
    model = tiny(vocab, seed=13)
    budget = EnumerationBudget(vocab, horizon)
    y_star = [vocab - 1] * horizon
    got = exact_policy_expectation(model, [0], y_star, budget)
    target = tuple(y_star)
    ref = _per_sequence_sum(model, [0], _grid(vocab, horizon),
                            lambda y, p: p * ((1.0 if y == target else 0.0) / p))
    assert np.max(np.abs(ref)) > 1e-3
    assert np.max(np.abs(got - ref)) <= 1e-12


def test_batched_score_mean_matches_per_sequence_terms():
    model = tiny(3, seed=14)
    got = exact_score_function_mean(model, [2], EnumerationBudget(3, 3))
    ref = _per_sequence_sum(model, [2], _grid(3, 3), lambda y, p: p)
    assert np.max(np.abs(got - ref)) <= 1e-12


def test_weighted_grad_matches_per_sequence_terms():
    # a weight that is neither an indicator nor pi itself, so the sum is far from 0
    model = tiny(3, seed=15)
    weight = lambda y, p: p * (1.0 + y[0]) - 0.5 * y[-1]  # noqa: E731
    got = theory._weighted_grad(model, [1, 2], _grid(3, 3), weight)
    ref = _per_sequence_sum(model, [1, 2], _grid(3, 3), weight)
    assert np.max(np.abs(ref)) > 1e-2
    assert np.max(np.abs(got - ref)) <= 1e-12


def test_blocks_that_split_the_rows_match_one_block(monkeypatch):
    model = tiny(3, seed=16)
    budget = EnumerationBudget(3, 3)  # 27 rows: blocks of 7, 7, 7 and 6
    weight = lambda y, p: p * (1.0 + y[0]) - 0.5 * y[-1]  # noqa: E731

    def run():
        return [
            exact_policy_expectation(model, [0], [2, 2, 1], budget),
            exact_score_function_mean(model, [0], budget),
            theory._weighted_grad(model, [0], _grid(3, 3), weight),
        ]

    whole = run()
    monkeypatch.setattr(theory, "_BLOCK_ROWS", 7)
    split = run()
    for a, b in zip(whole, split):
        assert np.max(np.abs(a - b)) <= 1e-12


def test_score_mean_needs_every_sequence():
    # the zero-mean oracle can fail: leave one sequence out and the sum moves
    model = tiny(3, seed=4)
    full = theory._weighted_grad(model, [1], _grid(3, 2), lambda y, p: p)
    partial = theory._weighted_grad(model, [1], _grid(3, 2)[1:], lambda y, p: p)
    assert np.max(np.abs(full)) <= 1e-10
    assert np.max(np.abs(partial)) > 1e-10


def test_weighted_grad_rejects_empty_prompt_and_sequence():
    model = tiny(3, seed=4)
    with pytest.raises(ValueError, match="non-empty"):
        exact_score_function_mean(model, [], EnumerationBudget(3, 1))
    with pytest.raises(ValueError, match="non-empty"):
        theory._weighted_grad(model, [0], [()], lambda y, p: 1.0)


def test_y_star_length_must_match_horizon():
    model = tiny(2, seed=3)
    with pytest.raises(ValueError, match="horizon"):
        exact_policy_expectation(model, [0], [1], EnumerationBudget(2, 2))


def test_dft_token_reference_grad_runs_one_backward_per_token(monkeypatch):
    calls = []
    original = theory.backward
    monkeypatch.setattr(theory, "backward", lambda loss: calls.append(1) or original(loss))
    dft_token_reference_grad(tiny(4, seed=5), [0, 1], [2, 3, 1])
    assert len(calls) == 3


def _pin_distribution(model, prompt, probs):
    """Shift the head bias so the prompt's next-token distribution is exact."""
    net = model.detached()
    logits = net.forward(np.asarray(prompt)[None, :]).data[0, -1]
    model.params["head.b"].data[:] += np.log(probs) - logits


@pytest.mark.parametrize("p_star", [0.05, 0.1, 0.5, 0.9])
def test_variance_probe_matches_closed_form(p_star):
    vocab = 6
    model = tiny(vocab, seed=8)
    probs = np.full(vocab, (1.0 - p_star) / (vocab - 1))
    probs[3] = p_star
    _pin_distribution(model, [0], probs)
    report = variance_probe(model, [0], 3, n_samples=100_000, seed=21)
    assert report["p_star"] == pytest.approx(p_star, abs=1e-12)
    assert report["analytic_ratio"] == pytest.approx(1.0 / p_star**2, rel=1e-12)
    assert report["empirical_ratio"] == pytest.approx(
        report["analytic_ratio"], rel=1.0
    )  # within a factor of 2
    assert 0.5 <= report["empirical_ratio"] / report["analytic_ratio"] <= 2.0


def test_variance_probe_deterministic_policy():
    model = tiny(4, seed=9)
    model.params["head.b"].data[2] += 800.0
    report = variance_probe(model, [0], 2, n_samples=10_000, seed=22)
    assert report["p_star"] == 1.0
    assert report["var_sft_implicit"] == 0.0
    assert report["var_dft"] == 0.0
    assert report["empirical_ratio"] is None
    assert report["analytic_ratio"] == 1.0


def test_implicit_reward_scan_uniform_model():
    vocab = 32
    model = Model(ModelConfig(vocab_size=vocab, d_model=8, n_layers=1, n_heads=1,
                              context_length=16, seed=10))
    model.params["head.w"].data[:] = 0.0
    model.params["head.b"].data[:] = 0.0
    data = [Demo([2, 3], [4, 5, 1]), Demo([6], [7, 1])]
    report = implicit_reward_scan(model, data)
    assert report["n_tokens"] == 5
    q = report["quantiles"]
    assert q["min"] == pytest.approx(32.0, rel=1e-9)
    assert q["max"] == pytest.approx(32.0, rel=1e-9)
    assert report["n_flagged_above_100"] == 0


def test_implicit_reward_scan_weight_capped():
    model = tiny(4, seed=11)
    model.params["head.b"].data[:] = np.array([0.0, -200.0, 0.0, 0.0])
    report = implicit_reward_scan(model, [Demo([0], [1])])
    assert report["quantiles"]["max"] == pytest.approx(1e12, rel=1e-9)
    assert report["n_flagged_above_100"] == 1


def test_implicit_reward_scan_rejects_empty():
    with pytest.raises(ValueError, match="non-empty"):
        implicit_reward_scan(tiny(3, seed=12), [])
