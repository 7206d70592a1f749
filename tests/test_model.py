import hashlib
import json
import math
import os
import typing
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np
import pytest

import dftlab.model
from dftlab.autodiff import Tensor, log, reshape, softmax
from dftlab.model import (
    EOS_ID,
    KVCache,
    Model,
    ModelConfig,
    Record,
    expected_param_count,
    inverse_cdf,
    load_checkpoint,
    sample_batch,
    save_checkpoint,
)
from dftlab.evalreport import EvalResult, ProbHistogram
from dftlab.losses import LossSpec
from dftlab.rft import FilterStats, RftConfig
from dftlab.seeding import derive_seed
from dftlab.tasks import Demonstration, TaskSpec
from dftlab.training import RunConfig, TrainMetrics

SMALL = ModelConfig(vocab_size=8, d_model=16, n_layers=2, n_heads=2,
                    context_length=16, seed=7)


@pytest.fixture(scope="module")
def small_model():
    return Model(SMALL)


def test_param_count_matches_closed_form(small_model):
    assert small_model.num_params() == expected_param_count(SMALL)


def test_params_finite_after_init(small_model):
    for name, t in small_model.params.items():
        assert np.isfinite(t.data).all(), name


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=8, d_model=10, n_heads=4)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=1)
    with pytest.raises(ValueError, match="n_heads"):
        ModelConfig(vocab_size=8, n_heads=0)
    with pytest.raises(ValueError, match="seed"):
        ModelConfig(vocab_size=8, seed=-1)


@dataclass
class BasedRun(Record):
    """A record with a run that may be null, as a protocol's base run is."""
    base: Optional[RunConfig] = None


@pytest.mark.parametrize("record", [
    SMALL,
    RunConfig(model=SMALL, loss=LossSpec(kind="focal", gamma=2.0), learning_rate=3e-3,
              batch_size=8, epochs=None, max_steps=20, seed=7, eval_every=5),
    LossSpec(kind="focal", gamma=1.5, reduction="sum"),
    LossSpec(kind="iw_sft", iw_clip=2.0),
    RftConfig(n_responses_per_prompt=2, temperature=0.7, seed=9),
    TaskSpec("addition-scratchpad", (2, 3), (4, 4), seed=5),
    Demonstration("12+34=", "2+4=6;1+3=4;=46", "addition-scratchpad", 2),
    EvalResult("addition-scratchpad", "ood", 3, 0.7, [[True, False, False], [True, True, False]]),
    ProbHistogram([0.0, 0.1, 0.95, 1.0], [7, 2, 3], 12, "dft_token"),
    TrainMetrics(step=3, lr=2.5e-4, loss=1.75, mean_p=0.3, frac_p_below_0_05=0.25,
                 frac_p_above_0_95=0.125, seconds=0.125, grad_norm=4.5, clipped=True),
    FilterStats(n_prompts=2, n_samples=8, n_verified=3, n_retained=2, keep_rate=0.375,
                per_prompt_kept=[2, 0]),
    RunConfig(model=SMALL, learning_rate=1, batch_size=8, epochs=None, max_steps=20,
              grad_clip_norm=2),
    EvalResult("sequence-reversal", "in-dist", 1, 1, [[True]]),
    BasedRun(base=RunConfig(model=ModelConfig(vocab_size=5))),
], ids=["ModelConfig", "RunConfig", "LossSpec-focal", "LossSpec-iw_sft", "RftConfig",
        "TaskSpec", "Demonstration", "EvalResult", "ProbHistogram", "TrainMetrics",
        "FilterStats", "RunConfig-int-for-float", "EvalResult-int-for-float",
        "Optional-RunConfig"])
def test_record_round_trip(record):
    decoded = type(record).from_dict(json.loads(json.dumps(record.to_dict())))
    assert decoded == record
    hints = typing.get_type_hints(type(record))
    for f in fields(decoded):  # JSON writes 1.0 as 1; a float field reads it back as 1.0
        value = getattr(decoded, f.name)
        if hints[f.name] in (float, Optional[float]) and value is not None:
            assert type(value) is float, f.name


@pytest.mark.parametrize("record, d, named", [
    (FilterStats, {"n_prompts": 1, "n_samples": 2, "n_verified": 0, "n_retained": 0,
                   "keep_rate": 0.0, "per_prompt_kept": "zz"}, "'per_prompt_kept' must be"),
    (FilterStats, {"n_prompts": 1, "n_samples": 2, "n_verified": 0, "n_retained": 0,
                   "keep_rate": 0.0, "per_prompt_kept": [1.5]}, "'per_prompt_kept' item 0"),
    (BasedRun, {"base": {"model": 3}}, "ModelConfig needs a JSON object, got 3"),
], ids=["FilterStats-str-for-list", "FilterStats-float-in-list", "Optional-RunConfig-bad-model"])
def test_from_dict_names_a_value_that_does_not_fit(record, d, named):
    with pytest.raises(ValueError, match=named):
        record.from_dict(d)


def test_causality_by_input_perturbation(small_model):
    ids = np.array([[2, 3, 4, 5, 6, 7]])
    base = small_model.forward(ids).data.copy()
    for t in range(1, ids.shape[1]):
        mod = ids.copy()
        mod[0, t] = (mod[0, t] + 1) % SMALL.vocab_size
        if mod[0, t] == ids[0, t]:
            continue
        out = small_model.forward(mod).data
        assert np.array_equal(out[0, :t], base[0, :t]), f"position {t} leaked backward"
        assert not np.array_equal(out[0, t:], base[0, t:])


def test_identical_rows_give_identical_logits(small_model):
    ids = np.array([[2, 5, 3, 7]] * 3)
    out = small_model.forward(ids).data
    assert np.array_equal(out[0], out[1]) and np.array_equal(out[1], out[2])


def test_forward_determinism_golden():
    # recorded once from this config/seed/input; guards init and forward drift
    model = Model(ModelConfig(vocab_size=8, d_model=16, n_layers=2, n_heads=2,
                              context_length=16, seed=7))
    out = model.forward(np.array([[2, 3, 4, 5]])).data
    again = Model(ModelConfig(vocab_size=8, d_model=16, n_layers=2, n_heads=2,
                              context_length=16, seed=7)).forward(
        np.array([[2, 3, 4, 5]])
    ).data
    assert np.array_equal(out.view(np.uint64), again.view(np.uint64))
    digest = hashlib.sha256(np.ascontiguousarray(out, dtype="<f8").tobytes()).hexdigest()
    assert digest == GOLDEN_LOGITS_SHA256


GOLDEN_LOGITS_SHA256 = "358141c5a0ab4eeb62d8f2607f67faed75bde36bd372aaf08845ecfac06657aa"


def test_sample_batch_determinism_golden(small_model):
    # recorded once; guards the cached decode path (prefill, one-position
    # steps, rows leaving at EOS) down to the sampled token ids, which the
    # logits golden above never reaches
    prompts = [[2, 3], [4], [5, 6, 7], [2, 3], [7, 2, 4, 6], [3], [6, 5, 4]]
    seeds = list(range(100, 107))
    sampled = sample_batch(small_model, prompts, 12, 0.7, seeds)
    greedy = sample_batch(small_model, prompts, 12, 1.0, seeds, greedy=True)
    assert any(len(out) < 12 for out in sampled)  # some rows leave the batch early
    assert [hashlib.sha256(json.dumps(outs).encode()).hexdigest()
            for outs in (sampled, greedy)] == GOLDEN_DECODE_SHA256


GOLDEN_DECODE_SHA256 = [
    "66c886bca3155485220dc51fc61fdeef53b4f1bbb634733a1f3afb76c72f5330",  # T=0.7
    "8ab38a4b3e611d8751f7ff2562a42c9599c48de63a7739781f55cacf3a561cdc",  # greedy
]


def test_cached_forward_golden(small_model):
    # recorded once; guards every cached forward's logits bit for bit: a
    # prefill, one-position steps at 1, 24 and 40 rows, a two-segment
    # joined cache (one- and two-position steps) and a step after keep
    net = small_model.detached()
    rng = np.random.default_rng(11)
    digest = hashlib.sha256()

    def forward(rows, length, cache):
        ids = rng.integers(2, SMALL.vocab_size, size=(rows, length))
        digest.update(np.ascontiguousarray(net.forward(ids, cache).data, dtype="<f8").tobytes())

    for rows in (1, 24, 40):
        cache = KVCache()
        forward(rows, 5, cache)
        forward(rows, 1, cache)
    first, second = KVCache(), KVCache()
    forward(3, 4, first)
    forward(5, 6, second)
    cache = KVCache.join([first, second])
    forward(8, 1, cache)
    forward(8, 2, cache)
    cache.keep(np.array([False, True, False, True, True, False, False, True]))
    assert cache.rows == [1, 3]
    forward(4, 1, cache)
    assert digest.hexdigest() == GOLDEN_CACHED_LOGITS_SHA256


GOLDEN_CACHED_LOGITS_SHA256 = "5299485c3389bab2eac09206dc09cccf4aa874002280712e0963743bd65a2727"


def test_rejects_out_of_vocab(small_model):
    with pytest.raises(ValueError, match="vocab"):
        small_model.forward(np.array([[2, 99]]))


def test_rejects_over_length(small_model):
    with pytest.raises(ValueError, match="context_length"):
        small_model.forward(np.full((1, 17), 2))


# --- token_log_probs ---


def test_uniform_head_gives_log_half():
    config = ModelConfig(vocab_size=2, d_model=8, n_layers=1, n_heads=1,
                         context_length=8, seed=0)
    model = Model(config)
    model.params["head.w"].data[:] = 0.0
    model.params["head.b"].data[:] = 0.0
    lp = model.token_log_probs([0], [1, 0, 1])
    assert np.allclose(lp.data, math.log(0.5), atol=1e-15)


def test_token_log_probs_normalization(small_model):
    prompt, response = [2, 3], [4, 5, 6]
    ids = np.array(prompt + response)
    logits = small_model.forward(ids[None, :-1]).data[0]
    lp = small_model.token_log_probs(prompt, response).data
    assert (lp <= 0).all()
    for t, tok in enumerate(response):
        row = logits[len(prompt) - 1 + t]
        e = np.exp(row - row.max())
        probs = e / e.sum()
        assert abs(probs.sum() - 1.0) <= 1e-12
        others = probs.sum() - probs[tok]
        assert abs(math.exp(lp[t]) + others - 1.0) <= 1e-12


def test_token_log_probs_redundant_path(small_model):
    prompt, response = [2, 3, 4], [5, 6]
    ids = np.array(prompt + response)
    logits = small_model.forward(ids[None, :-1])
    flat = reshape(logits, (len(ids) - 1, SMALL.vocab_size))
    full = log(softmax(flat)).data
    expect = [full[len(prompt) - 1 + t, tok] for t, tok in enumerate(response)]
    lp = small_model.token_log_probs(prompt, response).data
    assert np.max(np.abs(lp - np.array(expect))) <= 1e-12


def test_token_log_probs_rejects_empty_response(small_model):
    with pytest.raises(ValueError, match="empty response"):
        small_model.token_log_probs([2], [])


# --- sampling ---


def test_sample_same_seed_identical(small_model):
    a = small_model.sample([2, 3], max_new=8, temperature=1.0, seed=123)
    b = small_model.sample([2, 3], max_new=8, temperature=1.0, seed=123)
    assert a == b
    c = small_model.sample([2, 3], max_new=8, temperature=1.0, seed=124)
    assert isinstance(c, list)


def test_greedy_is_deterministic_argmax(small_model):
    a = small_model.sample([2, 3], max_new=6, greedy=True, temperature=1.0)
    b = small_model.sample([2, 3], max_new=6, greedy=True, temperature=1.0)
    assert a == b
    ids = np.array([[2, 3]])
    first = int(np.argmax(small_model.forward(ids).data[0, -1]))
    assert a[0] == first


def test_sample_stops_at_eos():
    config = ModelConfig(vocab_size=6, d_model=8, n_layers=1, n_heads=1,
                         context_length=12, seed=1)
    model = Model(config)
    model.params["head.b"].data[EOS_ID] = 50.0
    out = model.sample([2], max_new=10, temperature=1.0, seed=0)
    assert out == [EOS_ID]


def test_sample_respects_context_length(small_model):
    out = small_model.sample([2] * 14, max_new=50, temperature=1.0, seed=0)
    assert len(out) <= SMALL.context_length - 14


def test_first_token_frequency_matches_softmax():
    config = ModelConfig(vocab_size=5, d_model=8, n_layers=1, n_heads=1,
                         context_length=4, seed=3)
    model = Model(config)
    probs = model.forward(np.array([[2]])).data[0, -1]
    e = np.exp(probs - probs.max())
    probs = e / e.sum()
    n = 100_000
    outs = sample_batch(model, [[2]] * n, max_new=1, temperature=1.0,
                        seeds=list(range(n)))
    counts = np.bincount([o[0] for o in outs], minlength=5) / n
    assert np.max(np.abs(counts - probs)) <= 0.01


def test_sample_batch_grouping_matches_single(small_model):
    prompts = [[2, 3], [4, 5, 6], [3, 2]]
    seeds = [11, 22, 33]
    batched = sample_batch(small_model, prompts, max_new=6, temperature=1.0, seeds=seeds)
    singles = [
        small_model.sample(p, max_new=6, temperature=1.0, seed=s)
        for p, s in zip(prompts, seeds)
    ]
    assert batched == singles


def test_sample_batch_rejects_a_prompt_that_fills_the_context(small_model):
    ctx = SMALL.context_length
    for plen in (ctx, ctx + 2):
        prompts = [[2, 3], [2] * plen]
        with pytest.raises(ValueError, match=f"prompt 1 has {plen} tokens"):
            sample_batch(small_model, prompts, 4, 1.0, [0, 1])
    assert len(sample_batch(small_model, [[2] * (ctx - 1)], 4, 1.0, [0])[0]) == 1


# --- inverse_cdf ---


def test_inverse_cdf_below_the_first_step_is_id_zero():
    probs = np.array([0.25, 0.5, 0.25])
    assert inverse_cdf(probs, np.array([0.0, 0.2499])).tolist() == [0, 0]
    assert inverse_cdf(probs, np.array([0.25, 0.75])).tolist() == [1, 2]


def test_inverse_cdf_clamps_when_rounding_leaves_the_cdf_short():
    probs = np.full(14, 1.0 / 14)
    u = np.nextafter(1.0, 0.0)  # a value random() can return
    assert np.cumsum(probs)[-1] < u  # 0.9999999999999997
    assert inverse_cdf(probs, np.array([u])).tolist() == [13]
    rows = np.stack([probs, probs])
    assert inverse_cdf(rows, np.array([u, 0.05])).tolist() == [13, 0]


def test_inverse_cdf_never_draws_a_zero_probability_id():
    rng = np.random.default_rng(4)
    probs = np.array([0.0, 0.3, 0.0, 0.0, 0.7, 0.0])
    u = np.concatenate([rng.random(20_000), [0.0, 0.3, np.nextafter(1.0, 0.0)]])
    draws = inverse_cdf(probs, u)
    assert set(draws.tolist()) == {1, 4}
    rows = np.tile(probs, (len(u), 1))
    assert np.array_equal(inverse_cdf(rows, u), draws)


# --- K/V cache ---


def test_cached_steps_match_full_forward_with_rows_dropped(small_model):
    net = small_model.detached()
    rng = np.random.default_rng(5)
    seqs = rng.integers(0, SMALL.vocab_size, size=(4, SMALL.context_length))
    full = net.forward(seqs).data
    cache = KVCache()
    rows = np.arange(4)
    prefill = 3
    got = net.forward(seqs[:, :prefill], cache).data
    assert np.max(np.abs(got - full[:, :prefill])) <= 1e-12
    for pos in range(prefill, SMALL.context_length):
        if pos in (6, 11):  # drop the first remaining row partway through
            keep = np.arange(len(rows)) != 0
            rows = rows[keep]
            cache.keep(keep)
        got = net.forward(seqs[rows, pos:pos + 1], cache).data
        assert cache.lengths == [pos + 1]
        assert np.max(np.abs(got[:, 0] - full[rows, pos])) <= 1e-12, pos


def test_joined_cache_forward_equals_each_segment_alone_bit_for_bit(small_model):
    net = small_model.detached()
    rng = np.random.default_rng(6)
    prompts = [rng.integers(2, SMALL.vocab_size, size=(3, 4)),
               rng.integers(2, SMALL.vocab_size, size=(2, 7))]
    alone, parts = [KVCache(), KVCache()], [KVCache(), KVCache()]
    for ids, a, p in zip(prompts, alone, parts):
        net.forward(ids, a)
        net.forward(ids, p)
    joined = KVCache.join(parts)
    for t in (1, 2, 1):
        step = rng.integers(2, SMALL.vocab_size, size=(5, t))
        got = net.forward(step, joined).data
        want = np.concatenate([net.forward(step[:3], alone[0]).data,
                               net.forward(step[3:], alone[1]).data])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), t
    assert joined.lengths == [8, 11] and joined.rows == [3, 2]
    joined.keep(np.array([False, False, False, True, False]))
    assert joined.lengths == [11] and joined.rows == [1]
    with pytest.raises(ValueError, match="2 id rows for a cache of 1 rows"):
        net.forward(step[:2], joined)


def test_cache_needs_a_gradient_free_model(small_model):
    with pytest.raises(ValueError, match="autodiff"):
        small_model.forward(np.array([[2, 3]]), KVCache())


@pytest.mark.parametrize("detached, cached", [(False, False), (True, False), (True, True)],
                         ids=["graph", "arrays", "cache"])
def test_forward_rejects_an_empty_batch(small_model, detached, cached):
    model = small_model.detached() if detached else small_model
    with pytest.raises(ValueError, match="empty batch"):
        model.forward(np.zeros((0, 3), dtype=np.int64), KVCache() if cached else None)


@pytest.mark.parametrize("max_new", [0, -2])
def test_sampling_rejects_max_new_below_one_before_any_forward(small_model, monkeypatch,
                                                               max_new):
    def refuse(self, ids, cache=None):
        raise AssertionError("forwarded")

    monkeypatch.setattr(Model, "forward", refuse)
    with pytest.raises(ValueError, match="max_new"):
        sample_batch(small_model, [[2, 3], [4]], max_new, 1.0, [0, 1])
    with pytest.raises(ValueError, match="max_new"):
        small_model.sample([2, 3], max_new, greedy=True)


@pytest.mark.parametrize("temperature", [float("nan"), float("inf"), -float("inf"), 0.0])
def test_sampling_rejects_a_temperature_not_finite_and_positive_before_any_forward(
        small_model, monkeypatch, temperature):
    def refuse(self, ids, cache=None):
        raise AssertionError("forwarded")

    monkeypatch.setattr(Model, "forward", refuse)
    with pytest.raises(ValueError, match="temperature must be finite and > 0"):
        sample_batch(small_model, [[2, 3], [4]], 5, temperature, [1, 2])
    monkeypatch.undo()
    assert small_model.sample([2, 3], 5, temperature, greedy=True) == small_model.sample(
        [2, 3], 5, greedy=True)  # greedy reads no temperature


def test_cache_rejects_positions_past_the_context(small_model):
    net = small_model.detached()
    cache = KVCache()
    net.forward(np.full((2, SMALL.context_length - 1), 2), cache)
    net.forward(np.full((2, 1), 3), cache)
    with pytest.raises(ValueError, match="context_length"):
        net.forward(np.full((2, 1), 3), cache)
    fresh = KVCache()
    net.forward(np.full((1, 4), 2), fresh)
    with pytest.raises(ValueError, match="context_length"):
        net.forward(np.full((1, SMALL.context_length - 3), 2), fresh)


def full_prefix_sample_batch(model, prompts, max_new, temperature, seeds, greedy=False):
    """Reference sampler: re-forwards every row's whole prefix for each token.

    Same per-row streams as ``sample_batch``: one ``random()`` per
    unfinished row per step, the doubles that ``sample_batch`` takes from
    one ``random(n)`` call per row.
    """
    net = model.detached()
    results = [None] * len(prompts)
    by_len = {}
    for idx, prompt in enumerate(prompts):
        by_len.setdefault(len(prompt), []).append(idx)
    for plen, indices in by_len.items():
        cur = np.array([prompts[i] for i in indices], dtype=np.int64)
        rngs = [np.random.default_rng(seeds[i]) for i in indices]
        outs = [[] for _ in indices]
        done = [False] * len(indices)
        for _ in range(min(max_new, model.config.context_length - plen)):
            logits = net.forward(cur).data[:, -1, :]
            col = np.zeros(len(indices), dtype=np.int64)
            for r in range(len(indices)):
                if done[r]:
                    continue
                if greedy:
                    col[r] = int(np.argmax(logits[r]))
                else:
                    z = logits[r] / temperature
                    e = np.exp(z - z.max())
                    cdf = np.cumsum(e / e.sum())
                    u = rngs[r].random()
                    col[r] = min(int(np.searchsorted(cdf, u, side="right")),
                                 model.config.vocab_size - 1)
                outs[r].append(int(col[r]))
                done[r] = col[r] == EOS_ID
            if all(done):
                break
            cur = np.concatenate([cur, col[:, None]], axis=1)
        for r, idx in enumerate(indices):
            results[idx] = outs[r]
    return results


@pytest.mark.parametrize("greedy", [False, True])
def test_sample_batch_matches_full_prefix_reference(small_model, greedy):
    rng = np.random.default_rng(9)
    prompts = [list(rng.integers(2, SMALL.vocab_size, size=n)) for n in
               (1, 3, 3, 3, 3, 3, 5, 5, 2, 14, 3, 1)]
    seeds = list(range(100, 100 + len(prompts)))
    got = sample_batch(small_model, prompts, 12, 0.7, seeds, greedy)
    want = full_prefix_sample_batch(small_model, prompts, 12, 0.7, seeds, greedy)
    assert got == want
    assert len({len(c) for c in got}) > 2  # rows end at different steps


def test_finished_rows_stop_reaching_forward(small_model, monkeypatch):
    forwarded = []
    original = Model.forward

    def counting(self, ids, cache=None):
        forwarded.append(np.asarray(ids).size)
        return original(self, ids, cache)

    monkeypatch.setattr(Model, "forward", counting)
    prompts = [[2, 3]] * 6 + [[4, 5, 6]] * 5
    out = sample_batch(small_model, prompts, 10, 1.0, list(range(len(prompts))))
    # one prefill row per distinct prompt, then one position per step for
    # each row that has not yet emitted EOS
    expected = 2 + 3 + sum(len(c) - 1 for c in out)
    assert sum(forwarded) == expected
    assert len({len(c) for c in out}) > 1


def test_sample_batch_steps_every_length_group_in_one_forward(small_model, monkeypatch):
    shapes = []
    original = Model.forward

    def counting(self, ids, cache=None):
        shapes.append(np.asarray(ids).shape)
        return original(self, ids, cache)

    monkeypatch.setattr(Model, "forward", counting)
    prompts = [[2, 3]] * 3 + [[4, 5, 6, 7]] * 2 + [[3, 2, 5, 4, 6, 7]] * 3
    out = sample_batch(small_model, prompts, 10, 1.0, list(range(len(prompts))))
    longest = [max(len(c) for c in out[lo:hi]) for lo, hi in ((0, 3), (3, 5), (5, 8))]
    assert sorted(longest)[1] > 1  # at least two groups step together
    # one prefill per group, of its one distinct prompt, then one forward per
    # step of the longest-running group, not one per group
    assert shapes[:3] == [(1, 2), (1, 4), (1, 6)]
    assert len(shapes) == 3 + max(longest) - 1
    assert all(t == 1 for _, t in shapes[3:])


def test_one_random_call_draws_what_successive_calls_draw():
    for seed in [derive_seed(s, "eval", i, j) for s in (0, 1001) for i in range(3)
                 for j in range(2)] + [derive_seed(4, "rft", 0, 0)]:
        whole = np.random.default_rng(seed).random(SMALL.context_length)
        one_by_one = np.random.default_rng(seed)
        steps = np.array([one_by_one.random() for _ in range(SMALL.context_length)])
        assert np.array_equal(whole.view(np.uint64), steps.view(np.uint64)), seed


def test_sampling_makes_one_generator_and_one_random_call_per_row(small_model, monkeypatch):
    prompts = [[2, 3], [4, 5, 6], [2, 3], [3, 2], [4, 5, 6], [2, 3], [7]]
    seeds = list(range(300, 300 + len(prompts)))
    want = sample_batch(small_model, prompts, 12, 0.7, seeds)
    made = []
    real = np.random.default_rng

    class Counted:
        def __init__(self, seed):
            self.seed, self.calls, self.gen = seed, 0, real(seed)
            made.append(self)

        def random(self, *args):
            self.calls += 1
            return self.gen.random(*args)

    monkeypatch.setattr(dftlab.model.np.random, "default_rng", Counted)
    assert sample_batch(small_model, prompts, 12, 0.7, seeds) == want
    assert sorted(g.seed for g in made) == seeds
    assert [g.calls for g in made] == [1] * len(prompts)
    made.clear()
    sample_batch(small_model, prompts, 12, 0.7, seeds, greedy=True)
    assert made == []


@pytest.mark.parametrize("greedy", [False, True])
def test_repeated_prompts_sample_what_each_row_samples_alone(small_model, greedy):
    k = 3
    rng = np.random.default_rng(12)
    distinct = [[2, 3], [4, 5, 6], [3, 2], [6, 5, 4], [7, 7]]
    prompts = [distinct[i] for i in rng.permutation(np.repeat(np.arange(len(distinct)), k))]
    seeds = [derive_seed(5, "eval", i) for i in range(len(prompts))]
    got = sample_batch(small_model, prompts, 10, 0.7, seeds, greedy)
    assert got == [small_model.sample(p, 10, 0.7, s, greedy) for p, s in zip(prompts, seeds)]
    copies = [c for p, c in zip(prompts, got) if p == [2, 3]]
    assert len(copies) == k and len({tuple(c) for c in copies}) == (1 if greedy else k)


def test_forward_prefills_one_row_per_distinct_prompt(small_model, monkeypatch):
    shapes = []
    original = Model.forward

    def counting(self, ids, cache=None):
        shapes.append(np.asarray(ids).shape)
        return original(self, ids, cache)

    monkeypatch.setattr(Model, "forward", counting)
    prompts = [[2, 3], [4, 5, 6], [2, 3], [3, 2], [4, 5, 6], [2, 3], [5, 5, 5]]
    sample_batch(small_model, prompts, 6, 1.0, list(range(len(prompts))))
    assert shapes[:2] == [(2, 2), (2, 3)]
    assert shapes[2] == (len(prompts), 1)  # every row steps on its own copy
    assert all(t == 1 for _, t in shapes[2:])


@pytest.mark.parametrize("greedy", [False, True])
def test_longer_prompts_reaching_the_context_leave_while_shorter_ones_sample(greedy):
    model = Model(SMALL)
    model.params["head.b"].data[EOS_ID] = -30.0  # no row ends early
    rng = np.random.default_rng(3)
    prompts = [list(rng.integers(2, SMALL.vocab_size, size=n)) for n in (13, 2, 13, 5, 2, 9)]
    seeds = list(range(200, 200 + len(prompts)))
    got = sample_batch(model, prompts, 12, 0.7, seeds, greedy)
    assert got == full_prefix_sample_batch(model, prompts, 12, 0.7, seeds, greedy)
    # every group runs to min(max_new, context_length - prompt length)
    assert [len(c) for c in got] == [3, 12, 3, 11, 12, 7]


def test_a_group_ending_at_eos_leaves_while_the_others_sample(small_model):
    prompts = [[2, 3], [5, 4], [4, 5, 6], [6, 2, 3], [3, 3, 7, 2, 5], [7, 6, 5, 4, 3]]
    seeds = list(range(6))
    got = sample_batch(small_model, prompts, 12, 1.0, seeds)
    assert got == full_prefix_sample_batch(small_model, prompts, 12, 1.0, seeds)
    # the middle group (3 tokens) ends at EOS mid-loop; both others go on
    middle = got[2:4]
    assert all(c[-1] == EOS_ID for c in middle) and max(map(len, middle)) > 2
    assert min(max(map(len, got[:2])), max(map(len, got[4:]))) > max(map(len, middle))


# --- checkpoints ---


def test_checkpoint_round_trip(tmp_path, small_model):
    path = tmp_path / "model.ckpt"
    save_checkpoint(small_model, path)
    loaded = load_checkpoint(path)
    assert loaded.config == small_model.config
    for name, t in small_model.params.items():
        assert np.array_equal(
            t.data.view(np.uint64), loaded.params[name].data.view(np.uint64)
        ), name
    ids = np.array([[2, 3, 4]])
    assert np.array_equal(
        small_model.forward(ids).data, loaded.forward(ids).data
    )


def test_checkpoint_rejects_a_non_finite_parameter(tmp_path, small_model):
    path = tmp_path / "nan.ckpt"
    for name, value in (("head.b", np.nan), ("layers.0.attn.wq", -np.inf)):
        broken = small_model.copy()
        broken.params[name].data.flat[1] = value
        save_checkpoint(broken, path)
        with pytest.raises(ValueError, match=rf"nan\.ckpt: parameter '{name}' holds a non-finite"):
            load_checkpoint(path)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ValueError, match="not a checkpoint"):
        load_checkpoint(path)


def test_checkpoint_rejects_missing_parameter(tmp_path, small_model):
    partial = small_model.detached()
    del partial.params["layers.1.mlp.b2"]
    path = tmp_path / "partial.ckpt"
    save_checkpoint(partial, path)
    with pytest.raises(ValueError, match=r"partial\.ckpt.*missing.*layers\.1\.mlp\.b2"):
        load_checkpoint(path)


def test_checkpoint_rejects_truncated_and_padded_files(tmp_path, small_model):
    path = tmp_path / "model.ckpt"
    save_checkpoint(small_model, path)
    raw = path.read_bytes()
    for cut in (len(raw) - 1, len(raw) - 8 * 5, 13):
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError, match=r"model\.ckpt: truncated"):
            load_checkpoint(path)
    path.write_bytes(raw + bytes(64))
    with pytest.raises(ValueError, match=r"model\.ckpt: 64 trailing bytes"):
        load_checkpoint(path)


def test_corrupt_checkpoint_loads_or_names_the_path(tmp_path):
    # every truncation, then single-byte overwrites across the header, the
    # config and the first parameters, plus one that makes the seed -1
    path = tmp_path / "fuzz.ckpt"
    save_checkpoint(Model(ModelConfig(vocab_size=2, d_model=4, n_layers=1, n_heads=2,
                                      context_length=2, seed=1)), path)
    raw = path.read_bytes()
    rng = np.random.default_rng(0)
    overwrites = list(zip(rng.integers(0, 400, 2000), rng.integers(0, 256, 2000)))
    overwrites.append((raw.index(b'"seed": 1') + 7, ord("-")))

    def loads_or_names_the_path():
        try:
            load_checkpoint(path)
        except ValueError as exc:
            assert str(path) in str(exc)

    fd = os.open(path, os.O_RDWR)
    try:
        for pos, byte in overwrites:
            os.pwrite(fd, bytes([byte]), pos)
            loads_or_names_the_path()
            os.pwrite(fd, raw[pos:pos + 1], pos)
        for size in reversed(range(len(raw))):
            os.ftruncate(fd, size)
            loads_or_names_the_path()
    finally:
        os.close(fd)


def test_failed_save_keeps_the_previous_checkpoint(tmp_path, small_model):
    path = tmp_path / "model.ckpt"
    save_checkpoint(small_model, path)
    before = path.read_bytes()
    broken = small_model.detached()
    broken.params["\ud800"] = Tensor(np.zeros(1))  # name fails to encode mid-write
    with pytest.raises(UnicodeEncodeError):
        save_checkpoint(broken, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
