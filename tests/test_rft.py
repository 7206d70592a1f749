import pytest

from dftlab.losses import LossSpec
from dftlab.model import EOS_ID, Model, ModelConfig
from dftlab.rft import FilterStats, RftConfig, sample_and_filter
from dftlab.tasks import (
    Demonstration,
    default_task_spec,
    generate_dataset,
    load_jsonl,
    save_jsonl,
    verify,
)
from dftlab.training import RunConfig, train_run


MODEL_CFG = ModelConfig(vocab_size=13, d_model=16, n_layers=1, n_heads=2,
                        context_length=24, seed=3)


@pytest.fixture(scope="module")
def prompts():
    spec = default_task_spec("sequence-reversal", seed=9)
    train, _, _ = generate_dataset(spec, 6, 1, 1)
    return train


@pytest.fixture(scope="module")
def eos_model():
    model = Model(MODEL_CFG)
    model.params["head.b"].data[EOS_ID] = 60.0
    return model


@pytest.fixture(scope="module")
def memorized():
    """Model overfit to a single short demonstration."""
    demo = Demonstration("abc|", "cba", "sequence-reversal", 3)
    cfg = RunConfig(model=MODEL_CFG, loss=LossSpec(kind="sft"),
                    learning_rate=5e-3, batch_size=4, epochs=None,
                    max_steps=60, warmup_ratio=0.1, seed=1)
    model, _ = train_run(cfg, [demo] * 4)
    return model, demo


def test_false_verifier_keeps_nothing(eos_model, prompts):
    data, stats = sample_and_filter(
        eos_model, prompts, lambda *a: False, RftConfig(seed=5)
    )
    assert data == []
    assert stats.keep_rate == 0.0
    assert stats.n_samples == 4 * len(prompts)


def test_true_verifier_keeps_everything(eos_model, prompts):
    data, stats = sample_and_filter(
        eos_model, prompts, lambda *a: True, RftConfig(dedupe=False, seed=5)
    )
    # the EOS-biased model terminates every draw immediately
    assert len(data) == 4 * len(prompts)
    assert stats.n_verified == stats.n_retained == stats.n_samples
    assert stats.keep_rate == 1.0
    assert all(d.response == "" for d in data)


def test_dedupe_collapses_identical_pairs(eos_model, prompts):
    data, stats = sample_and_filter(
        eos_model, prompts, lambda *a: True, RftConfig(dedupe=True, seed=5)
    )
    assert len(data) == len(prompts)  # one unique pair per prompt
    assert stats.n_verified == stats.n_samples  # keep_rate is pre-dedupe
    assert stats.keep_rate == 1.0


def test_keep_rate_is_exact_ratio(memorized):
    model, demo = memorized
    data, stats = sample_and_filter(model, [demo], verify, RftConfig(seed=11))
    assert stats.keep_rate == stats.n_verified / stats.n_samples
    assert sum(stats.per_prompt_kept) == stats.n_verified
    assert stats.n_retained <= stats.n_verified


def test_retained_pass_verify_after_round_trip(memorized, tmp_path):
    model, demo = memorized
    data, stats = sample_and_filter(
        model, [demo],
        verify,
        RftConfig(n_responses_per_prompt=8, dedupe=False, seed=11),
    )
    assert stats.n_verified > 0, "memorized model should produce correct samples"
    path = tmp_path / "filtered.jsonl"
    save_jsonl(data, path)
    for d in load_jsonl(path):
        assert verify(d.task, d.prompt_ids, d.response_ids)


def test_sampling_determinism(memorized):
    model, demo = memorized
    a, _ = sample_and_filter(model, [demo], verify, RftConfig(seed=21))
    b, _ = sample_and_filter(model, [demo], verify, RftConfig(seed=21))
    assert a == b


def test_prompt_count_limits(eos_model, prompts):
    _, stats = sample_and_filter(
        eos_model, prompts, lambda *a: True,
        RftConfig(prompt_count=2, seed=5),
    )
    assert stats.n_prompts == 2
    assert stats.n_samples == 8


def test_unterminated_completions_never_kept(prompts):
    # a model that never emits EOS within the budget yields nothing,
    # even with an always-true verifier
    model = Model(MODEL_CFG)
    model.params["head.b"].data[EOS_ID] = -60.0
    data, stats = sample_and_filter(
        model, prompts, lambda *a: True,
        RftConfig(max_new_tokens=4, seed=5),
    )
    assert data == []
    assert stats.keep_rate == 0.0


def test_rft_config_rejects_zero_responses():
    with pytest.raises(ValueError):
        RftConfig(n_responses_per_prompt=0)


def test_rft_config_rejects_a_negative_prompt_count():
    # prompts[:-3] would sample all but the last three prompts
    with pytest.raises(ValueError, match="prompt_count must be >= 0, got -3"):
        RftConfig(prompt_count=-3)


@pytest.mark.parametrize("temperature", [float("nan"), float("inf"), 0.0])
def test_rft_config_rejects_a_temperature_not_finite_and_positive(temperature):
    # json.loads reads NaN, and sampling at a NaN temperature emits only PAD
    with pytest.raises(ValueError, match="temperature must be finite and > 0"):
        RftConfig.from_dict({"temperature": temperature})
