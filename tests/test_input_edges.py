"""Inputs at the edge of what the lab accepts: a sampled PAD in RFT, a
sequence of context_length + 1 tokens, and an empty prompt."""

import numpy as np
import pytest

from dftlab import rft
from dftlab.evalreport import lowest_bin_tokens, token_histogram
from dftlab.losses import LossSpec
from dftlab.model import EOS_ID, PAD_ID, Model, ModelConfig, batch_token_log_probs
from dftlab.rft import RftConfig, sample_and_filter
from dftlab.tasks import Demonstration, default_task_spec, generate_dataset
from dftlab.theory import implicit_reward_scan
from dftlab.training import RunConfig, train_run


@pytest.fixture(scope="module")
def reversal_data():
    spec = default_task_spec("sequence-reversal", seed=2)
    train, _, _ = generate_dataset(spec, 8, 1, 1)
    return train


# --- RFT ---


def test_completion_holding_pad_is_skipped_before_the_verifier(monkeypatch):
    spec = default_task_spec("sequence-reversal", seed=9)
    prompts, _, _ = generate_dataset(spec, 6, 1, 1)
    # raised PAD and EOS biases make some terminated draws hold a PAD
    model = Model(ModelConfig(vocab_size=13, d_model=8, n_layers=1, n_heads=2,
                              context_length=24, seed=0))
    model.params["head.b"].data[[PAD_ID, EOS_ID]] += 3.0
    rft_sample_batch = rft.sample_batch
    sampled = []

    def recording_sample_batch(*args, **kwargs):
        out = rft_sample_batch(*args, **kwargs)
        sampled.extend(out)
        return out

    monkeypatch.setattr(rft, "sample_batch", recording_sample_batch)
    shown = []

    def accept_all(task, prompt_ids, completion):
        shown.append(completion)
        return True

    data, stats = sample_and_filter(model, prompts, accept_all, RftConfig(seed=1))
    assert any(EOS_ID in c and PAD_ID in c for c in sampled)
    assert shown == [c for c in sampled if EOS_ID in c and PAD_ID not in c]
    assert stats.n_verified == len(shown)
    assert data and all(d.response_ids[-1] == EOS_ID for d in data)


# --- teacher forcing at context_length + 1 tokens ---


def test_token_log_probs_takes_what_teacher_forcing_forwards():
    # context_length 6: a 7-token sequence forwards 6 positions, 8 would forward 7
    model = Model(ModelConfig(vocab_size=8, d_model=8, n_layers=1, n_heads=2,
                              context_length=6, seed=4))
    prompt, response = [2, 3, 4], [5, 6, 7, 1]
    want = batch_token_log_probs(model, np.array([prompt + response])).data[0, 2:]
    assert np.array_equal(model.token_log_probs(prompt, response).data, want)
    with pytest.raises(ValueError, match="context_length"):
        model.token_log_probs(prompt, response + [2])


def test_implicit_reward_scan_takes_data_the_trainer_takes(reversal_data):
    ctx = max(len(d.prompt_ids) + len(d.response_ids) for d in reversal_data) - 1
    config = ModelConfig(vocab_size=13, d_model=8, n_layers=1, n_heads=2,
                         context_length=ctx, seed=5)
    model, _ = train_run(RunConfig(model=config, loss=LossSpec(kind="sft"),
                                   learning_rate=1e-3, batch_size=8, epochs=None,
                                   max_steps=1, warmup_ratio=0.0, seed=7),
                         reversal_data)
    report = implicit_reward_scan(model, reversal_data)
    assert report["n_tokens"] == sum(len(d.response_ids) for d in reversal_data)


# --- empty prompts ---


@pytest.mark.parametrize("response", ["abcdefg" * 3, "a"], ids=["longest", "shorter"])
def test_train_rejects_an_empty_prompt_before_writing(tmp_path, reversal_data, response):
    # As the batch's longest row, only its final EOS would be trained; as a
    # shorter row, it would have no unmasked token and fail at step 1.
    data = reversal_data[:7] + [Demonstration("", response, "sequence-reversal", 1)]
    config = RunConfig(model=ModelConfig(vocab_size=13, d_model=8, n_layers=1, n_heads=2,
                                         context_length=32, seed=5),
                       loss=LossSpec(kind="sft"), learning_rate=1e-3, batch_size=8,
                       epochs=None, max_steps=1, warmup_ratio=0.0, seed=7,
                       output_dir=str(tmp_path / "run"))
    with pytest.raises(ValueError, match="demonstration 7 has an empty prompt"):
        train_run(config, data)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("read_out", [
    lambda model, data: token_histogram(model, data),
    lambda model, data: lowest_bin_tokens(model, data, 0.5),
    implicit_reward_scan,
], ids=["token_histogram", "lowest_bin_tokens", "implicit_reward_scan"])
def test_teacher_forced_read_outs_reject_an_empty_prompt(read_out):
    # collate masks from position plen - 1: counted, the empty prompt's
    # 15 response tokens would come out as 1, for a total of 4, not 18
    model = Model(ModelConfig(vocab_size=13, d_model=8, n_layers=1, n_heads=2,
                              context_length=32, seed=5))
    data = [Demonstration("ab|", "ba", "sequence-reversal", 2),
            Demonstration("", "abcdefgabcdefg", "sequence-reversal", 1)]
    with pytest.raises(ValueError, match="demonstration 1 has an empty prompt"):
        read_out(model, data)
