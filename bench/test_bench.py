"""Fast tests of the benchmark's own reference computations and checks."""

import math
import struct

import numpy as np
import pytest

import checks
import reference
import warm
from dftlab.model import Model, ModelConfig, save_checkpoint
from inputs import EOS, completion_ok, encode, make_inputs, scratchpad, well_formed

TINY = ModelConfig(vocab_size=9, d_model=16, n_layers=2, n_heads=2, context_length=12, seed=3)


def _params(model):
    return {name: t.data for name, t in model.params.items()}


def test_reference_forward_matches_model_forward():
    model = Model(TINY)
    for t in model.params.values():  # move off the init so every layer matters
        t.data += np.random.default_rng(0).normal(0.0, 0.3, size=t.data.shape)
    ids = np.random.default_rng(1).integers(0, TINY.vocab_size, size=(3, 10))
    got = model.forward(ids).data
    want = reference.logits(_params(model), TINY.n_layers, TINY.n_heads, ids)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_checker_accepts_the_scratchpad_and_rejects_corruptions():
    prompt = encode("27+35=")
    good = encode(scratchpad(27, 35)) + [EOS]
    assert scratchpad(27, 35) == "7+5=12,c1;2+3+1=6;=62"
    assert completion_ok(prompt, good)
    wrong_answer = good[:-2] + [encode("3")[0], EOS]
    assert not completion_ok(prompt, wrong_answer)
    assert not completion_ok(prompt, good[:-1])                 # no EOS
    assert not completion_ok(prompt, good[:3] + [0] + good[3:])  # sampled PAD
    assert well_formed(good, limit=64) and not well_formed(good + [EOS], limit=64)


def test_inputs_keep_their_make_up():
    data = make_inputs(5, 8, 6, 4)
    assert [d.difficulty for d in data["train"]] == [2, 3] * 4
    assert {d.difficulty for d in data["eval_ood"]} == {4}
    prompts = [d.prompt for split in data.values() for d in split]
    assert len(prompts) == len(set(prompts))
    assert all(completion_ok(d.prompt_ids, d.response_ids) for split in data.values() for d in split)
    assert make_inputs(5, 8, 6, 4)["eval_in"] == data["eval_in"]


def test_wrong_logged_loss_is_flagged():
    losses = [2.5, 2.25, 2.0]
    csv = "step,lr,loss,mean_p\n" + "".join(f"{i + 1},0.003,{v!r},0.5\n" for i, v in enumerate(losses))
    assert checks.logged_losses(csv, losses, 2.5) == []
    assert checks.logged_losses(csv, losses, 2.5 + 1e-6)       # step 1 not the objective
    bad = csv.replace("2.25", "2.2500001")
    assert checks.logged_losses(bad, losses, 2.5)               # log differs from returned
    nan = csv.replace("2.25", "nan")
    assert any("non-finite" in p for p in checks.logged_losses(nan, [2.5, math.nan, 2.0], 2.5))


def test_reference_objective_matches_definition():
    logp = np.log(np.array([[0.5, 0.25, 0.9], [0.8, 0.1, 0.3]]))
    mask = np.array([[True, True, False], [False, True, True]])
    sft = (-(logp[0, 0] + logp[0, 1]) / 2 - (logp[1, 1] + logp[1, 2]) / 2) / 2
    assert reference.objective("sft", logp, mask) == pytest.approx(sft, abs=1e-15)
    p = np.exp(logp)
    dft = (-(p[0, 0] * logp[0, 0] + p[0, 1] * logp[0, 1]) / 2
           - (p[1, 1] * logp[1, 1] + p[1, 2] * logp[1, 2]) / 2) / 2
    assert reference.objective("dft_token", logp, mask) == pytest.approx(dft, abs=1e-15)


def test_checkpoint_parse_rejects_partial_and_padded_files(tmp_path):
    path = tmp_path / "tiny.ckpt"
    save_checkpoint(Model(TINY), path)
    raw = path.read_bytes()
    cfg, params = warm.parse(raw)
    assert len(params) == len(Model(TINY).params) and cfg["d_model"] == 16
    with pytest.raises(ValueError, match="trailing"):
        warm.parse(raw + b"\0" * 8)
    cfg_len = struct.unpack("<I", raw[8:12])[0]
    at = 12 + cfg_len
    wte_record = 4 + len("wte") + 4 + 2 * 8 + TINY.vocab_size * TINY.d_model * 8
    one = raw[:at] + struct.pack("<I", 1) + raw[at + 4:at + 4 + wte_record]
    with pytest.raises(ValueError, match="parameter set"):
        warm.parse(one)


def test_oracle_report_check_reads_the_stated_tolerance():
    report = [{"name": n, "passed": True, "detail": "max abs deviation 1.0e-16 over x, tol 1e-10"}
              for n in checks.ORACLES]
    assert checks.oracle_report(0, report) == []
    report[0]["detail"] = "max abs deviation 3.0e-09 over x, tol 1e-10"
    assert checks.oracle_report(0, report)
    assert checks.oracle_report(2, report[1:])
