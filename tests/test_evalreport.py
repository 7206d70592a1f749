import json

import numpy as np
import pytest

from dftlab import autodiff
from dftlab.evalreport import (
    DEFAULT_BIN_EDGES,
    EvalResult,
    ProbHistogram,
    comparison_report,
    evaluate,
    lowest_bin_tokens,
    token_histogram,
    write_comparison,
)
from dftlab.losses import LossSpec
from dftlab.model import Model, ModelConfig, sample_batch
from dftlab.tasks import Demonstration, default_task_spec, generate_dataset
from dftlab.training import RunConfig, train_run

MODEL_CFG = ModelConfig(vocab_size=13, d_model=16, n_layers=1, n_heads=2,
                        context_length=24, seed=3)


@pytest.fixture(scope="module")
def memorized():
    demo = Demonstration("abc|", "cba", "sequence-reversal", 3)
    cfg = RunConfig(model=MODEL_CFG, loss=LossSpec(kind="sft"),
                    learning_rate=5e-3, batch_size=4, epochs=None,
                    max_steps=60, warmup_ratio=0.1, seed=1)
    model, _ = train_run(cfg, [demo] * 4)
    return model, demo


@pytest.fixture(scope="module")
def addition_bits():
    spec = default_task_spec("addition-scratchpad", seed=4)
    train, _, _ = generate_dataset(spec, 12, 2, 2)
    model = Model(ModelConfig(vocab_size=17, d_model=16, n_layers=1, n_heads=2,
                              context_length=48, seed=6))
    return model, train


def test_a_gradient_free_forward_builds_no_graph(addition_bits, monkeypatch):
    model, train = addition_bits
    made = []
    make = autodiff._make

    def counting(*args):
        made.append(args[1])
        return make(*args)

    monkeypatch.setattr(autodiff, "_make", counting)
    prompts = [d.prompt_ids for d in train]
    for net in (model.detached(), model):  # the read-outs detach a trainable model themselves
        for greedy in (False, True):
            sample_batch(net, prompts, 8, 0.7, list(range(len(prompts))), greedy)
        token_histogram(net, train)
    assert made == []
    logits = model.forward(np.array([prompts[0]]))
    assert made and logits.requires_grad and logits._node is not None


# --- evaluate ---


def test_perfect_model_scores_one(memorized):
    model, demo = memorized
    result = evaluate(model, [demo], k=1, temperature=1.0, seed=0, greedy=True)
    assert result.avg_at_k == 1.0


def test_avg_at_k_mean_definition():
    result = EvalResult(task_tag="sequence-reversal", split="in-dist", k=16,
                        temperature=1.0, correctness=[[True] * 8 + [False] * 8])
    assert result.avg_at_k == 0.5
    with pytest.raises(ValueError, match="prompts x k"):
        EvalResult(task_tag="sequence-reversal", split="in-dist", k=0, temperature=1.0,
                   correctness=[[]])


def test_evaluate_deterministic(memorized):
    model, demo = memorized
    a = evaluate(model, [demo], k=4, temperature=1.0, seed=5)
    b = evaluate(model, [demo], k=4, temperature=1.0, seed=5)
    assert a.to_dict() == b.to_dict()


def test_greedy_k1_matches_single_decode(memorized):
    from dftlab.tasks import verify

    model, demo = memorized
    result = evaluate(model, [demo], k=1, temperature=1.0, seed=0, greedy=True)
    single = model.sample(demo.prompt_ids, max_new=24, greedy=True)
    assert result.correctness[0][0] == verify(demo.task, demo.prompt_ids, single)


def test_eval_result_round_trip_and_invariant(memorized):
    model, demo = memorized
    result = evaluate(model, [demo], k=4, temperature=1.0, seed=5)
    recovered = EvalResult.from_dict(result.to_dict())
    assert recovered.avg_at_k == result.avg_at_k
    tampered = result.to_dict()
    tampered["avg_at_k"] = 0.123
    with pytest.raises(ValueError, match="avg_at_k"):
        EvalResult.from_dict(tampered)


# --- histograms ---


def test_uniform_model_concentrates_in_one_bin(addition_bits):
    model, train = addition_bits
    uniform = Model(model.config)
    uniform.params["head.w"].data[:] = 0.0
    uniform.params["head.b"].data[:] = 0.0
    hist = token_histogram(uniform, train)
    # every token probability is exactly 1/17, which lands in [0.05, 0.1)
    expect_bin = int(np.searchsorted(DEFAULT_BIN_EDGES, 1 / 17, side="right") - 1)
    assert hist.counts[expect_bin] == hist.total
    assert sum(hist.counts) == hist.total


def test_histogram_binning_semantics():
    counts, _ = np.histogram([0.9, 0.1, 0.5], bins=[0.0, 0.2, 0.8, 1.0])
    assert counts.tolist() == [1, 1, 1]
    ProbHistogram(bin_edges=[0.0, 0.2, 0.8, 1.0], counts=[1, 1, 1], total=3,
                  model_tag="t")


def test_histogram_conservation(addition_bits):
    model, train = addition_bits
    hist = token_histogram(model, train, model_tag="untrained")
    n_tokens = sum(len(d.response_ids) for d in train)
    assert hist.total == n_tokens
    assert sum(hist.counts) == n_tokens
    recovered = ProbHistogram.from_dict(hist.to_dict())
    assert recovered.counts == hist.counts
    tampered = hist.to_dict()
    tampered["fractions"][0] += 0.5
    with pytest.raises(ValueError, match="fractions"):
        ProbHistogram.from_dict(tampered)


def test_histogram_rejects_bad_edges():
    with pytest.raises(ValueError, match="edges"):
        ProbHistogram(bin_edges=[0.1, 1.0], counts=[1], total=1, model_tag="")
    with pytest.raises(ValueError, match="sum"):
        ProbHistogram(bin_edges=[0.0, 1.0], counts=[2], total=3, model_tag="")
    with pytest.raises(ValueError, match="edges"):
        ProbHistogram(bin_edges=[], counts=[], total=0, model_tag="")
    with pytest.raises(ValueError, match="edges"):  # NaN compares false both ways
        ProbHistogram(bin_edges=[0.0, float("nan"), 1.0], counts=[1, 0], total=1, model_tag="")
    with pytest.raises(ValueError, match="1 non-negative counts"):
        ProbHistogram(bin_edges=[0.0, 1.0], counts=[1, 0], total=1, model_tag="")
    with pytest.raises(ValueError, match="2 non-negative counts"):
        ProbHistogram(bin_edges=[0.0, 0.5, 1.0], counts=[-1, 2], total=1, model_tag="")


# --- lowest-bin tokens ---


def test_lowest_bin_thresholds(addition_bits):
    model, train = addition_bits
    assert lowest_bin_tokens(model, train, 0.0) == []
    everything = lowest_bin_tokens(model, train, 1.0)
    n_tokens = sum(len(d.response_ids) for d in train)
    assert sum(c for _, c in everything) == n_tokens
    counts = [c for _, c in everything]
    assert counts == sorted(counts, reverse=True)


# --- comparison report ---


def _fake_run(tmp_path, name, loss_kind, in_acc=None, with_hist=False):
    d = tmp_path / name
    d.mkdir(parents=True)
    cfg = RunConfig(model=MODEL_CFG, loss=LossSpec(kind=loss_kind),
                    max_steps=1, epochs=None)
    (d / "config.json").write_text(json.dumps(cfg.to_dict()))
    (d / "metrics.csv").write_text("step,lr,loss,mean_p\n1,0.001,2.5,0.1\n")
    if in_acc is not None:
        result = EvalResult(task_tag="t", split="in-dist", k=2, temperature=1.0,
                            correctness=[[True, in_acc > 0.5]])
        (d / "eval_in.json").write_text(json.dumps(result.to_dict()))
    if with_hist:
        hist = ProbHistogram(bin_edges=[0.0, 0.5, 1.0], counts=[3, 1], total=4,
                             model_tag=name)
        (d / "histogram.json").write_text(json.dumps(hist.to_dict()))
    return str(d)


def test_comparison_report_empty():
    report = comparison_report([])
    assert report == {"rows": [], "errors": []}


def test_comparison_identical_runs_identical_rows(tmp_path):
    a = _fake_run(tmp_path / "x", "run", "sft", in_acc=1.0, with_hist=True)
    b = _fake_run(tmp_path / "y", "run", "sft", in_acc=1.0, with_hist=True)
    report = comparison_report([a, b])
    assert report["rows"][0] == report["rows"][1]
    assert report["rows"][0]["hist_low_frac"] == 0.75


def test_comparison_reads_a_config_that_omits_unset_loss_knobs(tmp_path):
    # config.json as it was written before every LossSpec field was listed:
    # no "gamma" and no "iw_clip" keys
    run = tmp_path / "old"
    _fake_run(tmp_path, "old", "dft_token")
    config = json.loads((run / "config.json").read_text())
    config["loss"] = {"kind": "dft_token", "reduction": "mean"}
    (run / "config.json").write_text(json.dumps(config))
    report = comparison_report([str(run)])
    assert report["errors"] == []
    assert [row["loss_kind"] for row in report["rows"]] == ["dft_token"]


def test_comparison_marks_missing_and_collects_errors(tmp_path):
    good = _fake_run(tmp_path, "good", "dft_token")
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / "config.json").write_text("{not json")
    report = comparison_report([good, str(broken)])
    assert len(report["rows"]) == 1
    assert report["rows"][0]["in_dist_acc"] is None
    assert len(report["errors"]) == 1

    csv_path = tmp_path / "report.csv"
    json_path = tmp_path / "report.json"
    write_comparison(report, csv_path, json_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "run,loss_kind,in_dist_acc,ood_acc,final_train_loss,hist_low_frac,hist_high_frac"
    assert "missing" in lines[1]
    assert json.loads(json_path.read_text())["errors"]
