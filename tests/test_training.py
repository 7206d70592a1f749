import hashlib
import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from dftlab.autodiff import ComputationRecord, Tensor, backward
from dftlab.losses import LossSpec, compute_loss, sft_loss
from dftlab.model import Model, ModelConfig, batch_token_log_probs
from dftlab.tasks import default_task_spec, generate_dataset
from dftlab.seeding import derive_seed
from dftlab.theory import implicit_reward_scan
from dftlab.training import (
    AdamState,
    RunConfig,
    TrainMetrics,
    TrainingAborted,
    adamw_step,
    clip_global_norm,
    collate,
    encode_demonstrations,
    lr_at,
    total_steps_for,
    train_run,
    warmup_steps_for,
)


def run_config(**kw):
    base = dict(
        model=ModelConfig(vocab_size=13, d_model=16, n_layers=1, n_heads=2,
                          context_length=32, seed=5),
        loss=LossSpec(kind="sft"),
        learning_rate=3e-3,
        batch_size=8,
        epochs=None,
        max_steps=20,
        warmup_ratio=0.1,
        weight_decay=0.01,
        seed=7,
    )
    base.update(kw)
    return RunConfig(**base)


def test_run_config_rejects_negative_epochs():
    # -2 epochs would plan -4 steps, train none and still write ckpt_final.bin
    with pytest.raises(ValueError, match="epochs must be >= 0"):
        run_config(epochs=-2, max_steps=None)


@pytest.fixture(scope="module")
def reversal_data():
    spec = default_task_spec("sequence-reversal", seed=2)
    train, _, _ = generate_dataset(spec, 64, 4, 4)
    return train


# --- schedule ---


def test_lr_at_spec_values():
    cfg = run_config(learning_rate=1e-3, max_steps=100)
    assert lr_at(cfg, 10) == pytest.approx(1e-3, abs=1e-18)
    assert lr_at(cfg, 100) == pytest.approx(0.0, abs=1e-18)
    assert lr_at(cfg, 55) == pytest.approx(5e-4, abs=1e-15)
    assert lr_at(cfg, 0) == 0.0


def test_lr_continuous_and_nonnegative():
    cfg = run_config(learning_rate=1e-3, max_steps=40, warmup_ratio=0.25)
    values = [lr_at(cfg, s) for s in range(41)]
    assert all(v >= 0 for v in values)
    assert values[10] == pytest.approx(1e-3)
    assert values[9] == pytest.approx(1e-3 * 9 / 10)
    jumps = np.abs(np.diff(values))
    assert jumps.max() <= 1.2e-4  # no discontinuity at the boundary


def test_lr_constant_schedule():
    cfg = run_config(schedule="constant", max_steps=10, warmup_ratio=0.2)
    assert lr_at(cfg, 2) == cfg.learning_rate
    assert lr_at(cfg, 10) == cfg.learning_rate


def test_lr_rejects_out_of_range_step():
    cfg = run_config(max_steps=10)
    with pytest.raises(ValueError, match="outside"):
        lr_at(cfg, 11)


def test_warmup_must_be_shorter_than_run():
    cfg = run_config(max_steps=1, warmup_ratio=0.9)
    with pytest.raises(ValueError, match="warmup"):
        warmup_steps_for(cfg, total_steps_for(cfg, 100))


# --- AdamW ---


def test_adamw_first_step_hand_computed():
    p = Tensor(np.array([0.0]), requires_grad=True)
    state = adamw_step({"p": p}, {"p": np.array([1.0])}, AdamState(), 0.1, 0.0)
    # m_hat = 1, v_hat = 1: update = -0.1 / (1 + 1e-8)
    expect = -0.1 / (1.0 + 1e-8)
    assert p.data[0] == pytest.approx(expect, abs=1e-15)
    assert state.step == 1


def test_adamw_zero_grad_no_motion():
    p = Tensor(np.array([1.5, -2.0]), requires_grad=True)
    adamw_step({"p": p}, {"p": np.zeros(2)}, AdamState(), 0.1, 0.0)
    assert np.array_equal(p.data, [1.5, -2.0])


def test_adamw_decoupled_decay():
    p = Tensor(np.array([2.0]), requires_grad=True)
    adamw_step({"p": p}, {"p": np.zeros(1)}, AdamState(), 0.1, 0.1)
    assert p.data[0] == pytest.approx(2.0 * (1 - 0.01), abs=1e-15)


def test_adamw_rejects_non_finite_gradient():
    p = Tensor(np.array([0.0]), requires_grad=True)
    with pytest.raises(TrainingAborted, match="'p'"):
        adamw_step({"p": p}, {"p": np.array([np.nan])}, AdamState(), 0.1, 0.0)


def test_adamw_non_finite_gradient_moves_nothing():
    rng = np.random.default_rng(3)
    params = {n: Tensor(rng.standard_normal(4), requires_grad=True) for n in "abc"}
    state = AdamState()
    adamw_step(params, {n: rng.standard_normal(4) for n in "abc"}, state, 0.1, 0.01)
    before = ({n: t.data.copy() for n, t in params.items()},
              {n: a.copy() for n, a in state.m.items()},
              {n: a.copy() for n, a in state.v.items()}, state.step)
    grads = {n: rng.standard_normal(4) for n in "abc"}
    grads["c"][2] = np.nan  # the last parameter, after every other has been seen
    with pytest.raises(TrainingAborted, match="'c' at step 2"):
        adamw_step(params, grads, state, 0.1, 0.01)
    for n in "abc":
        assert np.array_equal(params[n].data, before[0][n])
        assert np.array_equal(state.m[n], before[1][n])
        assert np.array_equal(state.v[n], before[2][n])
    assert state.step == before[3]


def test_clip_global_norm():
    grads = {"a": np.array([3.0, 4.0])}
    norm = clip_global_norm(grads, 1.0)
    assert norm == pytest.approx(5.0)
    assert np.linalg.norm(grads["a"]) == pytest.approx(1.0, rel=1e-9)
    grads2 = {"a": np.array([0.3])}
    clip_global_norm(grads2, 1.0)
    assert grads2["a"][0] == 0.3


# --- batching and masking ---


def test_collate_masks_exactly_response_predictions():
    items = [
        (np.array([2, 3, 4, 5, 1]), 2),  # prompt 2 tokens, response 3 (incl EOS)
        (np.array([6, 7, 1]), 2),
    ]
    ids, mask = collate(items)
    assert ids.shape == (2, 5)
    assert ids[1, 3] == 0 and ids[1, 4] == 0  # padded
    assert mask.tolist() == [
        [False, True, True, True],
        [False, True, False, False],
    ]


def test_batched_loss_equals_per_sequence_loss(reversal_data):
    model = Model(ModelConfig(vocab_size=13, d_model=16, n_layers=1, n_heads=2,
                              context_length=32, seed=3))
    demos = reversal_data[:4]
    ids, mask = collate(encode_demonstrations(demos))
    batched = sft_loss(batch_token_log_probs(model, ids), mask)
    per_seq = [
        sft_loss(model.token_log_probs(d.prompt_ids, d.response_ids)).item()
        for d in demos
    ]
    assert batched.item() == pytest.approx(float(np.mean(per_seq)), rel=1e-12)


def test_prompt_tokens_never_contribute_gradient(reversal_data):
    model = Model(ModelConfig(vocab_size=13, d_model=16, n_layers=1, n_heads=2,
                              context_length=32, seed=4))
    demos = reversal_data[:3]
    ids, mask = collate(encode_demonstrations(demos))
    model.zero_grad()
    backward(sft_loss(batch_token_log_probs(model, ids), mask))
    batched = model.flat_grad()

    model.zero_grad()
    for d in demos:
        loss = sft_loss(model.token_log_probs(d.prompt_ids, d.response_ids))
        backward(loss * (1.0 / len(demos)))
    per_seq = model.flat_grad()
    assert np.max(np.abs(batched - per_seq)) <= 1e-12


# --- train_run ---


def test_zero_steps_returns_initial_model(tmp_path, reversal_data):
    cfg = run_config(max_steps=0, output_dir=str(tmp_path / "run"))
    model, metrics = train_run(cfg, reversal_data)
    assert metrics == []
    fresh = Model(cfg.model)
    for name, t in fresh.params.items():
        assert np.array_equal(t.data, model.params[name].data)
    assert (tmp_path / "run" / "ckpt_step0.bin").exists()
    assert (tmp_path / "run" / "ckpt_final.bin").exists()


def test_train_run_continues_from_initial_model(reversal_data):
    # the continued-training leg of RFT: a few steps from a trained base
    base, _ = train_run(run_config(max_steps=20), reversal_data)
    before = {k: t.data.copy() for k, t in base.params.items()}
    cfg = run_config(loss=LossSpec(kind="dft_token"), learning_rate=1e-3, batch_size=4,
                     max_steps=3, warmup_ratio=0.0, seed=2)
    out, _ = train_run(cfg, reversal_data, initial_model=base)
    # the starting point was the base, not a fresh init
    fresh = Model(cfg.model)
    diff_fresh = sum(
        float(np.abs(out.params[k].data - fresh.params[k].data).sum())
        for k in out.params
    )
    diff_base = sum(
        float(np.abs(out.params[k].data - base.params[k].data).sum())
        for k in out.params
    )
    assert diff_base < diff_fresh
    # and the base model itself was not mutated
    assert not np.array_equal(out.params["head.b"].data,
                              base.params["head.b"].data)
    assert all(np.array_equal(base.params[k].data, v) for k, v in before.items())


def test_train_reduces_loss_and_is_deterministic(tmp_path, reversal_data):
    cfg_a = run_config(max_steps=25, output_dir=str(tmp_path / "a"))
    cfg_b = run_config(max_steps=25, output_dir=str(tmp_path / "b"))
    model_a, metrics_a = train_run(cfg_a, reversal_data)
    model_b, metrics_b = train_run(cfg_b, reversal_data)
    assert metrics_a[-1].loss < metrics_a[0].loss
    for name, t in model_a.params.items():
        assert np.isfinite(t.data).all(), f"{name} not finite after training"
    csv_a = (tmp_path / "a" / "metrics.csv").read_bytes()
    csv_b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert csv_a == csv_b
    for name, t in model_a.params.items():
        assert np.array_equal(t.data, model_b.params[name].data), name
    steps = [m.step for m in metrics_a]
    assert steps == sorted(set(steps))


def test_run_dir_contents_and_manifest(tmp_path, reversal_data):
    out = tmp_path / "run"
    cfg = run_config(max_steps=4, eval_every=2, output_dir=str(out))
    hook = lambda step, model: {"probe": float(step)}
    train_run(cfg, reversal_data, eval_hooks=[hook])
    for name in ("config.json", "metrics.csv", "metrics.jsonl", "evals.jsonl",
                 "manifest.json", "ckpt_step0.bin", "ckpt_step2.bin",
                 "ckpt_step4.bin", "ckpt_final.bin"):
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    listed = {e["file"] for e in manifest["files"]}
    assert "metrics.csv" in listed and "manifest.json" not in listed
    for entry in manifest["files"]:
        assert entry["bytes"] == os.path.getsize(out / entry["file"])
    evals = [json.loads(line) for line in (out / "evals.jsonl").read_text().splitlines()]
    assert [e["step"] for e in evals] == [2, 4]
    rows = (out / "metrics.csv").read_text().splitlines()
    assert rows[0] == "step,lr,loss,mean_p"
    assert len(rows) == 5


def test_metrics_jsonl_logs_the_pre_clip_gradient_norm(tmp_path, reversal_data):
    rows = {}
    for name, clip in (("tight", 1e-3), ("loose", 1e6), ("off", None)):
        out = tmp_path / name
        _, metrics = train_run(run_config(max_steps=3, grad_clip_norm=clip,
                                          output_dir=str(out)), reversal_data)
        lines = (out / "metrics.jsonl").read_text().splitlines()
        rows[name] = [json.loads(line) for line in lines]
        assert [(r["grad_norm"], r["clipped"]) for r in rows[name]] == [
            (m.grad_norm, m.clipped) for m in metrics]
        assert (out / "metrics.csv").read_text().splitlines()[0] == "step,lr,loss,mean_p"
    assert all(r["clipped"] and r["grad_norm"] > 1e-3 for r in rows["tight"])
    assert not any(r["clipped"] for r in rows["loose"])
    # the same init and first batch: the same pre-clip norm, clipped or not
    assert rows["tight"][0]["grad_norm"] == rows["loose"][0]["grad_norm"]
    assert all(r["grad_norm"] is None and not r["clipped"] for r in rows["off"])


def test_metrics_jsonl_logs_the_polarization_bins(tmp_path, reversal_data):
    # C9's bins over the step's own loss tokens: train a base far enough
    # to fill both, then take one step from it, whose forward is the base's
    base, _ = train_run(run_config(max_steps=300, learning_rate=1e-2), reversal_data)
    items = reversal_data[:16]
    out = tmp_path / "run"
    train_run(run_config(max_steps=1, batch_size=len(items), output_dir=str(out)),
              items, initial_model=base)
    ids, mask = collate(encode_demonstrations(items))
    p = np.exp(batch_token_log_probs(base.detached(), ids).data)[mask]
    (row,) = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
    assert row["frac_p_below_0_05"] == float((p < 0.05).mean()) > 0
    assert row["frac_p_above_0_95"] == float((p > 0.95).mean()) > 0
    assert (out / "metrics.csv").read_text().splitlines()[0] == "step,lr,loss,mean_p"


def test_metrics_jsonl_logs_the_batch_mean_sequence_probability(tmp_path, reversal_data):
    # the mean over the batch's rows of pi(y*|x), the product of a row's
    # response-token probabilities, from the step's own log-probs
    items = reversal_data[:8]
    out = tmp_path / "run"
    config = run_config(max_steps=1, batch_size=len(items), output_dir=str(out))
    (m,) = train_run(config, items)[1]
    order = np.random.default_rng(derive_seed(config.seed, "train", "shuffle")).permutation(8)
    ids, mask = collate(encode_demonstrations([items[i] for i in order]))
    logp = batch_token_log_probs(Model(config.model), ids).data
    by_hand = [math.exp(sum(logp[r, j] for j in range(logp.shape[1]) if mask[r, j]))
               for r in range(len(items))]
    assert m.mean_seq_p == pytest.approx(sum(by_hand) / len(by_hand), rel=1e-12)
    assert 0 < m.mean_seq_p <= 1
    (row,) = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
    assert row["mean_seq_p"] == m.mean_seq_p
    assert (out / "metrics.csv").read_text().splitlines()[0] == "step,lr,loss,mean_p"
    del row["mean_seq_p"]  # a row written before the field existed still decodes
    assert TrainMetrics.from_dict(row).mean_seq_p is None


def test_one_graph_is_alive_at_a_time(reversal_data):
    # Every step trains on the same 16 items, so each graph has one size.
    # A step drops its graph before the next forward, so four steps peak
    # where one does; holding it into the next forward read 1.62x here.
    items = reversal_data[:16]

    def peak(steps):
        tracemalloc.start()
        try:
            train_run(run_config(max_steps=steps, batch_size=len(items)), items)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4) <= 1.1 * peak(1)


def test_backward_adds_little_to_the_forward_peak():
    # At the acceptance shape, a step (forward, loss, backward) peaks at
    # 1.20x the forward with its graph alive. Storing every interior
    # gradient on its tensor, and holding every interior tensor in the
    # graph, read 1.60x.
    spec = default_task_spec("addition-scratchpad", seed=0)
    train, _, _ = generate_dataset(spec, 32, 4, 4)
    ids, mask = collate(encode_demonstrations(train))
    model = Model(ModelConfig(vocab_size=17, d_model=32, n_layers=2, n_heads=2,
                              context_length=64, seed=0))

    def peak(with_backward):
        tracemalloc.start()
        try:
            loss = compute_loss(LossSpec("dft_token"), batch_token_log_probs(model, ids), mask)
            if with_backward:
                model.zero_grad()
                backward(loss)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(True) <= 1.3 * peak(False)


def _held_arrays(rule):
    """Every array a backward rule captures, through nested functions and tuples."""
    stack, seen = [rule], set()
    while stack:
        value = stack.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, (tuple, list)):
            stack.extend(value)
        else:
            for cell in getattr(value, "__closure__", None) or ():
                try:
                    stack.append(cell.cell_contents)
                except ValueError:  # a cell not yet filled
                    pass


def test_no_backward_rule_holds_a_hidden_layer_array():
    # At the acceptance shape the MLP's (batch, length, 4d) arrays were half
    # of a step's graph: gelu's rule held its input and tanh, and the second
    # matmul's rule held gelu's output. The mlp node keeps only its input
    # and recomputes the hidden layer in backward.
    spec = default_task_spec("addition-scratchpad", seed=0)
    train, _, _ = generate_dataset(spec, 32, 4, 4)
    ids, mask = collate(encode_demonstrations(train))
    model = Model(ModelConfig(vocab_size=17, d_model=32, n_layers=2, n_heads=2,
                              context_length=64, seed=0))
    loss = compute_loss(LossSpec("dft_token"), batch_token_log_probs(model, ids), mask)
    params = {id(t.data) for t in model.params.values()}
    hidden = 4 * model.config.d_model
    held = []
    for node in ComputationRecord.trace(loss):
        for a in _held_arrays(node.backward):
            while a is not None and id(a) not in params:
                if a.shape[-1:] == (hidden,):
                    held.append((node.op, a.shape))
                a = a.base if isinstance(a.base, np.ndarray) else None
    assert held == []


def test_training_determinism_golden(monkeypatch):
    # recorded once at the acceptance shape (V=17, d=32, L=2, H=2, batch 32):
    # three steps of each arm; guards every bit of the forward, the losses,
    # backward and AdamW, which the logits golden in test_model never reaches.
    # Run as on a 1-CPU and on a 2-CPU box, so that both the serial step and
    # the step split over two threads (dftlab.model) meet it on any machine.
    spec = default_task_spec("addition-scratchpad", seed=0)
    train, _, _ = generate_dataset(spec, 64, 4, 4)
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        h = hashlib.sha256()
        for kind in ("sft", "dft_token", "dft_sequence"):
            mc = ModelConfig(vocab_size=17, d_model=32, n_layers=2, n_heads=2,
                             context_length=64, seed=0)
            cfg = RunConfig(model=mc, loss=LossSpec(kind=kind), learning_rate=3e-3,
                            batch_size=32, epochs=None, max_steps=3, warmup_ratio=0.1, seed=0)
            model, metrics = train_run(cfg, train)
            h.update(np.array([m.loss for m in metrics], dtype="<f8").tobytes())
            for name, t in model.named_parameters():
                h.update(name.encode())
                h.update(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
        assert h.hexdigest() == GOLDEN_TRAIN_SHA256, f"{len(cpus)} CPU(s)"


GOLDEN_TRAIN_SHA256 = "47e2ae2dc746e03379c4ebaecb9e30b316de82faa02749ea1e96a1047315995f"


def test_non_finite_loss_aborts_with_checkpoint(tmp_path, reversal_data):
    out = tmp_path / "run"

    def poison(step, model):
        model.params["head.b"].data[0] = np.nan
        return {}

    cfg = run_config(max_steps=10, eval_every=1, output_dir=str(out))
    with pytest.raises(TrainingAborted, match="non-finite loss"):
        train_run(cfg, reversal_data, eval_hooks=[poison])
    assert (out / "ckpt_step1.bin").exists()  # written before the hook poisoned it
    assert not (out / "ckpt_final.bin").exists()


def test_iw_sft_training_runs(reversal_data):
    cfg = run_config(loss=LossSpec(kind="iw_sft", iw_clip=4.0), max_steps=3)
    _, metrics = train_run(cfg, reversal_data)
    assert len(metrics) == 3
    assert all(math.isfinite(m.loss) for m in metrics)


def test_training_lowers_implicit_weight_tail():
    # fixed-seed directional check; needs enough training that the hard
    # tail is actually learned, not just the easy separators
    from dftlab.tasks import default_task_spec, generate_dataset

    spec = default_task_spec("addition-scratchpad", seed=2)
    train, _, _ = generate_dataset(spec, 128, 4, 4)
    mc = ModelConfig(vocab_size=17, d_model=32, n_layers=2, n_heads=2,
                     context_length=48, seed=5)
    cfg = RunConfig(model=mc, loss=LossSpec(kind="sft"), learning_rate=4e-3,
                    batch_size=16, epochs=None, max_steps=450,
                    warmup_ratio=0.1, seed=7)
    model, _ = train_run(cfg, train)
    before = implicit_reward_scan(Model(mc), train[:32])
    after = implicit_reward_scan(model, train[:32])
    assert after["quantiles"]["p99"] < before["quantiles"]["p99"]


def test_train_rejects_empty_dataset():
    with pytest.raises(ValueError, match="non-empty"):
        train_run(run_config(), [])


def test_train_rejects_an_overlong_demonstration_before_writing(tmp_path, reversal_data):
    lengths = [len(ids) for ids, _ in encode_demonstrations(reversal_data)]
    ctx = max(lengths) - 2
    first = next(i for i, n in enumerate(lengths) if n - 1 > ctx)
    model = ModelConfig(vocab_size=13, d_model=16, n_layers=1, n_heads=2,
                        context_length=ctx, seed=5)
    out = tmp_path / "run"
    cfg = run_config(model=model, output_dir=str(out))
    with pytest.raises(ValueError, match=f"demonstration {first} has {lengths[first]} tokens"):
        train_run(cfg, reversal_data)
    assert not out.exists()
