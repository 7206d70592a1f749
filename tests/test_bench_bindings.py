"""The benchmark wraps lab functions by the names its callers bind them to.

A traced benchmark run wraps ``training.compute_loss``,
``cli.run_verification``, ``Model.forward`` and more (``Lab.install`` in
``bench/workloads.py``), and times each autodiff primitive by name
(``op_timings``). Installing, removing and timing them here makes a
rename or deletion of a wrapped name fail the fast suite rather than a
benchmark run. Nothing is written to disk.
"""

import os
import sys
import types
from concurrent.futures import ThreadPoolExecutor

from dftlab import evalreport, losses, training
from dftlab import model as model_mod
from dftlab.model import Model, ModelConfig

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import inputs  # noqa: E402
import warm  # noqa: E402
import workloads  # noqa: E402


def test_benchmark_bindings_resolve(tmp_path):
    lab = workloads.Lab("finetune", 0, str(tmp_path / "never-made"))
    lab.install(trace=True)
    try:
        assert training.compute_loss is not losses.compute_loss  # wrapped
    finally:
        lab.uninstall()
    assert training.compute_loss is losses.compute_loss  # and put back
    assert not (tmp_path / "never-made").exists()
    timings = workloads.op_timings(reps=1)
    assert set(timings) == {"matmul", "gelu", "softmax", "layer_norm", "embedding", "gather",
                            "mask_fill", "add"}


def test_a_traced_split_forward_records_one_span_per_batch(tmp_path, monkeypatch):
    """The split forward's halves run on two threads, but neither calls the
    wrapped ``Model.forward``, whose recorder keeps one span stack."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    halves, pool = [], ThreadPoolExecutor(1)
    monkeypatch.setattr(model_mod, "_helper", types.SimpleNamespace(
        submit=lambda fn, part: halves.append(part.shape) or pool.submit(fn, part)))
    train = inputs.make_inputs(5, 128, 0, 0)["train"]
    rows = evalreport.TEACHER_FORCED_BATCH
    batches = [training.collate(training.encode_demonstrations(train[lo:lo + rows]))[0]
               for lo in range(0, len(train), rows)]
    lab = workloads.Lab("finetune", 0, str(tmp_path / "never-made"))
    lab.install(trace=True)
    try:
        hist = evalreport.token_histogram(Model(ModelConfig(**warm.MODEL)), train)
    finally:
        lab.uninstall()
        pool.shutdown()
    spans = lab.rec.named("model.forward")
    assert [s[4]["positions"] for s in spans] == [ids[:, :-1].size for ids in batches]
    assert [lab.rec.spans[s[3]][0] for s in spans] == ["model.batch_token_log_probs"] * 2
    assert halves == [(rows - rows // 2, ids.shape[1] - 1) for ids in batches]
    assert hist.total == sum(len(d.response_ids) for d in train)


def test_a_traced_split_training_step_records_one_span_of_each_layer(tmp_path, monkeypatch):
    """A split step runs its row halves' forwards and backward walks on two
    threads, but only the caller calls the wrapped names, once per step."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    jobs, pool = [], ThreadPoolExecutor(1)
    monkeypatch.setattr(model_mod, "_helper", types.SimpleNamespace(
        submit=lambda fn, part: jobs.append(getattr(part, "shape", part)) or pool.submit(fn, part)))
    train = inputs.make_inputs(5, 128, 0, 0)["train"][:32]
    ids, _ = training.collate(training.encode_demonstrations(train))
    config = training.RunConfig(model=ModelConfig(**warm.MODEL), batch_size=len(train),
                                epochs=None, max_steps=3)
    lab = workloads.Lab("finetune", 0, str(tmp_path / "never-made"))
    lab.install(trace=True)
    try:
        training.train_run(config, train)
    finally:
        lab.uninstall()
        pool.shutdown()
    spans = {name: lab.rec.named(name) for name in (
        "model.forward", "model.batch_token_log_probs", "losses.compute_loss",
        "autodiff.backward[training]")}
    assert {name: len(found) for name, found in spans.items()} == dict.fromkeys(spans, 3)
    assert [s[4]["positions"] for s in spans["model.forward"]] == [ids[:, :-1].size] * 3
    assert [lab.rec.spans[s[3]][0] for s in spans["model.forward"]] == [
        "model.batch_token_log_probs"] * 3
    assert all(s[3] == -1 for name, found in spans.items() if name != "model.forward"
               for s in found)
    half = (len(train) - len(train) // 2, ids.shape[1] - 1)
    assert jobs == [half, 1] * 3  # each step's forward and backward split
