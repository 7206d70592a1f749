"""A training step splits its rows over two threads and keeps the serial bits.

A forward that ``Model.forward`` splits (no ``KVCache``, 2 rows or more,
rows × length × ``d_model`` at least ``BLOCK_ELEMS``, 2 CPUs allowed)
joins its two row halves with ``autodiff.row_join``; ``backward`` walks
each half's subgraph on its own thread, and the two walks share every
gradient that sums over batch rows. Every test here compares a split
step against the serial step, run with the affinity patched to one CPU,
byte for byte: the loss, every parameter's ``.grad``, and the parameters
and ``metrics.csv`` after three AdamW steps.
"""

import multiprocessing
import os
import sys
import threading

import numpy as np
import pytest

from dftlab import autodiff, parallel
from dftlab.autodiff import BLOCK_ELEMS, backward
from dftlab.losses import KINDS, REDUCTIONS, LossSpec, compute_loss
from dftlab.model import Model, ModelConfig, batch_token_log_probs
from dftlab.tasks import default_task_spec, generate_dataset
from dftlab.training import (
    AdamState,
    RunConfig,
    adamw_step,
    collate,
    encode_demonstrations,
    train_run,
)
from helpers import CountingHelper, RefusingHelper, cpus

ACCEPTANCE = ModelConfig(vocab_size=17, d_model=32, n_layers=2, n_heads=2,
                         context_length=64, seed=0)
DEFAULT = ModelConfig(vocab_size=17, seed=3)
TIMEOUT_S = 60


def same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def spec_for(kind, reduction="mean"):
    return LossSpec(kind, gamma=2.0 if kind == "focal" else None, reduction=reduction)


@pytest.fixture(scope="module")
def demos():
    train, _, _ = generate_dataset(default_task_spec("addition-scratchpad", seed=0), 64, 4, 4)
    return train


def batch(demos, rows):
    return collate(encode_demonstrations(demos[:rows]))


@pytest.fixture
def helper(monkeypatch):
    """A 2-CPU process whose helper thread counts its jobs."""
    cpus(monkeypatch, 2)
    counting = CountingHelper()
    monkeypatch.setattr(parallel, "_helper", counting)
    yield counting.jobs
    counting.pool.shutdown()


def step(model, ids, mask, spec):
    """One step's loss and every parameter's gradient: forward, loss, backward."""
    ref = None
    if spec.kind == "iw_sft":
        ref = batch_token_log_probs(model.detached(), ids).data
    model.zero_grad()
    loss = compute_loss(spec, batch_token_log_probs(model, ids), mask, reference_log_probs=ref)
    backward(loss)
    return loss.data.copy(), {name: t.grad.copy() for name, t in model.params.items()}


def serial_step(monkeypatch, model, ids, mask, spec):
    with monkeypatch.context() as m:
        cpus(m, 1)
        m.setattr(parallel, "_helper", RefusingHelper())
        return step(model, ids, mask, spec)


def same_step(got, want):
    (loss, grads), (want_loss, want_grads) = got, want
    return same_bits(loss, want_loss) and grads.keys() == want_grads.keys() and all(
        same_bits(grads[name], want_grads[name]) for name in grads)


@pytest.mark.parametrize("reduction", REDUCTIONS)
@pytest.mark.parametrize("kind", KINDS)
def test_a_split_step_keeps_the_serial_loss_and_gradients(monkeypatch, helper, demos, kind,
                                                         reduction):
    ids, mask = batch(demos, 32)
    model, spec = Model(ACCEPTANCE), spec_for(kind, reduction)
    want = serial_step(monkeypatch, model, ids, mask, spec)
    assert same_step(step(model, ids, mask, spec), want)
    forwards = 2 if kind == "iw_sft" else 1  # iw_sft's reference forward splits too
    assert helper == [(16, ids.shape[1] - 1)] * forwards + [1]


@pytest.mark.parametrize("config, rows, length", [
    (ACCEPTANCE, 32, None), (ACCEPTANCE, 33, None), (DEFAULT, 8, None), (DEFAULT, 2, 129),
], ids=["acceptance-32", "acceptance-33", "default-8", "default-2"])
def test_a_split_step_keeps_the_serial_bits_at_every_size(monkeypatch, helper, demos, config,
                                                          rows, length):
    if length is None:
        ids, mask = batch(demos, rows)
    else:  # longer than any demonstration: random tokens, the first 10 of them a prompt
        ids = np.random.default_rng(rows).integers(2, config.vocab_size, size=(rows, length))
        mask = np.ones((rows, length - 1), dtype=bool)
        mask[:, :9] = False
    b, t = rows, ids.shape[1] - 1
    assert b * t * config.d_model >= BLOCK_ELEMS
    if config is ACCEPTANCE:  # the serial mlp's row blocks: one straddles the split point
        per_block = BLOCK_ELEMS // (t * 4 * config.d_model)
        assert per_block == 5 and (b // 2) % per_block != 0
    model, spec = Model(config), spec_for("dft_token")
    want = serial_step(monkeypatch, model, ids, mask, spec)
    assert same_step(step(model, ids, mask, spec), want)
    assert helper == [(b - b // 2, t), 1]


def train_three_steps(monkeypatch, tmp_path, demos, kind, reduction, n_cpus):
    with monkeypatch.context() as m:
        cpus(m, n_cpus)
        config = RunConfig(model=ACCEPTANCE, loss=spec_for(kind, reduction), learning_rate=3e-3,
                           batch_size=32, epochs=None, max_steps=3, seed=0,
                           output_dir=str(tmp_path / f"{kind}-{reduction}-{n_cpus}"))
        model, _ = train_run(config, demos)
    csv = (tmp_path / f"{kind}-{reduction}-{n_cpus}" / "metrics.csv").read_bytes()
    return {name: t.data.copy() for name, t in model.params.items()}, csv


@pytest.mark.parametrize("reduction", REDUCTIONS)
@pytest.mark.parametrize("kind", KINDS)
def test_three_split_adamw_steps_keep_the_serial_parameters(monkeypatch, tmp_path, helper, demos,
                                                           kind, reduction):
    params, csv = train_three_steps(monkeypatch, tmp_path, demos, kind, reduction, 2)
    assert helper.count(1) == 3  # three split backwards
    want_params, want_csv = train_three_steps(monkeypatch, tmp_path, demos, kind, reduction, 1)
    assert csv == want_csv
    assert all(same_bits(params[name], want_params[name]) for name in want_params)


@pytest.mark.parametrize("case", ["below-one-block", "one-cpu"])
def test_a_small_batch_or_a_one_cpu_process_never_reaches_the_helper(monkeypatch, demos, case):
    monkeypatch.setattr(parallel, "_helper", RefusingHelper())
    if case == "below-one-block":
        cpus(monkeypatch, 2)
        ids, mask = batch(demos, 2)
        assert ids.size * ACCEPTANCE.d_model < BLOCK_ELEMS
    else:
        cpus(monkeypatch, 1)
        ids, mask = batch(demos, 32)
    loss, grads = step(Model(ACCEPTANCE), ids, mask, spec_for("sft"))
    assert np.isfinite(loss) and all(np.isfinite(g).all() for g in grads.values())


def raise_off_the_caller(original):
    def fail(*args, **kwargs):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("helper half failed")
        return original(*args, **kwargs)
    return fail


@pytest.mark.parametrize("where", ["forward", "backward"])
def test_an_error_in_the_helpers_half_leaves_the_step_undone(monkeypatch, helper, demos, where):
    ids, mask = batch(demos, 32)
    model, spec, state = Model(ACCEPTANCE), spec_for("dft_token"), AdamState()
    _, grads = step(model, ids, mask, spec)  # one good step, so AdamState holds moments
    adamw_step(model.params, grads, state, 1e-3, 0.01)
    params = {name: t.data.copy() for name, t in model.params.items()}
    moments = {name: (state.m[name].copy(), state.v[name].copy()) for name in state.m}
    with monkeypatch.context() as m:
        if where == "forward":
            m.setattr(Model, "_rows", raise_off_the_caller(Model._rows))
        else:  # inside every mlp's backward, so the helper fails mid-walk
            m.setattr(autodiff, "_gelu_backward", raise_off_the_caller(autodiff._gelu_backward))
        model.zero_grad()
        with pytest.raises(RuntimeError, match="helper half failed"):
            backward(compute_loss(spec, batch_token_log_probs(model, ids), mask))
    assert all(t.grad is None for t in model.params.values())  # no leaf gradient written
    assert all(same_bits(t.data, params[name]) for name, t in model.params.items())
    assert state.step == 1 and all(same_bits(state.m[name], m0) and same_bits(state.v[name], v0)
                                   for name, (m0, v0) in moments.items())
    # the helper is free again, and the next split step keeps the serial bits
    want = serial_step(monkeypatch, model, ids, mask, spec)
    assert same_step(step(model, ids, mask, spec), want)


@pytest.mark.parametrize("busy", ["forward", "backward"])
def test_a_busy_helper_gives_the_serial_bits(monkeypatch, demos, busy):
    cpus(monkeypatch, 2)
    ids, mask = batch(demos, 32)
    model, spec = Model(ACCEPTANCE), spec_for("sft")
    want = serial_step(monkeypatch, model, ids, mask, spec)
    monkeypatch.setattr(parallel, "_helper", RefusingHelper())
    model.zero_grad()
    if busy == "forward":  # the caller runs all its rows itself
        with parallel._helper_lock:
            logp = batch_token_log_probs(model, ids)
    else:  # split forward; the caller walks both halves itself
        with monkeypatch.context() as m:
            counting = CountingHelper()
            m.setattr(parallel, "_helper", counting)
            logp = batch_token_log_probs(model, ids)
            counting.pool.shutdown()
        assert counting.jobs == [(16, ids.shape[1] - 1)]
    loss = compute_loss(spec, logp, mask)
    with parallel._helper_lock:
        backward(loss)
    got = loss.data, {name: t.grad for name, t in model.params.items()}
    assert same_step(got, want)


def test_concurrent_split_steps_all_get_the_serial_bits(monkeypatch, demos):
    ids, mask = batch(demos, 32)
    spec = spec_for("dft_token")
    models = [Model(ModelConfig(**{**ACCEPTANCE.to_dict(), "seed": i})) for i in range(4)]
    want = [serial_step(monkeypatch, m, ids, mask, spec) for m in models]
    cpus(monkeypatch, 2)
    results, errors = {}, []

    def call(i):
        try:
            for rep in range(2):
                results[i, rep] = step(models[i], ids, mask, spec)
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=call, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(TIMEOUT_S)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert sorted(results) == [(i, rep) for i in range(4) for rep in range(2)]
    assert all(same_step(got, want[i]) for (i, _), got in results.items())


def _child_step(conn, ids, mask):
    model = Model(ACCEPTANCE)
    loss, grads = step(model, ids, mask, spec_for("sft"))
    conn.send((loss, grads, type(parallel._helper).__name__))
    conn.close()


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="needs fork")
def test_a_forked_child_runs_its_own_split_step(monkeypatch, helper, demos):
    ids, mask = batch(demos, 32)
    model = Model(ACCEPTANCE)
    want = serial_step(monkeypatch, model, ids, mask, spec_for("sft"))
    step(model, ids, mask, spec_for("sft"))  # the parent's helper thread is running
    assert helper[-1] == 1
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child_step, args=(send, ids, mask))
    child.start()
    send.close()
    try:
        got = receive.recv() if receive.poll(TIMEOUT_S) else None
        child.join(TIMEOUT_S)
    finally:
        if child.is_alive():
            child.kill()
            child.join(TIMEOUT_S)
    assert not child.is_alive()
    assert child.exitcode == 0
    assert got is not None and got[2] == "ThreadPoolExecutor"  # its own, not the parent's
    assert same_step(got[:2], want)
