"""A forward without a cache splits its rows over two threads.

``Model.forward`` runs rows ``[b//2:]`` on one persistent helper thread
and the rest on the caller when there is no ``KVCache``, the input has at
least 2 rows and rows × length × ``d_model`` is at least ``BLOCK_ELEMS``,
and the process may run on 2 CPUs. The tests here compare against
``Model._rows``, the serial forward both halves run, or, for a detached
model's forward, which runs on plain arrays, against the trainable
model's graph forward, split or not; all check byte for byte.
``test_split_step.py`` covers the backward of a trainable forward.
"""

import multiprocessing
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dftlab import model as model_mod
from dftlab.autodiff import BLOCK_ELEMS
from dftlab.model import KVCache, Model, ModelConfig

ACCEPTANCE = ModelConfig(vocab_size=17, d_model=32, n_layers=2, n_heads=2,
                         context_length=64, seed=3)
DEFAULT = ModelConfig(vocab_size=17, seed=3)
TIMEOUT_S = 30


def ids_for(config, rows, length, seed=0):
    return np.random.default_rng(seed).integers(0, config.vocab_size, size=(rows, length))


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.fixture(scope="module")
def acceptance_net():
    return Model(ACCEPTANCE).detached()


@pytest.fixture
def two_cpus(monkeypatch):
    """Runs as on a 2-CPU box, whatever this one has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


class CountingHelper:
    """A one-thread executor that records the shape of each job it is given."""

    def __init__(self):
        self.pool = ThreadPoolExecutor(1)
        self.jobs = []

    def submit(self, fn, part):
        self.jobs.append(part.shape)
        return self.pool.submit(fn, part)


class RefusingHelper:
    def submit(self, fn, part):
        raise AssertionError("reached the helper thread")


@pytest.fixture
def submits(monkeypatch, two_cpus):
    """The shapes of the row blocks handed to the helper thread."""
    helper = CountingHelper()
    monkeypatch.setattr(model_mod, "_helper", helper)
    yield helper.jobs
    helper.pool.shutdown()


@pytest.fixture
def no_helper(monkeypatch, two_cpus):
    monkeypatch.setattr(model_mod, "_helper", RefusingHelper())


@pytest.mark.parametrize("config, rows, length", [
    (ACCEPTANCE, 33, 47), (ACCEPTANCE, 64, 47), (ACCEPTANCE, 65, 47),
    (DEFAULT, 2, 128), (DEFAULT, 3, 100), (DEFAULT, 8, 40),
], ids=["acceptance-33", "acceptance-64", "acceptance-65", "default-2", "default-3",
        "default-8"])
def test_split_forward_keeps_the_serial_bits(submits, config, rows, length):
    net = Model(config).detached()
    ids = ids_for(config, rows, length)
    assert rows * length * config.d_model >= BLOCK_ELEMS
    got = net.forward(ids).data
    assert submits == [(rows - rows // 2, length)]
    assert same_bits(got, net._rows(ids).data)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("rows", [1, 33, 64])
@pytest.mark.parametrize("config, length", [(ACCEPTANCE, 47), (DEFAULT, 40)],
                         ids=["acceptance", "default"])
def test_a_detached_forward_keeps_the_graph_forwards_bits(monkeypatch, config, length, rows,
                                                          cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    trainable = Model(config)
    ids = ids_for(config, rows, length)
    graph = trainable.forward(ids)
    assert graph.requires_grad
    assert (graph._node.op == "row-join") == (cpus == 2 and rows > 1)
    assert same_bits(trainable.detached().forward(ids).data, graph.data)


def test_a_trainable_forward_joins_its_row_halves(submits):
    trainable = Model(ACCEPTANCE)
    ids = ids_for(ACCEPTANCE, 64, 47)
    out = trainable.forward(ids)
    assert submits == [(32, 47)]
    assert out.requires_grad and out._node.op == "row-join"
    assert same_bits(out.data, trainable.detached()._rows(ids).data)


def test_a_cached_forward_never_reaches_the_helper(no_helper, acceptance_net):
    ids = ids_for(ACCEPTANCE, 64, 47)
    got = acceptance_net.forward(ids, KVCache()).data
    assert same_bits(got, acceptance_net._rows(ids).data)


def test_an_input_below_one_block_never_reaches_the_helper(no_helper, acceptance_net):
    ids = ids_for(ACCEPTANCE, 15, 64)
    assert ids.size * ACCEPTANCE.d_model < BLOCK_ELEMS <= (ids.size + 64) * ACCEPTANCE.d_model
    assert same_bits(acceptance_net.forward(ids).data, acceptance_net._rows(ids).data)
    one_row = ids_for(ACCEPTANCE, 1, 64)
    assert same_bits(acceptance_net.forward(one_row).data, acceptance_net._rows(one_row).data)


def test_a_process_allowed_one_cpu_never_reaches_the_helper(no_helper, monkeypatch,
                                                            acceptance_net):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    ids = ids_for(ACCEPTANCE, 64, 47)
    assert same_bits(acceptance_net.forward(ids).data, acceptance_net._rows(ids).data)


def test_an_error_in_the_helpers_half_reaches_the_caller(submits, monkeypatch, acceptance_net):
    ids = ids_for(ACCEPTANCE, 64, 47)
    serial = acceptance_net._rows(ids).data
    rows = Model._rows

    def fail_off_the_caller(self, part, *args):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("helper half failed")
        return rows(self, part, *args)

    monkeypatch.setattr(Model, "_rows", fail_off_the_caller)
    with pytest.raises(RuntimeError, match="helper half failed"):
        acceptance_net.forward(ids)
    monkeypatch.setattr(Model, "_rows", rows)
    assert same_bits(acceptance_net.forward(ids).data, serial)
    assert len(submits) == 2


def test_a_caller_that_finds_the_helper_busy_runs_its_rows_itself(no_helper, acceptance_net):
    ids = ids_for(ACCEPTANCE, 64, 47)
    with model_mod._helper_lock:
        got = acceptance_net.forward(ids).data
    assert same_bits(got, acceptance_net._rows(ids).data)


def test_concurrent_callers_all_get_the_serial_bits(submits, acceptance_net):
    batches = [ids_for(ACCEPTANCE, 33 + i, 47, seed=i) for i in range(4)]
    serial = [acceptance_net._rows(ids).data for ids in batches]
    results, errors = {}, []

    def call(i):
        try:
            for rep in range(3):
                results[i, rep] = acceptance_net.forward(batches[i]).data
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
    assert sorted(results) == [(i, rep) for i in range(4) for rep in range(3)]
    assert all(same_bits(out, serial[i]) for (i, _), out in results.items())
    assert submits  # some callers split, the others found the helper busy


def _child_forward(conn):
    net = Model(ACCEPTANCE).detached()
    logits = net.forward(ids_for(ACCEPTANCE, 64, 47)).data
    conn.send((logits, type(model_mod._helper).__name__))
    conn.close()


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="needs fork")
def test_a_forked_child_starts_its_own_helper(submits, acceptance_net):
    ids = ids_for(ACCEPTANCE, 64, 47)
    acceptance_net.forward(ids)  # the parent's helper thread is running
    assert submits
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child_forward, args=(send,))
    child.start()
    send.close()
    try:
        got, helper = receive.recv() if receive.poll(TIMEOUT_S) else (None, None)
        child.join(TIMEOUT_S)
    finally:
        if child.is_alive():
            child.kill()
            child.join(TIMEOUT_S)
    assert not child.is_alive()
    assert child.exitcode == 0
    assert helper == "ThreadPoolExecutor"  # its own, not the parent's CountingHelper
    assert got is not None and same_bits(got, acceptance_net._rows(ids).data)
