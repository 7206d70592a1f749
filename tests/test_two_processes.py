"""``dftlab verify`` runs its oracle checks on two processes, bit for bit.

``parallel.on_two_processes(fn, first, second)`` returns ``(fn(first),
fn(second))`` with ``fn(second)`` run in a child made by ``os.fork``, or
None, having run nothing, in a 1-CPU process, without ``os.fork``, or in
such a child. ``theory.run_verification`` runs the two enumerated checks
in the child and the other two in the caller. No test here runs more than
one child at a time, and each ends by showing that no child is left.
"""

import contextlib
import hashlib
import io
import json
import os
import threading
import time

import numpy as np
import pytest

from dftlab import cli, parallel, theory
from dftlab.autodiff import backward
from dftlab.losses import LossSpec, compute_loss
from dftlab.model import Model, ModelConfig, batch_token_log_probs
from dftlab.parallel import on_two_processes
from dftlab.tasks import default_task_spec, generate_dataset
from dftlab.training import collate, encode_demonstrations
from helpers import cpus

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

ORACLE_GRID = {"vocab_sizes": [2, 3], "horizons": [1, 2, 3, 4, 5], "models_per_cell": 3,
               "n_samples": 100_000}  # the benchmark's ``oracle`` workload, at seed 0
# sha256 of verify_report.json at seed 0, as the serial suite wrote it before the split
GOLDEN_REPORT_SHA256 = {
    "default": "c88e84f0f4d1d69ff432efa86589a5c0e8e57d52e76ed2edad821f634a2e4aba",
    "oracle": "ab7918ec4562bf8bd6696a1985c7c3960a7e0994c5ef597dc24cca4c82e95aea",
}
SMALL = theory.VerifyConfig(vocab_sizes=[2], horizons=[1, 2], models_per_cell=1,
                            n_samples=4000)
TIMEOUT_S = 30


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cpus(monkeypatch):
    cpus(monkeypatch, 2)


def refuse_fork():
    raise AssertionError("os.fork was called")


def report_sha256(tmp_path, grid):
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"seed": 0, **grid}))
    out = tmp_path / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.dispatch(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    return hashlib.sha256((out / "verify_report.json").read_bytes()).hexdigest()


@pytest.mark.parametrize("n_cpus", [1, 2])
@pytest.mark.parametrize("grid", ["default", "oracle"])
def test_the_verify_report_keeps_its_bytes_on_one_cpu_and_on_two(monkeypatch, tmp_path, grid,
                                                                 n_cpus):
    cpus(monkeypatch, n_cpus)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    got = report_sha256(tmp_path, ORACLE_GRID if grid == "oracle" else {})
    assert got == GOLDEN_REPORT_SHA256[grid]
    assert len(forks) == n_cpus - 1


def test_run_verification_runs_the_enumerated_checks_in_the_child(monkeypatch, two_cpus):
    where = {}
    for name in ("_check_importance_identity", "_check_score_zero_mean",
                 "_check_gradient_identity", "_check_variance_ratio"):
        check = getattr(theory, name)

        def record(*args, _name=name, _check=check):
            where[_name] = os.getpid()
            return _check(*args)

        monkeypatch.setattr(theory, name, record)
    report = theory.run_verification(SMALL)
    assert [r["name"] for r in report] == ["importance-sampling-identity",
                                           "score-function-zero-mean",
                                           "token-scaled-gradient-identity",
                                           "variance-blowup-ratio"]
    assert all(r["passed"] for r in report)
    # what the child records stays in the child
    assert where == {"_check_gradient_identity": os.getpid(),
                     "_check_variance_ratio": os.getpid()}


def test_an_error_in_the_childs_half_reaches_the_caller(monkeypatch, two_cpus):
    def boom(*args):
        raise ValueError("boom")

    monkeypatch.setattr(theory, "_check_importance_identity", boom)
    with pytest.raises(ValueError) as caught:
        theory.run_verification(SMALL)
    assert caught.value.args == ("boom",)
    # the child's traceback rides along as a note, down to the failing line
    (note,) = caught.value.__notes__
    assert note.startswith("raised in the forked half (pid ")
    assert ', in boom\n    raise ValueError("boom")\nValueError: boom\n' in note


def test_a_child_that_leaves_no_result_is_a_runtime_error(monkeypatch, two_cpus):
    def die(*args):
        assert parallel._in_split_child, "would have ended the test process"
        os._exit(3)

    monkeypatch.setattr(theory, "_check_importance_identity", die)
    with pytest.raises(RuntimeError, match=r"wait status 768, exit code 3\)"):
        theory.run_verification(SMALL)


def test_an_error_in_the_callers_half_kills_the_child(two_cpus):
    def half(which):
        if which == "caller":
            raise KeyError("caller")
        time.sleep(10 * TIMEOUT_S)  # killed long before this ends

    start = time.monotonic()
    with pytest.raises(KeyError, match="caller"):
        on_two_processes(half, "caller", "child")
    assert time.monotonic() - start < TIMEOUT_S


def megabyte(seed):
    return np.random.default_rng(seed).random(1 << 17)  # 1 MiB of float64


def test_a_megabyte_result_returns_intact(two_cpus):
    mine, theirs = on_two_processes(megabyte, 1, 2)
    assert np.array_equal(mine, megabyte(1))
    assert theirs.dtype == np.float64 and np.array_equal(theirs, megabyte(2))


def test_a_one_cpu_process_never_forks(monkeypatch):
    cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", refuse_fork)
    assert on_two_processes(megabyte, 1, 2) is None
    assert [r["passed"] for r in theory.run_verification(SMALL)] == [True] * 4


def test_a_split_child_never_forks_again(monkeypatch, two_cpus):
    def half(x):  # in the child, a split of its own; a grandchild would give (2, 2)
        return on_two_processes(abs, x, x) if parallel._in_split_child else abs(x)

    assert on_two_processes(half, -1, -2) == (1, None)
    monkeypatch.setattr(parallel, "_in_split_child", True)
    monkeypatch.setattr(os, "fork", refuse_fork)
    assert on_two_processes(abs, -1, -2) is None
    assert [r["passed"] for r in theory.run_verification(SMALL)] == [True] * 4


def test_verify_after_a_split_training_step_with_the_helper_alive(two_cpus):
    before = theory.run_verification(SMALL)
    train, _, _ = generate_dataset(default_task_spec("addition-scratchpad", seed=0), 32, 4, 4)
    ids, mask = collate(encode_demonstrations(train))
    model = Model(ModelConfig(vocab_size=17, d_model=32, n_layers=2, n_heads=2,
                              context_length=64, seed=0))
    loss = compute_loss(LossSpec("dft_token"), batch_token_log_probs(model, ids), mask)
    backward(loss)
    assert parallel._helper is not None  # the step split its rows
    assert any(t.name.startswith("dftlab-rows") for t in threading.enumerate())
    assert theory.run_verification(SMALL) == before
