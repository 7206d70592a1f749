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

from dftlab import losses, training

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

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
