"""``import dftlab`` asks BLAS for one thread unless told otherwise.

The package fills in ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and
``MKL_NUM_THREADS`` with ``"1"`` where they are unset, and only when
numpy is not yet imported: BLAS reads them as numpy loads it. Each case
runs in a fresh interpreter.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def blas_vars_after(first_import: str, env: dict) -> dict:
    code = (f"import json, os\nimport {first_import}\nimport dftlab\n"
            f"print(json.dumps({{v: os.environ.get(v) for v in {VARS!r}}}))")
    env = {k: v for k, v in os.environ.items() if k not in VARS} | env
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True)
    return json.loads(out.stdout)


@pytest.mark.parametrize("first_import, env, want", [
    ("sys", {}, {v: "1" for v in VARS}),
    ("sys", {"OPENBLAS_NUM_THREADS": "2"},
     {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}),
    ("numpy", {}, {v: None for v in VARS}),
], ids=["unset-becomes-1", "user-value-kept", "numpy-first-untouched"])
def test_import_fills_in_one_blas_thread(first_import, env, want):
    assert blas_vars_after(first_import, env) == want
