"""Run one benchmark workload of the lab in this process and print its metrics.

    python3 bench/run.py --workload finetune --seed 1 --seconds 20 --trace 0

Run from the repository root. Workloads: ``finetune``, ``decode`` and
``oracle`` (see ``workloads.py`` and the README beside this file). With
``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` the per-layer metrics from a run whose calls into the lab
are wrapped in spans, and the spans go to ``.bench_trace/``. Run
directories go to ``.bench_out/``.

Output: one ``env`` line, one ``info`` line, and as the last line the
result ``{"correct", "attempted", "failed", "metrics"}``.
"""

import argparse
import os
import sys

# One BLAS thread: fixed and at most nproc, so runs do not compete for cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import json  # noqa: E402
import platform  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("finetune", "decode", "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dftlab", "__init__.py")):
        sys.stderr.write(f"no lab sources under {SRC}; run from a full checkout\n")
        return 2
    sys.path.insert(0, SRC)
    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           os.path.join(ROOT, ".bench_out"))
    rec = result.pop("rec")
    if rec is not None:
        trace_dir = os.path.join(ROOT, ".bench_trace")
        os.makedirs(trace_dir, exist_ok=True)
        rec.dump(os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json"))
    for problem in result["info"]["problems"]:
        sys.stderr.write(f"check failed: {problem}\n")
    print(json.dumps({"env": environment()}))
    print(json.dumps({"info": result.pop("info")}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
