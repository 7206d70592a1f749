"""Checks of the lab's outputs against the benchmark's own computations.

Each function returns a list of problems; an empty list means the check
passed. They take plain values so the tests can feed them corrupted ones.
"""

from __future__ import annotations

import math
import re

import numpy as np

from inputs import EOS, completion_ok, encode, well_formed

LOGPROB_TOL = 1e-9
LOSS_TOL = 1e-9
ORACLES = ("importance-sampling-identity", "score-function-zero-mean",
           "token-scaled-gradient-identity", "variance-blowup-ratio")


def logged_losses(csv_text: str, returned: list, step1_reference: float) -> list:
    """metrics.csv losses: finite, equal to the returned ones, step 1 as computed apart."""
    rows = csv_text.strip().splitlines()
    if not rows or rows[0] != "step,lr,loss,mean_p":
        return ["metrics.csv header is not step,lr,loss,mean_p"]
    losses = [float(r.split(",")[2]) for r in rows[1:]]
    problems = []
    if len(losses) != len(returned):
        problems.append(f"metrics.csv has {len(losses)} rows for {len(returned)} steps")
    bad = [i + 1 for i, v in enumerate(losses) if not math.isfinite(v)]
    if bad:
        problems.append(f"non-finite logged loss at steps {bad}")
    if losses[: len(returned)] != list(returned[: len(losses)]):
        problems.append("logged losses differ from the losses train_run returned")
    if not losses or not abs(losses[0] - step1_reference) <= LOSS_TOL * max(1.0, abs(step1_reference)):
        first = losses[0] if losses else None
        problems.append(f"step-1 loss {first!r} != reference objective {step1_reference!r}")
    return problems


def log_probs_match(got: np.ndarray, want: np.ndarray, what: str) -> list:
    dev = float(np.max(np.abs(got - want))) if got.shape == want.shape else math.inf
    return [] if dev <= LOGPROB_TOL else [f"{what}: log-prob deviation {dev:.3e} > {LOGPROB_TOL}"]


def eval_cells(correctness, avg_at_k: float, prompts, completions, k: int, limit) -> list:
    """Completions well formed; each cell and avg@k equal to the checker's verdicts."""
    problems = []
    mine = []
    for i, prompt in enumerate(prompts):
        row = []
        for j in range(k):
            c = completions[i * k + j]
            if not well_formed(c, limit(prompt)):
                problems.append(f"prompt {i} draw {j}: malformed completion {c}")
            row.append(completion_ok(prompt, c))
        mine.append(row)
    if [list(map(bool, r)) for r in correctness] != mine:
        problems.append("correctness matrix differs from the checker's verdicts")
    share = float(np.asarray(mine, dtype=bool).mean())
    if avg_at_k != share:
        problems.append(f"avg@k {avg_at_k!r} != checker share {share!r}")
    return problems


def rft_outcome(keep_rate: float, retained, prompts, completions, n: int, limit) -> list:
    """keep_rate equals the checker's share; every retained item passes the checker."""
    problems = []
    accepted = 0
    for idx, c in enumerate(completions):
        prompt = prompts[idx // n]
        if not well_formed(c, limit(prompt)):
            problems.append(f"sample {idx}: malformed completion {c}")
        accepted += completion_ok(prompt, c)
    if keep_rate != accepted / len(completions):
        problems.append(f"keep_rate {keep_rate!r} != checker share {accepted}/{len(completions)}")
    for demo in retained:
        if not completion_ok(encode(demo.prompt), encode(demo.response) + [EOS]):
            problems.append(f"retained {demo.prompt}{demo.response} fails the checker")
    return problems


_VALUE = re.compile(r"(?:deviation|coordinate|factor) ([-+0-9.e]+)")
_TOL = re.compile(r"tol x?([-+0-9.e]+)")


def oracle_report(exit_code: int, report: list) -> list:
    """Exit 0 and every oracle's figure within the tolerance it states."""
    problems = [] if exit_code == 0 else [f"dftlab verify exited {exit_code}"]
    if sorted(r["name"] for r in report) != sorted(ORACLES):
        problems.append(f"oracles {[r['name'] for r in report]} are not {list(ORACLES)}")
    for r in report:
        value, tol = _VALUE.search(r["detail"]), _TOL.search(r["detail"])
        if not (r["passed"] and value and tol and float(value[1]) <= float(tol[1])):
            problems.append(f"oracle {r['name']} not within tolerance: {r['detail']}")
    return problems
