"""Accuracy evaluation, token-probability histograms, run comparison.

avg@k: every prompt gets k independent sampled decodes, each scored by
the task verifier; the reported accuracy is the mean over all
(prompt, draw) cells. Histograms are teacher-forced: each training-set
response token's probability under the model, conditioned on the ground
truth prefix, binned over [0, 1].

Comparison tables consolidate run directories produced by the trainer
and the CLI. CSV column order:

    run,loss_kind,in_dist_acc,ood_acc,final_train_loss,hist_low_frac,hist_high_frac

Missing values are written as the literal string "missing", never as 0.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .model import Model, Record, batch_token_log_probs, sample_batch
from .seeding import derive_seed
from .tasks import verify, vocabulary_for
from .training import RunConfig, collate, encode_demonstrations

DEFAULT_BIN_EDGES = np.linspace(0.0, 1.0, 21)
TEACHER_FORCED_BATCH = 64  # rows per teacher-forced forward

REPORT_COLUMNS = (
    "run", "loss_kind", "in_dist_acc", "ood_acc",
    "final_train_loss", "hist_low_frac", "hist_high_frac",
)


@dataclass
class EvalResult(Record):
    task_tag: str
    split: str  # "in-dist" or "ood"
    k: int
    temperature: float
    avg_at_k: float = field(init=False)
    correctness: list[list[bool]]  # prompts x k

    def __post_init__(self):
        matrix = np.asarray(self.correctness, dtype=bool)
        if matrix.ndim != 2 or matrix.shape[1] != self.k or not matrix.size:
            raise ValueError("correctness must be a prompts x k matrix")
        self.avg_at_k = float(matrix.mean())


def evaluate(model: Model, eval_set, k: int, temperature: float, seed: int,
             split: str = "in-dist", greedy: bool = False) -> EvalResult:
    """avg@k with per-(prompt, draw) derived sampling streams; a draw runs
    until EOS or the model's context is full."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not eval_set:
        raise ValueError("eval_set must be non-empty")
    flat_prompts, flat_seeds = [], []
    for i, demo in enumerate(eval_set):
        ids = demo.prompt_ids
        for j in range(k):
            flat_prompts.append(ids)
            flat_seeds.append(derive_seed(seed, "eval", i, j))
    completions = sample_batch(model, flat_prompts, model.config.context_length,
                               temperature, flat_seeds, greedy=greedy)
    matrix = []
    for i, demo in enumerate(eval_set):
        row = [
            verify(demo.task, demo.prompt_ids, completions[i * k + j])
            for j in range(k)
        ]
        matrix.append(row)
    return EvalResult(
        task_tag=eval_set[0].task,
        split=split,
        k=k,
        temperature=temperature,
        correctness=matrix,
    )


def check_bin_edges(edges) -> None:
    """Histogram bin edges are two or more, ascending from 0 to 1."""
    if len(edges) < 2 or edges[0] != 0.0 or edges[-1] != 1.0 or not all(
            a < b for a, b in zip(edges, edges[1:])):
        raise ValueError(f"'bin_edges' must ascend from 0 to 1 in 2 or more edges, got {edges}")


@dataclass
class ProbHistogram(Record):
    bin_edges: list[float]
    counts: list[int]
    fractions: list[float] = field(init=False)
    total: int
    model_tag: str

    def __post_init__(self):
        check_bin_edges(self.bin_edges)
        n_bins = len(self.bin_edges) - 1
        if len(self.counts) != n_bins or min(self.counts) < 0:
            raise ValueError(f"histogram needs {n_bins} non-negative counts, got {self.counts}")
        if int(sum(self.counts)) != self.total:
            raise ValueError("histogram counts do not sum to the token total")
        self.fractions = [c / self.total if self.total else 0.0 for c in self.counts]


def teacher_forced_probs(model: Model, dataset):
    """Yield (probabilities, token ids) of the response tokens, batch by batch.

    The one teacher-forced read-out behind the histograms and
    ``theory.implicit_reward_scan``.
    """
    net = model.detached()
    items = encode_demonstrations(dataset)
    for lo in range(0, len(items), TEACHER_FORCED_BATCH):
        ids, mask = collate(items[lo : lo + TEACHER_FORCED_BATCH])
        p = np.exp(batch_token_log_probs(net, ids).data)
        yield p[mask], ids[:, 1:][mask]


def token_histogram(model: Model, dataset, bin_edges=None,
                    model_tag: str = "") -> ProbHistogram:
    """Teacher-forced probability histogram over response tokens."""
    if not dataset:
        raise ValueError("dataset must be non-empty")
    edges = np.asarray(
        DEFAULT_BIN_EDGES if bin_edges is None else bin_edges, dtype=np.float64
    )
    counts = np.zeros(len(edges) - 1, dtype=np.int64)
    total = 0
    for probs, _ in teacher_forced_probs(model, dataset):
        hist, _ = np.histogram(probs, bins=edges)
        counts += hist
        total += probs.size
    return ProbHistogram(bin_edges=edges.tolist(), counts=counts.tolist(),
                         total=total, model_tag=model_tag)


def lowest_bin_tokens(model: Model, dataset, threshold: float) -> list:
    """Tokens (as characters) with p below threshold, ranked by count."""
    if not dataset:
        raise ValueError("dataset must be non-empty")
    vocab = vocabulary_for(dataset[0].task)
    counts: dict = {}
    for probs, token_ids in teacher_forced_probs(model, dataset):
        for tok in token_ids[probs < threshold]:
            ch = vocab.detokenize([int(tok)])
            counts[ch] = counts.get(ch, 0) + 1
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


# --- run-directory consolidation ---


def _final_train_loss(run_dir: str):
    with open(os.path.join(run_dir, "metrics.csv")) as f:
        rows = list(csv.DictReader(f, restval=""))
    try:
        return float(rows[-1]["loss"]) if rows else None
    except (KeyError, ValueError) as exc:
        raise ValueError(f"metrics.csv: last row has no numeric loss ({exc})") from exc


def _load(run_dir: str, name: str, record):
    """Decode one run file through ``record.from_dict``; a decoding error
    names the file."""
    with open(os.path.join(run_dir, name)) as f:
        try:
            return record.from_dict(json.load(f))
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from exc


def _load_optional(run_dir: str, name: str, record):
    return _load(run_dir, name, record) if os.path.exists(os.path.join(run_dir, name)) else None


def comparison_report(run_dirs) -> dict:
    """Consolidate run directories into rows plus an error list.

    A directory missing individual artifacts still yields a row with
    explicit None fields; one that cannot be read at all, or holds a
    malformed file, goes to the errors section and the rest are
    reported anyway.
    """
    rows, errors = [], []
    for run_dir in run_dirs:
        try:
            config = _load(run_dir, "config.json", RunConfig)
            hist = _load_optional(run_dir, "histogram.json", ProbHistogram)
            evals = {split: _load_optional(run_dir, f"eval_{split}.json", EvalResult)
                     for split in ("in", "ood")}
            rows.append({
                "run": os.path.basename(os.path.normpath(run_dir)),
                "loss_kind": config.loss.kind,
                "in_dist_acc": evals["in"] and evals["in"].avg_at_k,
                "ood_acc": evals["ood"] and evals["ood"].avg_at_k,
                "final_train_loss": _final_train_loss(run_dir),
                "hist_low_frac": hist and hist.fractions[0],
                "hist_high_frac": hist and hist.fractions[-1],
            })
        except (OSError, ValueError) as exc:
            errors.append({"run": str(run_dir), "error": str(exc)})
    return {"rows": rows, "errors": errors}


def write_comparison(report: dict, csv_path, json_path) -> None:
    with open(json_path, "w") as f:
        json.dump(report, f, indent=1)
    with open(csv_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(REPORT_COLUMNS)
        for row in report["rows"]:
            writer.writerow([
                "missing" if row[c] is None else row[c] for c in REPORT_COLUMNS
            ])
