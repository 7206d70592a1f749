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

from .model import Model, batch_token_log_probs, sample_batch
from .seeding import derive_seed
from .tasks import verify, vocabulary_for
from .training import collate, encode_demonstrations

DEFAULT_BIN_EDGES = np.linspace(0.0, 1.0, 21)

REPORT_COLUMNS = (
    "run", "loss_kind", "in_dist_acc", "ood_acc",
    "final_train_loss", "hist_low_frac", "hist_high_frac",
)


@dataclass
class EvalResult:
    task_tag: str
    split: str  # "in-dist" or "ood"
    k: int
    temperature: float
    correctness: list  # prompts x k booleans
    avg_at_k: float = field(init=False)

    def __post_init__(self):
        matrix = np.asarray(self.correctness, dtype=bool)
        if matrix.ndim != 2 or matrix.shape[1] != self.k:
            raise ValueError("correctness must be a prompts x k matrix")
        self.avg_at_k = float(matrix.mean())

    def to_dict(self) -> dict:
        return {
            "task_tag": self.task_tag,
            "split": self.split,
            "k": self.k,
            "temperature": self.temperature,
            "avg_at_k": self.avg_at_k,
            "correctness": [[bool(v) for v in row] for row in self.correctness],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EvalResult":
        out = cls(
            task_tag=d["task_tag"],
            split=d["split"],
            k=d["k"],
            temperature=d["temperature"],
            correctness=d["correctness"],
        )
        stored = d.get("avg_at_k")
        if stored is not None and abs(stored - out.avg_at_k) > 1e-12:
            raise ValueError("stored avg_at_k disagrees with correctness matrix")
        return out


def evaluate(model: Model, eval_set, k: int, temperature: float, seed: int,
             split: str = "in-dist", greedy: bool = False,
             max_new: int = 0) -> EvalResult:
    """avg@k with per-(prompt, draw) derived sampling streams."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not eval_set:
        raise ValueError("eval_set must be non-empty")
    limit = max_new or model.config.context_length
    flat_prompts, flat_seeds = [], []
    for i, demo in enumerate(eval_set):
        ids = demo.prompt_ids
        for j in range(k):
            flat_prompts.append(ids)
            flat_seeds.append(derive_seed(seed, "eval", i, j))
    completions = sample_batch(model, flat_prompts, limit, temperature,
                               flat_seeds, greedy=greedy)
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


@dataclass
class ProbHistogram:
    bin_edges: list
    counts: list
    total: int
    model_tag: str

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=np.float64)
        if edges[0] != 0.0 or edges[-1] != 1.0 or (np.diff(edges) <= 0).any():
            raise ValueError("bin edges must ascend from 0 to 1")
        if int(sum(self.counts)) != self.total:
            raise ValueError("histogram counts do not sum to the token total")

    @property
    def fractions(self) -> list:
        if self.total == 0:
            return [0.0] * len(self.counts)
        return [c / self.total for c in self.counts]

    def to_dict(self) -> dict:
        return {
            "bin_edges": [float(e) for e in self.bin_edges],
            "counts": [int(c) for c in self.counts],
            "fractions": self.fractions,
            "total": self.total,
            "model_tag": self.model_tag,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ProbHistogram":
        return cls(bin_edges=d["bin_edges"], counts=d["counts"],
                   total=d["total"], model_tag=d["model_tag"])


def teacher_forced_probs(model: Model, dataset, batch_size: int = 64):
    """Yield (probabilities, token ids) of the response tokens, batch by batch.

    The one teacher-forced read-out behind the histograms and
    ``theory.implicit_reward_scan``.
    """
    net = model.detached()
    items = encode_demonstrations(dataset)
    for lo in range(0, len(items), batch_size):
        ids, mask = collate(items[lo : lo + batch_size])
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
    return ProbHistogram(
        bin_edges=list(edges), counts=[int(c) for c in counts],
        total=total, model_tag=model_tag,
    )


def lowest_bin_tokens(model: Model, dataset, threshold: float) -> list:
    """Tokens (as characters) with p below threshold, ranked by count."""
    if not (0.0 <= threshold <= 1.0):
        raise ValueError("threshold must be in [0, 1]")
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
    path = os.path.join(run_dir, "metrics.csv")
    with open(path) as f:
        rows = list(csv.DictReader(f))
    return float(rows[-1]["loss"]) if rows else None


def _eval_accuracy(run_dir: str, split: str):
    path = os.path.join(run_dir, f"eval_{split}.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return EvalResult.from_dict(json.load(f)).avg_at_k


def _histogram_summary(run_dir: str):
    path = os.path.join(run_dir, "histogram.json")
    if not os.path.exists(path):
        return None, None
    with open(path) as f:
        hist = ProbHistogram.from_dict(json.load(f))
    fracs = hist.fractions
    return fracs[0], fracs[-1]


def comparison_report(run_dirs) -> dict:
    """Consolidate run directories into rows plus an error list.

    A directory missing individual artifacts still yields a row with
    explicit None fields; one that cannot be read at all goes to the
    errors section and the rest are reported anyway.
    """
    rows, errors = [], []
    for run_dir in run_dirs:
        try:
            with open(os.path.join(run_dir, "config.json")) as f:
                config = json.load(f)
            low, high = _histogram_summary(run_dir)
            rows.append({
                "run": os.path.basename(os.path.normpath(run_dir)),
                "loss_kind": config["loss"]["kind"],
                "in_dist_acc": _eval_accuracy(run_dir, "in"),
                "ood_acc": _eval_accuracy(run_dir, "ood"),
                "final_train_loss": _final_train_loss(run_dir),
                "hist_low_frac": low,
                "hist_high_frac": high,
            })
        except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
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
