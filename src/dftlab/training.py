"""Mini-batched training: AdamW, linear warmup into cosine decay.

The loop is deterministic given (config, data): parameter init comes from
the model config seed, shuffle order from the run seed, and nothing else
draws randomness. Loss is computed on response tokens only; prompt and
padding positions are masked out of every objective.

A run directory (when configured) receives:

    config.json     effective RunConfig
    metrics.csv     step,lr,loss,mean_p   (deterministic, byte-comparable)
    metrics.jsonl   same rows plus the shares of loss tokens with p < 0.05
                    and p > 0.95 (C9's polarization bins), wall-clock
                    seconds, the pre-clip global gradient norm (grad_norm,
                    null when clipping is off), whether the step was
                    clipped, and the batch's mean pi(y*|x) (mean_seq_p:
                    the mean over rows of exp of the row's summed response
                    log-probs; absent from rows written before it existed)
    evals.jsonl     eval-hook outputs every eval_every steps
    ckpt_step0.bin / ckpt_step{N}.bin / ckpt_final.bin
    manifest.json   emitted files with sizes

Wall-clock time is deliberately kept out of metrics.csv so identical
seeds produce byte-identical CSVs.

One graph is alive at a time: once a step's update has run, the loop
drops the step's graph (the log-probs and the loss, and through them
every array a backward rule reads) before the next batch's forward.
Holding it into the next forward kept two graphs' arrays live.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .autodiff import backward
from .losses import LossSpec, compute_loss, sequence_probs
from .model import Model, ModelConfig, PAD_ID, Record, batch_token_log_probs, save_checkpoint
from .seeding import derive_seed


class TrainingAborted(RuntimeError):
    """Raised when a loss or gradient goes non-finite mid-run."""


@dataclass
class RunConfig(Record):
    model: ModelConfig
    loss: LossSpec = field(default_factory=LossSpec)
    learning_rate: float = 1e-3
    batch_size: int = 64
    epochs: Optional[int] = 1
    max_steps: Optional[int] = None
    warmup_ratio: float = 0.1
    schedule: str = "cosine"
    weight_decay: float = 0.01
    grad_clip_norm: Optional[float] = 1.0
    seed: int = 0
    eval_every: int = 0
    output_dir: Optional[str] = None

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not (0.0 <= self.warmup_ratio < 1.0):
            raise ValueError("warmup_ratio must be in [0, 1)")
        if self.schedule not in ("cosine", "constant"):
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.grad_clip_norm is not None and self.grad_clip_norm <= 0:
            raise ValueError("grad_clip_norm must be > 0 when set")
        if self.epochs is None and self.max_steps is None:
            raise ValueError("need epochs or max_steps")
        if self.max_steps is not None and self.max_steps < 0:
            raise ValueError("max_steps must be >= 0")
        if self.epochs is not None and self.epochs < 0:
            raise ValueError("epochs must be >= 0")


@dataclass
class TrainMetrics(Record):
    step: int
    lr: float
    loss: float
    mean_p: float
    frac_p_below_0_05: float  # share of loss tokens with p < 0.05
    frac_p_above_0_95: float  # and with p > 0.95
    seconds: float
    grad_norm: Optional[float] = None  # pre-clip global norm; None when clipping is off
    clipped: bool = False
    # the batch's mean pi(y*|x): over rows, exp of the row's summed response log-probs
    mean_seq_p: Optional[float] = None


def total_steps_for(config: RunConfig, n_items: int) -> int:
    if config.max_steps is not None:
        return config.max_steps
    batches = math.ceil(n_items / config.batch_size)
    return config.epochs * batches


def warmup_steps_for(config: RunConfig, total_steps: int) -> int:
    warmup = round(config.warmup_ratio * total_steps)
    if total_steps > 0 and warmup >= total_steps:
        raise ValueError(
            f"warmup ({warmup}) must be shorter than the run ({total_steps})"
        )
    return warmup


def lr_at(config: RunConfig, step: int, total_steps: Optional[int] = None) -> float:
    """Linear ramp 0 -> peak over the warmup, then cosine decay peak -> 0.

    ``step`` counts optimizer updates, 0..total. The constant schedule
    holds the peak after warmup instead of decaying.
    """
    total = total_steps if total_steps is not None else config.max_steps
    if total is None:
        raise ValueError("total steps unknown; set max_steps or pass total_steps")
    if not (0 <= step <= total):
        raise ValueError(f"step {step} outside [0, {total}]")
    peak = config.learning_rate
    warmup = warmup_steps_for(config, total)
    if step < warmup:
        return peak * step / warmup
    if config.schedule == "constant":
        return peak
    if total == warmup:
        return peak
    progress = (step - warmup) / (total - warmup)
    return peak * 0.5 * (1.0 + math.cos(math.pi * progress))


# --- AdamW ---

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0


def adamw_step(params: dict, grads: dict, state: AdamState, lr: float,
               weight_decay: float) -> AdamState:
    """One decoupled-weight-decay Adam update, in place, bias-corrected.

    Every gradient is checked before anything moves, so a non-finite one
    leaves the parameters and ``state`` exactly as they were.
    """
    for name in params:
        if not np.isfinite(grads[name]).all():
            raise TrainingAborted(f"non-finite gradient for {name!r} at step {state.step + 1}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name, p in params.items():
        g = grads[name]
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        p.data *= 1.0 - lr * weight_decay
        p.data -= lr * update
    return state


def clip_global_norm(grads: dict, max_norm: float) -> float:
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total > max_norm:
        factor = max_norm / (total + 1e-12)
        for g in grads.values():
            g *= factor
    return total


# --- batching ---


def encode_demonstrations(demos) -> list:
    """Pre-tokenize to (ids array, prompt length) pairs.

    An empty prompt is a ValueError naming the item: ``collate`` masks
    from position ``plen - 1``, so it would miscount the response.
    """
    out = []
    for i, d in enumerate(demos):
        prompt = d.prompt_ids
        if not prompt:
            raise ValueError(f"demonstration {i} has an empty prompt")
        out.append((np.array(prompt + d.response_ids, dtype=np.int64), len(prompt)))
    return out


def collate(items) -> tuple:
    """Pad to the batch max length; mask response-token predictions.

    Returns (ids (B, L), loss_mask (B, L-1)); mask[b, j] is True when
    ids[b, j+1] is a response token (the EOS terminal included).
    """
    length = max(len(ids) for ids, _ in items)
    batch = np.full((len(items), length), PAD_ID, dtype=np.int64)
    mask = np.zeros((len(items), length - 1), dtype=bool)
    for r, (ids, plen) in enumerate(items):
        batch[r, : len(ids)] = ids
        mask[r, plen - 1 : len(ids) - 1] = True
    return batch, mask


# --- the loop ---


def write_manifest(out_dir: str) -> None:
    entries = []
    for name in sorted(os.listdir(out_dir)):
        if name == "manifest.json":
            continue
        path = os.path.join(out_dir, name)
        if os.path.isfile(path):
            entries.append({"file": name, "bytes": os.path.getsize(path)})
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump({"files": entries}, f, indent=1)


class _RunDir:
    def __init__(self, config: RunConfig):
        self.dir = config.output_dir
        if self.dir is None:
            self.csv = None
            return
        os.makedirs(self.dir, exist_ok=True)
        with open(self._p("config.json"), "w") as f:
            json.dump(config.to_dict(), f, indent=1, sort_keys=True)
        self.csv = open(self._p("metrics.csv"), "w")
        self.csv.write("step,lr,loss,mean_p\n")
        self.jsonl = open(self._p("metrics.jsonl"), "w")
        self.evals = open(self._p("evals.jsonl"), "w")

    def _p(self, name):
        return os.path.join(self.dir, name)

    def metric(self, m: TrainMetrics):
        if self.csv is None:
            return
        self.csv.write(f"{m.step},{m.lr!r},{m.loss!r},{m.mean_p!r}\n")
        self.jsonl.write(json.dumps(m.to_dict()) + "\n")

    def eval_result(self, step: int, payload: dict):
        if self.csv is None:
            return
        self.evals.write(json.dumps({"step": step, **payload}) + "\n")
        self.evals.flush()

    def checkpoint(self, model: Model, name: str) -> Optional[str]:
        if self.dir is None:
            return None
        path = self._p(name)
        save_checkpoint(model, path)
        return path

    def close(self):
        if self.csv is None:
            return
        self.csv.close()
        self.jsonl.close()
        self.evals.close()
        write_manifest(self.dir)


def train_run(config: RunConfig, train_data,
              eval_hooks: Sequence[Callable] = (),
              initial_model: Optional[Model] = None) -> tuple:
    """Train on demonstrations; returns (model, metrics).

    Starts from a fresh config-seeded model unless ``initial_model`` is
    given (copied, never mutated in place). eval_hooks are callables
    (step, model) -> dict, invoked every eval_every steps alongside a
    checkpoint. A demonstration with an empty prompt, or too long for the
    context, is a ValueError before anything is written. A non-finite loss
    aborts the run with the last written checkpoint left on disk.
    """
    if not train_data:
        raise ValueError("train_data must be non-empty")
    items = encode_demonstrations(train_data)
    ctx = config.model.context_length
    for i, (ids, _) in enumerate(items):
        if len(ids) - 1 > ctx:  # teacher forcing forwards all but the last token
            raise ValueError(f"demonstration {i} has {len(ids)} tokens; at most "
                             f"context_length + 1 ({ctx + 1}) fit")
    total = total_steps_for(config, len(items))
    warmup_steps_for(config, total)  # validates the warmup invariant
    if initial_model is not None:
        if initial_model.config != config.model:
            raise ValueError("initial_model config does not match run config")
        model = initial_model.copy()
    else:
        model = Model(config.model)
    ref_model = None
    if config.loss.kind == "iw_sft":
        # frozen copy of the starting policy as the reference
        ref_model = model.copy()
    run_dir = _RunDir(config)
    rng = np.random.default_rng(derive_seed(config.seed, "train", "shuffle"))
    state = AdamState()
    metrics: list = []
    last_ckpt = run_dir.checkpoint(model, "ckpt_step0.bin")
    start = time.perf_counter()
    step = 0
    try:
        while step < total:
            order = rng.permutation(len(items))
            for lo in range(0, len(items), config.batch_size):
                if step >= total:
                    break
                rows = [items[i] for i in order[lo : lo + config.batch_size]]
                ids, mask = collate(rows)
                logp = batch_token_log_probs(model, ids)
                ref = None
                if ref_model is not None:
                    ref = batch_token_log_probs(ref_model.detached(), ids).data
                loss = compute_loss(config.loss, logp, mask, reference_log_probs=ref)
                value = loss.item()
                if not math.isfinite(value):
                    raise TrainingAborted(
                        f"non-finite loss at step {step + 1}; "
                        f"last good checkpoint: {last_ckpt}"
                    )
                model.zero_grad()
                backward(loss)
                grads = {
                    name: (t.grad if t.grad is not None else np.zeros_like(t.data))
                    for name, t in model.params.items()
                }
                grad_norm = None
                if config.grad_clip_norm is not None:
                    grad_norm = clip_global_norm(grads, config.grad_clip_norm)
                step += 1
                lr = lr_at(config, step, total)
                adamw_step(model.params, grads, state, lr, config.weight_decay)
                p = np.exp(logp.data)[mask]
                seq_p = sequence_probs(logp.data, mask)
                # The graph goes before the next batch's forward. Its freed pages
                # stay mapped for that forward (dftlab.allocator), wherever the
                # graph sat on the heap.
                del logp, loss, ref, grads
                clipped = grad_norm is not None and grad_norm > config.grad_clip_norm
                m = TrainMetrics(step=step, lr=lr, loss=value, mean_p=float(p.mean()),
                                 frac_p_below_0_05=float((p < 0.05).mean()),
                                 frac_p_above_0_95=float((p > 0.95).mean()),
                                 seconds=time.perf_counter() - start,
                                 grad_norm=grad_norm, clipped=clipped,
                                 mean_seq_p=float(seq_p.mean()))
                metrics.append(m)
                run_dir.metric(m)
                if config.eval_every > 0 and step % config.eval_every == 0:
                    last_ckpt = run_dir.checkpoint(model, f"ckpt_step{step}.bin") or last_ckpt
                    for hook in eval_hooks:
                        run_dir.eval_result(step, hook(step, model))
        run_dir.checkpoint(model, "ckpt_final.bin")
    finally:
        run_dir.close()
    return model, metrics
