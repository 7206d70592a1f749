"""Training objectives over per-token log probabilities.

Every loss takes the output of ``Model.token_log_probs`` (or its batched
equivalent), a boolean mask that is True where a token contributes
(response tokens; padding and prompt positions are False), and a
reduction. Inputs may be a single vector (T,) or a padded batch (B, T);
batched losses reduce per sequence first, then average over the batch.

The dynamic variants multiply each token's cross-entropy by a weight the
gradient must not flow through:

* token-level: weight is the token's own probability, detached, so the
  parameter gradient equals the plain cross-entropy gradient scaled by
  p_t per token.
* sequence-level: one detached weight per sequence, the product of its
  token probabilities, computed in log space and exponentiated (the
  product underflows to exactly 0 for long low-probability sequences;
  that behavior is intentional and observable).

The focal baseline's (1-p)^gamma factor is deliberately NOT detached;
that matches the standard focal loss. The asymmetry with the dynamic
losses is the point of the contrast.

Each kind's weight is written once, in ``_weight``, which
``compute_loss`` (and so each of the five ``*_loss`` functions) reads.
``sequence_probs`` is the one formula for a row's pi(y*|x), the
dft_sequence weight and training's ``mean_seq_p``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autodiff import Tensor, exp, mul, scale, stop_gradient, tensor_sum
from .model import Record

KINDS = ("sft", "dft_token", "dft_sequence", "focal", "iw_sft")
REDUCTIONS = ("mean", "sum")

DEFAULT_IW_CLIP = 4.0


@dataclass
class LossSpec(Record):
    """Choice of objective plus its knobs; every field serializes.

    iw_sft's per-token reference log probs are runtime data, passed to
    ``compute_loss`` rather than stored here.
    """

    kind: str = "sft"
    gamma: Optional[float] = None
    reduction: str = "mean"
    iw_clip: Optional[float] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown loss kind {self.kind!r}, expected one of {KINDS}")
        if self.reduction not in REDUCTIONS:
            raise ValueError(f"unknown reduction {self.reduction!r}")
        if (self.gamma is not None) != (self.kind == "focal"):
            raise ValueError("gamma must be present exactly when kind == 'focal'")
        if self.gamma is not None and self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        if self.kind == "iw_sft":
            if self.iw_clip is None:
                self.iw_clip = DEFAULT_IW_CLIP
            if self.iw_clip <= 0:
                raise ValueError("iw_clip must be > 0")
        elif self.iw_clip is not None:
            raise ValueError("iw_clip only applies to iw_sft")


def _prep_mask(token_log_probs: Tensor, mask) -> np.ndarray:
    if mask is None:
        mask = np.ones(token_log_probs.shape, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != token_log_probs.shape:
        raise ValueError(
            f"mask shape {mask.shape} must match log probs {token_log_probs.shape}"
        )
    counts = mask.sum(axis=-1)
    if np.min(counts) == 0:
        raise ValueError("every sequence needs at least one unmasked token")
    return mask


def sequence_probs(log_probs: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """pi(y*|x) of each row: exp of the sum of its unmasked token log probs."""
    return np.exp(np.sum(np.where(mask, log_probs, 0.0), axis=-1))


def _weight(spec: LossSpec, logp: Tensor, mask: np.ndarray, ref=None):
    """The one definition of each kind's multiplier on -log p.

    Returns a per-token Tensor shaped like ``logp``, or for dft_sequence
    an array with one weight per row: the detached product of the row's
    unmasked token probabilities, applied after the row reduction. Only
    focal's weight carries a gradient.
    """
    if spec.kind == "sft":
        return Tensor(np.ones(logp.shape))
    if spec.kind == "dft_token":
        return stop_gradient(exp(logp))
    if spec.kind == "dft_sequence":
        return sequence_probs(logp.data, mask)
    if spec.kind == "focal":
        return scale(exp(logp), -1.0, shift=1.0) ** spec.gamma
    if ref is None:
        raise ValueError("iw_sft requires reference_log_probs")
    ref = np.asarray(ref, dtype=np.float64)
    if ref.shape != logp.shape:
        raise ValueError(f"reference log probs shape {ref.shape} must match {logp.shape}")
    return Tensor(np.minimum(np.exp(logp.data - ref), spec.iw_clip))


def compute_loss(spec: LossSpec, token_log_probs: Tensor, mask=None,
                 reference_log_probs=None) -> Tensor:
    """Reduce ``_weight`` * -log p over unmasked tokens for spec.kind.

    Each sequence is reduced first (sum, or mean over its unmasked
    tokens), then any batch dimension is averaged. ``reference_log_probs``
    (shaped like the log probs) is required for iw_sft and ignored by
    every other kind.
    """
    mask = _prep_mask(token_log_probs, mask)
    weight = _weight(spec, token_log_probs, mask, reference_log_probs)
    per_token = scale(token_log_probs, -1.0)
    if isinstance(weight, Tensor):
        per_token = mul(weight, per_token)
    row = tensor_sum(mul(per_token, Tensor(mask.astype(np.float64))), axis=-1)
    if spec.reduction == "mean":
        row = mul(row, Tensor(1.0 / mask.sum(axis=-1).astype(np.float64)))
    if not isinstance(weight, Tensor):
        row = mul(row, Tensor(weight))
    return row if row.data.ndim == 0 else row.mean()


def sft_loss(token_log_probs: Tensor, mask=None, reduction: str = "mean") -> Tensor:
    """Plain cross-entropy: reduction of -log p_t over unmasked tokens."""
    return compute_loss(LossSpec("sft", reduction=reduction), token_log_probs, mask)


def dft_token_loss(token_log_probs: Tensor, mask=None, reduction: str = "mean") -> Tensor:
    """Cross-entropy with each token scaled by its own detached probability."""
    return compute_loss(LossSpec("dft_token", reduction=reduction), token_log_probs, mask)


def dft_sequence_loss(token_log_probs: Tensor, mask=None, reduction: str = "mean") -> Tensor:
    """Cross-entropy scaled by the detached whole-sequence probability."""
    return compute_loss(LossSpec("dft_sequence", reduction=reduction), token_log_probs, mask)


def focal_loss(token_log_probs: Tensor, mask=None, gamma: float = 2.0,
               reduction: str = "mean") -> Tensor:
    """Focal contrast: -(1-p)^gamma log p, the (1-p)^gamma factor differentiable."""
    return compute_loss(LossSpec("focal", gamma, reduction), token_log_probs, mask)


def iw_sft_loss(token_log_probs: Tensor, reference_log_probs, mask=None,
                iw_clip: float = DEFAULT_IW_CLIP, reduction: str = "mean") -> Tensor:
    """Importance-weighted cross-entropy against a reference policy.

    Weight is the detached, clipped probability ratio p/p_ref. This is an
    approximation of the externally defined objective, kept for baseline
    comparisons only.
    """
    spec = LossSpec("iw_sft", reduction=reduction, iw_clip=iw_clip)
    return compute_loss(spec, token_log_probs, mask, reference_log_probs)
