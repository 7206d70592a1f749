"""Plain-numpy reference computations the benchmark checks the lab against.

Nothing here imports the lab's autodiff or model code: parameters come in
as a plain ``name -> ndarray`` mapping using the checkpoint's names, and
every layer is written out directly (learned token and position
embeddings, pre-norm blocks with causal multi-head attention and a
tanh-GELU MLP, final norm, linear head).
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from inputs import EOS

LN_EPS = 1e-5
LOG_FLOOR = 1e-12  # the lab's log clamps probabilities here; mirrored so pads compare
_GELU_C = math.sqrt(2.0 / math.pi)


def _layer_norm(x, w, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * w + b


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * x * x * x)))


def _softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def logits(params: dict, n_layers: int, n_heads: int, ids) -> np.ndarray:
    """Logits (B, T, V) for a (B, T) id matrix; position t sees ids[:, :t+1]."""
    ids = np.asarray(ids, dtype=np.int64)
    b, t = ids.shape
    x = params["wte"][ids] + params["wpe"][:t]
    d = x.shape[-1]
    hd = d // n_heads
    future = np.triu(np.ones((t, t), dtype=bool), k=1)
    for i in range(n_layers):
        def p(name):
            return params[f"layers.{i}.{name}"]

        h = _layer_norm(x, p("ln1.weight"), p("ln1.bias"))
        q, k, v = (
            (h @ p(f"attn.w{n}") + p(f"attn.b{n}"))
            .reshape(b, t, n_heads, hd)
            .transpose(0, 2, 1, 3)
            for n in "qkv"
        )
        scores = np.where(future, -np.inf, q @ k.transpose(0, 1, 3, 2) / math.sqrt(hd))
        att = (_softmax(scores) @ v).transpose(0, 2, 1, 3).reshape(b, t, d)
        x = x + att @ p("attn.wo") + p("attn.bo")
        h = _layer_norm(x, p("ln2.weight"), p("ln2.bias"))
        x = x + _gelu(h @ p("mlp.w1") + p("mlp.b1")) @ p("mlp.w2") + p("mlp.b2")
    return _layer_norm(x, params["lnf.weight"], params["lnf.bias"]) @ params["head.w"] + params["head.b"]


def token_log_probs(params: dict, n_layers: int, n_heads: int, ids) -> np.ndarray:
    """log p(ids[:, j+1] | ids[:, :j+1]) for every j, shape (B, L-1)."""
    ids = np.asarray(ids, dtype=np.int64)
    probs = _softmax(logits(params, n_layers, n_heads, ids[:, :-1]))
    picked = np.take_along_axis(probs, ids[:, 1:, None], axis=-1)[..., 0]
    return np.log(np.maximum(picked, LOG_FLOOR))


def collate(items) -> tuple:
    """Pad (prompt_ids, response_ids) pairs; mask marks response-token targets."""
    seqs = [list(p) + list(r) for p, r in items]
    length = max(len(s) for s in seqs)
    ids = np.zeros((len(seqs), length), dtype=np.int64)
    mask = np.zeros((len(seqs), length - 1), dtype=bool)
    for row, ((prompt, _), seq) in enumerate(zip(items, seqs)):
        ids[row, : len(seq)] = seq
        mask[row, len(prompt) - 1 : len(seq) - 1] = True
    return ids, mask


def objective(kind: str, logp: np.ndarray, mask: np.ndarray) -> float:
    """Batch loss of the 'sft' or 'dft_token' objective from log-probs.

    Per row: mean over response tokens of -log p (sft) or of -p log p with
    p held constant (dft_token); then the mean over rows.
    """
    if kind == "sft":
        per_token = -logp
    elif kind == "dft_token":
        per_token = -np.exp(logp) * logp
    else:
        raise ValueError(f"no reference objective for {kind!r}")
    rows = np.where(mask, per_token, 0.0).sum(axis=-1) / mask.sum(axis=-1)
    return float(rows.mean())


def shuffle_seed(seed: int) -> int:
    """The training loop's shuffle stream: sha256 over "seed/train/shuffle"."""
    digest = hashlib.sha256(f"{int(seed)}/train/shuffle".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def first_batch(n_items: int, batch_size: int, seed: int) -> np.ndarray:
    """Indices of the items in the first optimizer step of a run."""
    order = np.random.default_rng(shuffle_seed(seed)).permutation(n_items)
    return order[:batch_size]


def greedy(params: dict, n_layers: int, n_heads: int, context: int,
           prompt, max_new: int) -> list:
    """Step-by-step argmax decode, stopping after EOS or at the limit."""
    seq = list(prompt)
    out = []
    for _ in range(min(max_new, context - len(prompt))):
        token = int(np.argmax(logits(params, n_layers, n_heads, [seq])[0, -1]))
        out.append(token)
        if token == EOS:
            break
        seq.append(token)
    return out
