"""Small decoder-only autoregressive transformer.

Pre-norm residual blocks, learned absolute positional embeddings, GELU
MLP with a 4x hidden width, untied output head. The activation is kept
smooth on purpose: the theory oracles lean on finite-difference checks,
and a kinked MLP would poison them near the kink. Token ids 0 and 1 are
reserved everywhere in this package: 0 pads batches, 1 ends a response.

``Model.forward(ids, cache)`` is the one transformer forward. Without a
cache it runs the whole (batch, length) id matrix through the autodiff
graph. With a ``KVCache`` it is an incremental decode step: ``ids`` are
the positions right after the cached ones, position embeddings start at
the cached length, each new query attends to every cached key plus the
new keys up to itself, and the new keys and values are appended to the
cache in place. A cache skips the graph for the cached positions, so it
is only accepted on a gradient-free (``detached``) model. A cache may
hold several segments, blocks of rows with their own cached length: the
row-wise layers (embeddings, norms, projections, MLP, head) then run once
over every row, and only attention runs segment by segment. Every one of
those layers computes each row on its own, so a row's logits keep their
bits whichever segments share the step. ``sample_batch`` prefills one
segment per prompt-length group, then forwards one position per
still-running row of every group per step, and drops a row from the batch
and from the cache once it has emitted EOS or reached its group's limit.
Each block's MLP is one ``autodiff.mlp`` node, which keeps only its input
for backward and recomputes the hidden layer there.

A forward without a cache, on a model with no parameter that requires
grad, of at least 2 rows with rows × length × ``d_model`` at least
``BLOCK_ELEMS``, in a process whose CPU affinity allows 2 CPUs or more,
runs rows ``[b//2:]`` on one persistent helper thread while the caller
runs the rest, and concatenates the logits. Both halves run the same
serial forward, and no row's arithmetic depends on the other rows, so
the logits keep their bits. That covers the teacher-forced read-outs and
iw_sft's reference log-probs; training forwards, cached prefills and
decode steps stay on the caller's thread. A caller that finds the
helper busy with another thread's rows runs all its rows itself. A
forked child drops its parent's helper and starts its own. There is no
option: the input, the affinity and the parameters decide.

Checkpoint file layout (little-endian throughout):

    magic           8 bytes  b"DFTCKPT1"
    config_len      uint32
    config          config_len bytes of UTF-8 JSON (ModelConfig fields)
    n_params        uint32
    per parameter, in canonical order:
        name_len    uint32
        name        name_len bytes UTF-8
        ndim        uint32
        dims        ndim * uint64
        data        product(dims) * float64

``save_checkpoint`` writes to ``<path>.tmp`` and renames it over
``path``. ``load_checkpoint`` requires exactly the config's parameter
set, each once with its config shape, and no bytes after the last one.

Canonical parameter order is the insertion order of ``Model.params``:
wte, wpe, per-layer blocks (ln1, attention, ln2, mlp), final norm, head.
Flat gradient vectors used by the theory oracles concatenate in this
same order.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
import threading
import typing
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .autodiff import (
    BLOCK_ELEMS,
    Tensor,
    add,
    embedding,
    gather,
    layer_norm,
    log,
    matmul,
    mlp,
    reshape,
    scaled_masked_softmax,
    softmax,
    transpose,
)

PAD_ID = 0
EOS_ID = 1

_CKPT_MAGIC = b"DFTCKPT1"
_MASK_FILL_VALUE = -1e30  # finite stand-in for -inf; softmax maps it to exactly 0


@functools.cache
def _field_types(cls) -> dict:
    return typing.get_type_hints(cls)  # resolving string annotations would dominate from_dict


def _decode(hint, value, where: str):
    """The JSON ``value`` read as ``hint``, one of ``Record``'s field types,
    in one pass: a value that does not fit is a ValueError naming ``where``."""
    if hint is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if hint in (int, str, bool) and isinstance(value, hint) and (
            (hint is bool) == isinstance(value, bool)):
        return value
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:  # Optional[X]
        return None if value is None else _decode(args[0], value, where)
    if origin is list and isinstance(value, list):
        return [_decode(args[0], v, f"{where} item {i}") for i, v in enumerate(value)]
    if origin is tuple and isinstance(value, list) and len(value) == len(args):
        return tuple(_decode(args[i], v, f"{where} item {i}") for i, v in enumerate(value))
    if isinstance(hint, type) and issubclass(hint, Record):
        return hint.from_dict(value)
    name = hint.__name__ if isinstance(hint, type) else hint  # list[int] prints as such
    raise ValueError(f"{where} must be {name}, got {value!r}")


def _to_json(value):
    if isinstance(value, Record):
        return value.to_dict()
    if isinstance(value, (list, tuple)):
        return [_to_json(v) for v in value]
    return value


class Record:
    """JSON codec shared by the dataclasses that are read from or written
    to JSON: configs, task specs, demonstrations and result records.

    A field's type is ``int``, ``float``, ``str``, ``bool``, ``list[X]``,
    ``tuple[X, Y]`` (a list of that length), a record, or ``Optional`` of
    one of these; an int given for a float is read as a float, and a bool
    is never a number. A derived field (``field(init=False)``, set in
    ``__post_init__``) is written like any other and never passed to the
    constructor.
    """

    @classmethod
    def from_dict(cls, d):
        """Build from a JSON object whose every key is a field of ``cls``.

        A misspelt key, a missing field without a default, or a value that
        does not fit its field's type at any depth (``2.5`` for an int,
        ``[2]`` for a ``tuple[int, int]``) is a ValueError naming the key.
        A nested record, ``Optional`` or not, is built through its own
        ``from_dict``. A stored derived field must equal the value the
        other fields give.
        """
        if not isinstance(d, dict):
            raise ValueError(f"{cls.__name__} needs a JSON object, got {d!r}")
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"{cls.__name__} has no field {', '.join(map(repr, unknown))}")
        missing = [f.name for f in fields(cls) if f.name not in d and f.init
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise ValueError(f"{cls.__name__} is missing field {', '.join(map(repr, missing))}")
        hints = _field_types(cls)
        values = {key: _decode(hints[key], value, f"{cls.__name__} field {key!r}")
                  for key, value in d.items()}
        derived = [f.name for f in fields(cls) if not f.init and f.name in d]
        out = cls(**{key: value for key, value in values.items() if key not in derived})
        for key in derived:
            recomputed = _to_json(getattr(out, key))
            if d[key] != recomputed:
                raise ValueError(f"{cls.__name__} field {key!r} is {d[key]!r}, but the "
                                 f"other fields give {recomputed!r}")
        return out

    def to_dict(self) -> dict:
        """Every field, with nested records as objects and tuples as lists."""
        return {f.name: _to_json(getattr(self, f.name)) for f in fields(self)}


@dataclass
class ModelConfig(Record):
    vocab_size: int
    d_model: int = 128
    n_layers: int = 4
    n_heads: int = 4
    context_length: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.vocab_size < 2:
            raise ValueError(f"vocab_size must be >= 2, got {self.vocab_size}")
        for field in ("d_model", "n_layers", "n_heads", "context_length"):
            if getattr(self, field) < 1:
                raise ValueError(f"{field} must be positive")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if self.seed < 0:  # numpy seeds the init from a non-negative int
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def expected_param_count(config: ModelConfig) -> int:
    """Closed-form parameter count for a config.

    V*D (token emb) + T*D (pos emb) + L*(12*D^2 + 13*D) per block
    + 2*D (final norm) + D*V + V (head).
    """
    v, d, t, layers = (
        config.vocab_size,
        config.d_model,
        config.context_length,
        config.n_layers,
    )
    return v * d + t * d + layers * (12 * d * d + 13 * d) + 2 * d + d * v + v


def _param_table(config: ModelConfig) -> dict:
    """name -> (shape, init) of every parameter, in canonical order.

    ``init`` is "normal" (N(0, 0.02), drawn from the config's seed in
    table order), "zeros" or "ones". ``Model`` initialises from this table
    and ``load_checkpoint`` checks a file's shapes against it.
    """
    c = config
    d, ff = c.d_model, 4 * c.d_model
    table = {"wte": ((c.vocab_size, d), "normal"), "wpe": ((c.context_length, d), "normal")}
    for i in range(c.n_layers):
        p = f"layers.{i}."
        table[p + "ln1.weight"] = ((d,), "ones")
        table[p + "ln1.bias"] = ((d,), "zeros")
        for mat in ("wq", "wk", "wv", "wo"):
            table[p + "attn." + mat] = ((d, d), "normal")
        for vec in ("bq", "bk", "bv", "bo"):
            table[p + "attn." + vec] = ((d,), "zeros")
        table[p + "ln2.weight"] = ((d,), "ones")
        table[p + "ln2.bias"] = ((d,), "zeros")
        table[p + "mlp.w1"] = ((d, ff), "normal")
        table[p + "mlp.b1"] = ((ff,), "zeros")
        table[p + "mlp.w2"] = ((ff, d), "normal")
        table[p + "mlp.b2"] = ((d,), "zeros")
    table["lnf.weight"] = ((d,), "ones")
    table["lnf.bias"] = ((d,), "zeros")
    table["head.w"] = ((d, c.vocab_size), "normal")
    table["head.b"] = ((c.vocab_size,), "zeros")
    return table


class KVCache:
    """Keys and values of the positions a model has already forwarded.

    The cache's batch rows fall into segments: runs of consecutive rows
    that share one cached length. Sampling makes one segment per
    prompt-length group. A segment is a list with one (keys, values) pair
    per layer, each (rows, heads, length, head_dim). A fresh cache has no
    segments, and its first forward opens one. ``KVCache.join`` stacks
    caches' segments, in order, into one cache. ``Model.forward(ids,
    cache)`` appends the new positions to every segment; ``keep(mask)``
    drops the unmasked rows, and a segment left without rows.
    """

    def __init__(self, segments=()):
        self.segments: list = list(segments)

    @classmethod
    def join(cls, caches) -> "KVCache":
        return cls(segment for cache in caches for segment in cache.segments)

    @property
    def lengths(self) -> list:
        return [seg[0][0].shape[2] if seg else 0 for seg in self.segments]

    @property
    def rows(self) -> list:
        return [seg[0][0].shape[0] for seg in self.segments]

    def keep(self, mask) -> None:
        """Keep the rows where the boolean ``mask`` (one entry a row) is true."""
        kept, lo = [], 0
        for seg in self.segments:
            n = seg[0][0].shape[0]
            rows, lo = mask[lo:lo + n], lo + n
            left = np.count_nonzero(rows)
            if left == n:
                kept.append(seg)
            elif left:
                kept.append([(k[rows], v[rows]) for k, v in seg])
        self.segments = kept

    def extend(self, segment: int, layer: int, k: np.ndarray, v: np.ndarray) -> tuple:
        """Append one segment's new keys and values at one layer; returns all of them."""
        seg = self.segments[segment]
        if layer == len(seg):
            seg.append((k, v))
        else:
            old_k, old_v = seg[layer]
            seg[layer] = (np.concatenate([old_k, k], axis=2), np.concatenate([old_v, v], axis=2))
        return seg[layer]


_helper_lock = threading.Lock()  # held by the one caller whose rows the helper runs
_helper = None  # the helper thread: a one-worker executor, made at the first split


def _drop_helper() -> None:
    """A forked child has no helper thread, only its parent's record of one."""
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_helper)


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _split_rows(model: "Model", ids: np.ndarray) -> Tensor:
    """``model._rows(ids)``, with rows ``[b//2:]`` run on the helper thread.

    No row's arithmetic depends on another row, so the logits keep their
    bits. A caller that finds the helper busy runs all its rows itself.
    """
    global _helper
    lock = _helper_lock
    if not lock.acquire(blocking=False):
        return model._rows(ids)
    try:
        if _helper is None:
            from concurrent.futures import ThreadPoolExecutor  # loads logging: not at import

            _helper = ThreadPoolExecutor(1, thread_name_prefix="dftlab-forward")
        half = len(ids) // 2
        rest = _helper.submit(model._rows, ids[half:])
        try:
            first = model._rows(ids[:half]).data
        finally:
            second = rest.result()  # read even when the caller's half raised
    finally:
        lock.release()
    return Tensor(np.concatenate([first, second.data]))


class Model:
    """Decoder-only transformer; owns named parameter tensors."""

    def __init__(self, config: ModelConfig, _init: bool = True):
        self.config = config
        self.params: dict[str, Tensor] = {}
        if _init:
            self._init_params()

    def _init_params(self):
        rng = np.random.default_rng(self.config.seed)
        init = {"normal": lambda shape: rng.normal(0.0, 0.02, size=shape),
                "zeros": np.zeros, "ones": np.ones}
        self.params = {name: Tensor(init[kind](shape), requires_grad=True)
                       for name, (shape, kind) in _param_table(self.config).items()}

    def named_parameters(self):
        return list(self.params.items())

    def num_params(self) -> int:
        return sum(t.data.size for t in self.params.values())

    def zero_grad(self):
        for t in self.params.values():
            t.zero_grad()

    def flat_grad(self) -> np.ndarray:
        """Concatenated gradients in canonical parameter order (zeros where unset)."""
        chunks = []
        for t in self.params.values():
            g = t.grad if t.grad is not None else np.zeros_like(t.data)
            chunks.append(g.reshape(-1))
        return np.concatenate(chunks)

    def detached(self) -> "Model":
        """Gradient-free view sharing this model's parameter arrays."""
        view = Model(self.config, _init=False)
        view.params = {k: Tensor(t.data) for k, t in self.params.items()}
        return view

    def copy(self) -> "Model":
        """Independent trainable clone with copied parameter arrays."""
        clone = Model(self.config, _init=False)
        clone.params = {
            k: Tensor(t.data.copy(), requires_grad=True)
            for k, t in self.params.items()
        }
        return clone

    # --- forward paths ---

    def forward(self, token_ids: np.ndarray, cache: KVCache | None = None) -> Tensor:
        """Logits (batch, length, vocab) for a (batch, length) int matrix.

        Causal: position t sees tokens at positions <= t only. With a
        ``cache``, each row of ``token_ids`` continues its segment's cached
        positions and every segment grows by ``length``; the model must be
        gradient-free. Row-wise layers run once over all rows; attention
        runs once per segment.
        """
        ids = np.asarray(token_ids)
        if ids.ndim != 2:
            raise ValueError(f"forward expects a 2-D id matrix, got shape {ids.shape}")
        b, t = ids.shape
        c = self.config
        if cache is None or not cache.segments:
            starts, rows = [0], [b]
        else:
            starts, rows = cache.lengths, cache.rows
        if max(starts) + t > c.context_length:
            raise ValueError(
                f"sequence length {max(starts) + t} exceeds context_length {c.context_length}"
            )
        if t == 0:
            raise ValueError("forward on empty sequence")
        if ids.min() < 0 or ids.max() >= c.vocab_size:
            raise ValueError(
                f"token id out of vocab (size {c.vocab_size}): "
                f"range [{ids.min()}, {ids.max()}]"
            )
        if sum(rows) != b:
            raise ValueError(f"{b} id rows for a cache of {sum(rows)} rows")
        if cache is not None:
            if any(w.requires_grad for w in self.params.values()):
                raise ValueError(
                    "a K/V cache bypasses autodiff; forward it on model.detached()"
                )
            if not cache.segments:
                cache.segments.append([])
        elif (b >= 2 and b * t * c.d_model >= BLOCK_ELEMS and _usable_cpus() >= 2
              and not any(w.requires_grad for w in self.params.values())):
            return _split_rows(self, ids)
        return self._rows(ids, cache, starts, rows)

    def _rows(self, ids: np.ndarray, cache: KVCache | None = None, starts=(0,),
              rows=None) -> Tensor:
        """``forward`` after its checks. ``_split_rows`` runs it on two
        threads at once, so it never calls ``forward``: a traced run wraps
        that name with a span recorder only one thread may use."""
        b, t = ids.shape
        c = self.config
        rows = rows or [b]
        p = self.params
        h = c.n_heads
        hd = c.d_model // h

        if len(starts) == 1:
            positions = np.arange(starts[0], starts[0] + t)
        else:  # each segment's rows at that segment's positions
            positions = np.repeat(starts, rows)[:, None] + np.arange(t)
        x = add(embedding(p["wte"], ids), embedding(p["wpe"], positions))
        # One new position sees every cached one: no entry to mask.
        masks = ([~np.tril(np.ones((t, start + t), dtype=bool), k=start) for start in starts]
                 if t > 1 else [None] * len(starts))

        def attend(q, k, v, causal):
            att = matmul(q, transpose(k, (0, 1, 3, 2)))
            att = scaled_masked_softmax(att, 1.0 / np.sqrt(hd), causal, _MASK_FILL_VALUE)
            return matmul(att, v)

        for i in range(c.n_layers):
            pre = f"layers.{i}."
            ln1 = layer_norm(x, p[pre + "ln1.weight"], p[pre + "ln1.bias"])

            def heads(mat, bias):
                y = add(matmul(ln1, p[pre + "attn." + mat]), p[pre + "attn." + bias])
                return transpose(reshape(y, (b, t, h, hd)), (0, 2, 1, 3))

            q = heads("wq", "bq")
            k = heads("wk", "bk")
            v = heads("wv", "bv")
            if len(rows) == 1:
                if cache is not None:
                    k, v = map(Tensor, cache.extend(0, i, k.data, v.data))
                out = attend(q, k, v, masks[0])
            else:
                parts, lo = [], 0
                for s, (n, mask) in enumerate(zip(rows, masks)):
                    ks, vs = cache.extend(s, i, k.data[lo:lo + n], v.data[lo:lo + n])
                    parts.append(attend(Tensor(q.data[lo:lo + n]), Tensor(ks), Tensor(vs), mask).data)
                    lo += n
                out = Tensor(np.concatenate(parts))
            out = reshape(transpose(out, (0, 2, 1, 3)), (b, t, c.d_model))
            out = add(matmul(out, p[pre + "attn.wo"]), p[pre + "attn.bo"])
            x = add(x, out)

            ln2 = layer_norm(x, p[pre + "ln2.weight"], p[pre + "ln2.bias"])
            x = add(x, mlp(ln2, p[pre + "mlp.w1"], p[pre + "mlp.b1"],
                           p[pre + "mlp.w2"], p[pre + "mlp.b2"]))

        x = layer_norm(x, p["lnf.weight"], p["lnf.bias"])
        return add(matmul(x, p["head.w"]), p["head.b"])

    def token_log_probs(self, prompt_ids, response_ids) -> Tensor:
        """Per-token log prob of each response token given its true prefix.

        Entry t is log softmax(logits at the position preceding response
        token t), indexed at that token. All entries are <= 0. This is the
        response slice of ``batch_token_log_probs`` on the one unpadded row.
        """
        prompt = list(prompt_ids)
        response = list(response_ids)
        if not response:
            raise ValueError("empty response")
        if not prompt:
            raise ValueError("empty prompt")
        ids = np.array(prompt + response, dtype=np.int64)
        column = reshape(batch_token_log_probs(self, ids[None]), (len(ids) - 1, 1))
        picked = embedding(column, np.arange(len(prompt) - 1, len(ids) - 1))
        return reshape(picked, (len(response),))

    # --- sampling ---

    def sample(
        self,
        prompt_ids,
        max_new: int,
        temperature: float = 1.0,
        seed: int = 0,
        greedy: bool = False,
    ) -> list:
        """Sample a completion; stops at EOS_ID or after max_new tokens.

        Returns generated ids only (terminal EOS included when emitted).
        ``greedy`` implements the temperature -> 0 limit as argmax.
        """
        return sample_batch(self, [list(prompt_ids)], max_new, temperature, [seed], greedy)[0]


def inverse_cdf(probs: np.ndarray, u) -> np.ndarray:
    """Inverse-CDF draw: per row, the number of cumulative probabilities <= u.

    ``probs`` is (n, V) against ``u`` of shape (n,), or one distribution
    (V,) broadcast against any ``u``. The result is clamped to V-1 for
    the case where rounding leaves the last cumulative sum below ``u``,
    so an id with zero probability is never drawn.
    """
    cdf = np.cumsum(probs, axis=-1)
    u = np.asarray(u, dtype=np.float64)
    return np.minimum((cdf <= u[..., None]).sum(axis=-1), probs.shape[-1] - 1)


def sample_batch(
    model: Model,
    prompts: list,
    max_new: int,
    temperature: float,
    seeds: list,
    greedy: bool = False,
) -> list:
    """Sample one completion per prompt, each from its own seeded stream.

    Prompts are grouped by length so each group stays position-aligned
    (the model has no pad-aware attention); per-prompt streams make the
    output independent of grouping. Each group prefills its own K/V cache
    segment; then one step loop forwards one new position for every
    running row of every group at once. A row leaves the batch and the
    cache once it has emitted EOS or its group has reached its limit,
    ``min(max_new, context_length - prompt length)`` new tokens. Unless
    greedy, each running row draws one ``random()`` from its own stream
    per step, in row order, and the step's tokens come from one
    ``inverse_cdf`` call. An empty prompt, or one of ``context_length``
    tokens or more, is a ValueError.
    """
    if len(prompts) != len(seeds):
        raise ValueError("prompts and seeds must align")
    if not greedy and temperature <= 0:
        raise ValueError("temperature must be > 0 (use greedy for the argmax limit)")
    for i, prompt in enumerate(prompts):
        if not 0 < len(prompt) < model.config.context_length:
            raise ValueError(f"prompt {i} has {len(prompt)} tokens; sampling needs 1 "
                             f"to context_length - 1 ({model.config.context_length - 1})")
    if not prompts:
        return []

    net = model.detached()
    by_len: dict[int, list] = {}
    for idx, prompt in enumerate(prompts):
        by_len.setdefault(len(prompt), []).append(idx)
    groups = sorted(by_len.items())

    caches, logits = [], []
    for plen, indices in groups:  # one prefill, and one cache segment, per group
        caches.append(KVCache())
        prefill = np.array([prompts[i] for i in indices], dtype=np.int64)
        logits.append(net.forward(prefill, caches[-1]).data[:, -1, :])
    cache = KVCache.join(caches)
    del caches  # so that the rows the joined cache drops are freed
    logits = np.concatenate(logits)
    order = [idx for _, indices in groups for idx in indices]  # prompt index of each row
    group_limits = [min(max_new, model.config.context_length - plen) for plen, _ in groups]
    limits = np.repeat(group_limits, [len(indices) for _, indices in groups])
    stops = set(group_limits)
    rngs = [np.random.default_rng(seeds[i]) for i in order]
    outs = [[] for _ in order]
    live = np.arange(len(order))  # rows still sampling, in row order
    for step in range(1, max(group_limits) + 1):
        if greedy:
            tokens = np.argmax(logits, axis=-1)
        else:
            u = np.array([rngs[r].random() for r in live])
            tokens = inverse_cdf(softmax(Tensor(logits / temperature)).data, u)
        for r, token in zip(live, tokens):
            outs[r].append(int(token))
        running = tokens != EOS_ID
        if step in stops:  # a group reaches its limit: its rows leave
            running &= limits[live] > step
        if not running.any():
            break
        if not running.all():
            live, tokens = live[running], tokens[running]
            cache.keep(running)
        logits = net.forward(tokens[:, None], cache).data[:, -1, :]
    results: list = [None] * len(prompts)
    for r, idx in enumerate(order):
        results[idx] = outs[r]
    return results


def batch_token_log_probs(model: Model, ids: np.ndarray) -> Tensor:
    """Teacher-forced log prob of ids[:, 1:] given prefixes, shape (B, L-1).

    The one teacher-forced path: ``Model.token_log_probs`` slices its
    response positions out of this on a single row. Rows are padded
    sequences; the caller masks out pad and prompt positions.
    """
    ids = np.asarray(ids, dtype=np.int64)
    logits = model.forward(ids[:, :-1])
    return log(gather(softmax(logits), ids[:, 1:]))


# --- checkpoint io ---


def save_checkpoint(model: Model, path) -> None:
    """Write ``model`` to ``path`` atomically: a temp file, then ``os.replace``.

    A crash mid-write leaves any earlier checkpoint at ``path`` intact.
    """
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(_CKPT_MAGIC)
            cfg = json.dumps(model.config.to_dict(), sort_keys=True).encode()
            f.write(struct.pack("<I", len(cfg)))
            f.write(cfg)
            f.write(struct.pack("<I", len(model.params)))
            for name, t in model.params.items():
                raw = name.encode()
                f.write(struct.pack("<I", len(raw)))
                f.write(raw)
                f.write(struct.pack("<I", t.data.ndim))
                for dim in t.data.shape:
                    f.write(struct.pack("<Q", dim))
                f.write(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path) -> Model:
    """Read a checkpoint holding exactly its config's parameter set.

    Raises ValueError, naming ``path``, for a bad magic or config, an
    unknown, repeated, missing or misshapen parameter, a truncated file,
    or bytes after the last parameter.
    """
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:8] != _CKPT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    pos = 8

    def take(n: int) -> bytes:
        nonlocal pos
        if pos + n > len(raw):
            raise ValueError(
                f"{path}: truncated: needs {pos + n} bytes, file has {len(raw)}"
            )
        chunk = raw[pos:pos + n]
        pos += n
        return chunk

    (cfg_len,) = struct.unpack("<I", take(4))
    try:
        config = ModelConfig.from_dict(json.loads(take(cfg_len).decode()))
    except ValueError as exc:
        raise ValueError(f"{path}: bad config: {exc}") from None
    table = _param_table(config)
    (n_params,) = struct.unpack("<I", take(4))
    loaded = {}
    for _ in range(n_params):
        (name_len,) = struct.unpack("<I", take(4))
        name = take(name_len).decode(errors="replace")
        (ndim,) = struct.unpack("<I", take(4))
        shape = struct.unpack(f"<{ndim}Q", take(8 * ndim))
        if name not in table:
            raise ValueError(f"{path}: unknown parameter {name!r}")
        if name in loaded:
            raise ValueError(f"{path}: parameter {name!r} appears twice")
        if table[name][0] != shape:
            raise ValueError(
                f"{path}: shape {shape} for {name!r} does not match config"
            )
        data = np.frombuffer(take(math.prod(shape) * 8), dtype="<f8").reshape(shape)
        loaded[name] = Tensor(data.copy(), requires_grad=True)
    if pos != len(raw):
        raise ValueError(
            f"{path}: {len(raw) - pos} trailing bytes after the last parameter"
        )
    missing = [name for name in table if name not in loaded]
    if missing:
        raise ValueError(
            f"{path}: missing {len(missing)} of {len(table)} parameters: "
            f"{', '.join(missing)}"
        )
    model = Model(config, _init=False)
    model.params = {name: loaded[name] for name in table}
    return model
