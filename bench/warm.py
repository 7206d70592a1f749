"""The committed warm checkpoint: build it, and load it only after checking it.

The checkpoint is a cross-entropy warm-up at the acceptance shape
(V=17, d=32, L=2, H=2, context 64) on the benchmark's own training
stream, the stand-in for a pretrained base that every workload starts
from. Rebuild it with

    OPENBLAS_NUM_THREADS=1 python3 bench/warm.py

which rewrites ``bench/warm.ckpt`` and prints the sha256 to put in
``WARM_SHA256``. ``load`` parses the file itself before handing it to
``dftlab.model.load_checkpoint``, because that loader keeps the random
init for any parameter missing from the file and ignores trailing bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
WARM_PATH = os.path.join(HERE, "warm.ckpt")
WARM_SHA256 = "13e74b0437436b1f22c3428a3bc87536a3074d7d311ad25031a70c5f610ade21"

MODEL = {"vocab_size": 17, "d_model": 32, "n_layers": 2, "n_heads": 2,
         "context_length": 64, "seed": 0}
WARM_ITEMS = 256
WARM_STEPS = 600


def run_config(kind: str, steps: int, seed: int, output_dir=None):
    """The acceptance suite's fine-tuning config at the benchmark's shape."""
    from dftlab.losses import LossSpec
    from dftlab.model import ModelConfig
    from dftlab.training import RunConfig

    return RunConfig(model=ModelConfig(**MODEL), loss=LossSpec(kind=kind),
                     learning_rate=3e-3, batch_size=32, epochs=None,
                     max_steps=steps, warmup_ratio=0.1, seed=seed,
                     output_dir=output_dir)


def expected_shapes(cfg: dict) -> dict:
    v, d, t, ff = cfg["vocab_size"], cfg["d_model"], cfg["context_length"], 4 * cfg["d_model"]
    shapes = {"wte": (v, d), "wpe": (t, d)}
    for i in range(cfg["n_layers"]):
        p = f"layers.{i}."
        shapes.update({p + "ln1.weight": (d,), p + "ln1.bias": (d,)})
        shapes.update({p + f"attn.w{n}": (d, d) for n in "qkvo"})
        shapes.update({p + f"attn.b{n}": (d,) for n in "qkvo"})
        shapes.update({p + "ln2.weight": (d,), p + "ln2.bias": (d,),
                       p + "mlp.w1": (d, ff), p + "mlp.b1": (ff,),
                       p + "mlp.w2": (ff, d), p + "mlp.b2": (d,)})
    shapes.update({"lnf.weight": (d,), "lnf.bias": (d,),
                   "head.w": (d, v), "head.b": (v,)})
    return shapes


def parse(raw: bytes) -> tuple:
    """(config dict, name -> array) from checkpoint bytes, rejecting any deviation.

    The file must hold exactly the config's parameter set, each with its
    config shape, and nothing after the last parameter.
    """
    if raw[:8] != b"DFTCKPT1":
        raise ValueError("not a checkpoint")
    pos = 8

    def take(n):
        nonlocal pos
        if pos + n > len(raw):
            raise ValueError("checkpoint truncated")
        chunk = raw[pos:pos + n]
        pos += n
        return chunk

    (cfg_len,) = struct.unpack("<I", take(4))
    cfg = json.loads(take(cfg_len).decode())
    (n_params,) = struct.unpack("<I", take(4))
    params = {}
    for _ in range(n_params):
        (name_len,) = struct.unpack("<I", take(4))
        name = take(name_len).decode()
        (ndim,) = struct.unpack("<I", take(4))
        shape = struct.unpack(f"<{ndim}Q", take(8 * ndim))
        params[name] = np.frombuffer(take(8 * int(np.prod(shape))), dtype="<f8").reshape(shape)
    if pos != len(raw):
        raise ValueError(f"{len(raw) - pos} trailing bytes after the last parameter")
    want = expected_shapes(cfg)
    got = {name: a.shape for name, a in params.items()}
    if got != want:
        raise ValueError(f"parameter set differs from the config's {len(want)}: "
                         f"missing {sorted(set(want) - set(got))}, "
                         f"extra or misshapen {sorted(k for k in got if want.get(k) != got[k])}")
    return cfg, params


def load():
    """(Model, reference params) after the sha256 and parameter-set checks."""
    from dftlab.model import load_checkpoint

    with open(WARM_PATH, "rb") as f:
        raw = f.read()
    digest = hashlib.sha256(raw).hexdigest()
    if digest != WARM_SHA256:
        raise ValueError(f"{WARM_PATH}: sha256 {digest} is not the committed {WARM_SHA256}")
    cfg, params = parse(raw)
    if cfg != MODEL:
        raise ValueError(f"{WARM_PATH}: config {cfg} is not the benchmark's {MODEL}")
    model = load_checkpoint(WARM_PATH)
    for name, a in params.items():
        if not np.array_equal(model.params[name].data, a):
            raise ValueError(f"{WARM_PATH}: loaded {name!r} differs from the file")
    return model, {name: a.copy() for name, a in params.items()}


def build() -> str:
    """Train the warm checkpoint, write it to WARM_PATH, return its sha256."""
    from dftlab.model import save_checkpoint
    from dftlab.training import train_run
    from inputs import warm_train

    model, _ = train_run(run_config("sft", WARM_STEPS, seed=0), warm_train(WARM_ITEMS))
    save_checkpoint(model, WARM_PATH)
    with open(WARM_PATH, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    print(build())
