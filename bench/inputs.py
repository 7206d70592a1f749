"""The benchmark's own inputs and answer checker.

Addition-scratchpad demonstrations are drawn here from a seeded numpy
stream, independently of ``dftlab.tasks.generate_dataset``, so the
program under test only ever receives generated inputs. The scratchpad
grammar is the one documented in ``dftlab.tasks``:

    "27+35=" -> "7+5=12,c1;2+3+1=6;=62"

Make-up of every input set, for any seed:

* train and in-distribution eval items alternate 2-digit and 3-digit
  operands, so both prompt-length groups (6 and 8 tokens) always hold
  half of the rows;
* OOD eval items all have 4-digit operands: one prompt-length group of
  10 tokens;
* every prompt is unique within its set and no eval prompt appears in
  the training set.
"""

from __future__ import annotations

import re

import numpy as np

from dftlab.tasks import Demonstration

TASK = "addition-scratchpad"
VOCAB_CHARS = "0123456789+=,;c"
PAD, EOS = 0, 1
VOCAB_SIZE = len(VOCAB_CHARS) + 2

TRAIN_DIGITS = (2, 3)
OOD_DIGITS = (4,)

_STREAMS = {"train": 1, "eval_in": 2, "eval_ood": 3, "warm": 4}
_PROMPT = re.compile(r"^(\d+)\+(\d+)=$")


def scratchpad(a: int, b: int) -> str:
    """Digit-by-digit working for a+b, least significant digit first."""
    da = [int(ch) for ch in reversed(str(a))]
    db = [int(ch) for ch in reversed(str(b))]
    steps, carry = [], 0
    for i, (x, y) in enumerate(zip(da, db)):
        term = f"{x}+{y}" if i == 0 else f"{x}+{y}+{carry}"
        total = x + y + carry
        carry = total // 10
        steps.append(f"{term}={total}" + (f",c{carry}" if carry else ""))
    return ";".join(steps) + f";={a + b}"


def _draw(seed: int, stream: str, n: int, digits: tuple, taken: set) -> list:
    rng = np.random.default_rng([seed, _STREAMS[stream]])
    out = []
    while len(out) < n:
        d = digits[len(out) % len(digits)]
        a, b = (int(v) for v in rng.integers(10 ** (d - 1), 10**d, size=2))
        prompt = f"{a}+{b}="
        if prompt in taken:
            continue
        taken.add(prompt)
        out.append(Demonstration(prompt, scratchpad(a, b), TASK, d))
    return out


def make_inputs(seed: int, n_train: int, n_eval_in: int, n_eval_ood: int) -> dict:
    """Train, in-distribution and OOD demonstration lists for one seed."""
    taken: set = set()
    return {
        "train": _draw(seed, "train", n_train, TRAIN_DIGITS, taken),
        "eval_in": _draw(seed, "eval_in", n_eval_in, TRAIN_DIGITS, taken),
        "eval_ood": _draw(seed, "eval_ood", n_eval_ood, OOD_DIGITS, taken),
    }


def warm_train(n: int) -> list:
    """Training items of the committed warm checkpoint (one fixed stream)."""
    return _draw(0, "warm", n, TRAIN_DIGITS, set())


def encode(text: str) -> list:
    return [VOCAB_CHARS.index(ch) + 2 for ch in text]


def decode(ids) -> str:
    return "".join(VOCAB_CHARS[i - 2] for i in ids)


def completion_ok(prompt_ids, completion) -> bool:
    """True when the completion ends with EOS and its last '=' segment is a+b.

    The expected sum is recomputed from the prompt text; scratchpad steps
    are not checked, matching the task's answer-only contract.
    """
    m = _PROMPT.match(decode(prompt_ids))
    if m is None:
        raise ValueError(f"not an addition prompt: {decode(prompt_ids)!r}")
    ids = list(completion)
    if EOS not in ids:
        return False
    body = ids[: ids.index(EOS)]
    if any(i < 2 or i >= VOCAB_SIZE for i in body):
        return False
    text = decode(body)
    return "=" in text and text.rsplit("=", 1)[1] == str(int(m[1]) + int(m[2]))


def well_formed(completion, limit: int) -> bool:
    """Vocabulary ids only, and it stops at its first EOS or at the limit."""
    ids = list(completion)
    if not ids or len(ids) > limit:
        return False
    if any(i < 0 or i >= VOCAB_SIZE for i in ids):
        return False
    if EOS in ids:
        return ids.index(EOS) == len(ids) - 1
    return len(ids) == limit


def has_pad(completion) -> bool:
    """PAD is reserved for batch padding and should never be sampled."""
    return PAD in completion
