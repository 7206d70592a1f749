"""Synthetic demonstration tasks with exact answer verifiers.

Three character-level tasks stand in for a math corpus. Each has a fixed
vocabulary, a generator that emits (prompt, response) demonstrations, and
a verifier that recomputes the ground truth from the prompt and compares
only the final answer segment (scratchpad steps are never checked).

Token ids 0 and 1 are reserved: 0 pads batches and never appears in
data; 1 is the end-of-sequence id, rendered as '$'. Response token lists
always end with the EOS id, and the '$' character is banned from
response text itself.

Addition scratchpad grammar, character by character, for "27+35=":

    7+5=12,c1;2+3+1=6;=62

One step per digit position, least significant first. A step is
"<da>+<db>" for the first position and "<da>+<db>+<carry_in>" after
that, then "=<digit sum>"; if the step carries, ",c1" is appended.
Steps are joined by ";" and the final segment is ";=<full answer>".

Modular arithmetic ("(3+4)*2 mod 5=") gets the step list
"3+4=7;7*2=14;14mod5=4;=4"; sequence reversal ("abc|") is just "cba".
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

import numpy as np

from .model import EOS_ID, PAD_ID, Record
from .seeding import derive_seed

EOS_CHAR = "$"

TASK_KINDS = ("addition-scratchpad", "sequence-reversal", "modular-arithmetic")

_REVERSAL_LETTERS = "abcdefghij"


class Vocabulary:
    """Bijective char <-> id map; ids 0 (pad) and 1 (eos '$') reserved."""

    def __init__(self, chars: str):
        if EOS_CHAR in chars or len(set(chars)) != len(chars):
            raise ValueError("vocabulary chars must be unique and exclude '$'")
        self.chars = chars
        self._to_id = {EOS_CHAR: EOS_ID}
        self._to_char = {EOS_ID: EOS_CHAR}
        for i, ch in enumerate(chars):
            self._to_id[ch] = i + 2
            self._to_char[i + 2] = ch

    @property
    def size(self) -> int:
        return len(self.chars) + 2

    def tokenize(self, text: str) -> list:
        try:
            return [self._to_id[ch] for ch in text]
        except KeyError as exc:
            raise ValueError(f"character {exc.args[0]!r} not in vocabulary") from None

    def detokenize(self, ids) -> str:
        out = []
        for i in ids:
            i = int(i)
            if i == PAD_ID:
                raise ValueError("pad id 0 has no character")
            if i not in self._to_char:
                raise ValueError(f"id {i} not in vocabulary")
            out.append(self._to_char[i])
        return "".join(out)


_VOCABS = {
    "addition-scratchpad": Vocabulary("0123456789+=,;c"),
    "sequence-reversal": Vocabulary(_REVERSAL_LETTERS + "|"),
    "modular-arithmetic": Vocabulary("0123456789+*()=;mod "),
}


def vocabulary_for(task_kind: str) -> Vocabulary:
    if task_kind not in _VOCABS:
        raise ValueError(f"unknown task kind {task_kind!r}")
    return _VOCABS[task_kind]


@dataclass
class Demonstration(Record):
    prompt: str
    response: str
    task: str
    difficulty: int

    def __post_init__(self):
        if EOS_CHAR in self.response or EOS_CHAR in self.prompt:
            raise ValueError("'$' is reserved for end-of-sequence")
        vocabulary_for(self.task)  # validates the tag

    @property
    def prompt_ids(self) -> list:
        return vocabulary_for(self.task).tokenize(self.prompt)

    @property
    def response_ids(self) -> list:
        return vocabulary_for(self.task).tokenize(self.response) + [EOS_ID]


@dataclass
class TaskSpec(Record):
    task_kind: str
    train_difficulty_range: tuple[int, int]
    ood_difficulty_range: tuple[int, int]
    seed: int = 0

    def __post_init__(self):
        if self.task_kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind {self.task_kind!r}")
        lo, hi = self.train_difficulty_range
        olo, ohi = self.ood_difficulty_range
        if lo > hi or olo > ohi or lo < 1 or olo < 1:
            raise ValueError("difficulty ranges must be non-empty and positive")
        if not (hi < olo or ohi < lo):
            raise ValueError("train and OOD difficulty ranges must be disjoint")


def default_task_spec(task_kind: str, seed: int = 0) -> TaskSpec:
    ranges = {
        "addition-scratchpad": ((2, 3), (4, 4)),
        "sequence-reversal": ((3, 8), (9, 12)),
        "modular-arithmetic": ((1, 1), (2, 2)),
    }
    if task_kind not in ranges:
        raise ValueError(f"unknown task kind {task_kind!r}")
    train, ood = ranges[task_kind]
    return TaskSpec(task_kind, train, ood, seed=seed)


# --- generators ---


def _addition_scratchpad(a: int, b: int) -> str:
    da = [int(ch) for ch in str(a)][::-1]
    db = [int(ch) for ch in str(b)][::-1]
    steps = []
    carry = 0
    for i in range(len(da)):
        term = f"{da[i]}+{db[i]}" if i == 0 else f"{da[i]}+{db[i]}+{carry}"
        s = da[i] + db[i] + (carry if i > 0 else 0)
        carry = s // 10
        step = f"{term}={s}"
        if carry:
            step += f",c{carry}"
        steps.append(step)
    return ";".join(steps) + f";={a + b}"


def _gen_addition(rng: np.random.Generator, difficulty: int):
    lo, hi = 10 ** (difficulty - 1), 10**difficulty
    a, b = int(rng.integers(lo, hi)), int(rng.integers(lo, hi))
    return f"{a}+{b}=", _addition_scratchpad(a, b)


def _gen_reversal(rng: np.random.Generator, difficulty: int):
    s = "".join(rng.choice(list(_REVERSAL_LETTERS), size=difficulty))
    return s + "|", s[::-1]


def _gen_modular(rng: np.random.Generator, difficulty: int):
    lo, hi = 10 ** (difficulty - 1), 10**difficulty
    a, b, c = (int(rng.integers(lo, hi)) for _ in range(3))
    m = int(rng.integers(2, 10))
    s = a + b
    t = s * c
    r = t % m
    prompt = f"({a}+{b})*{c} mod {m}="
    response = f"{a}+{b}={s};{s}*{c}={t};{t}mod{m}={r};={r}"
    return prompt, response


_GENERATORS = {
    "addition-scratchpad": _gen_addition,
    "sequence-reversal": _gen_reversal,
    "modular-arithmetic": _gen_modular,
}


# --- verification ---

_ADDITION_PROMPT = re.compile(r"^(\d+)\+(\d+)=$")
_REVERSAL_PROMPT = re.compile(rf"^([{_REVERSAL_LETTERS}]+)\|$")
_MODULAR_PROMPT = re.compile(r"^\((\d+)\+(\d+)\)\*(\d+) mod (\d+)=$")


def ground_truth_answer(task_kind: str, prompt: str) -> str:
    """Recompute the expected final answer from a well-formed prompt."""
    if task_kind == "addition-scratchpad":
        m = _ADDITION_PROMPT.match(prompt)
        if not m:
            raise ValueError(f"malformed addition prompt {prompt!r}")
        return str(int(m.group(1)) + int(m.group(2)))
    if task_kind == "sequence-reversal":
        m = _REVERSAL_PROMPT.match(prompt)
        if not m:
            raise ValueError(f"malformed reversal prompt {prompt!r}")
        return m.group(1)[::-1]
    if task_kind == "modular-arithmetic":
        m = _MODULAR_PROMPT.match(prompt)
        if not m:
            raise ValueError(f"malformed modular prompt {prompt!r}")
        a, b, c, mod = (int(g) for g in m.groups())
        return str((a + b) * c % mod)
    raise ValueError(f"unknown task kind {task_kind!r}")


def verify(task_kind: str, prompt_ids, completion_ids) -> bool:
    """Answer-only check: final answer segment vs recomputed ground truth.

    Unparseable or unterminated completions are wrong, not errors. A
    completion that never emitted EOS is treated as unfinished.
    """
    vocab = vocabulary_for(task_kind)
    prompt = vocab.detokenize(prompt_ids)
    truth = ground_truth_answer(task_kind, prompt)
    ids = list(completion_ids)
    if EOS_ID not in ids:
        return False
    ids = ids[: ids.index(EOS_ID)]
    try:
        text = vocab.detokenize(ids)
    except ValueError:
        return False
    if task_kind == "sequence-reversal":
        return text == truth
    if "=" not in text:
        return False
    return text.rsplit("=", 1)[1] == truth


# --- dataset generation ---


def generate_dataset(spec: TaskSpec, n_train: int, n_eval_in: int,
                     n_eval_ood: int):
    """Three Demonstration lists: train, in-distribution eval, OOD eval.

    Deterministic under spec.seed. Train items may repeat internally when
    the prompt space is small, but no prompt crosses split boundaries;
    eval prompts are unique within their split.
    """
    if min(n_train, n_eval_in, n_eval_ood) < 1:
        raise ValueError("all split sizes must be >= 1")
    gen = _GENERATORS[spec.task_kind]
    rng = np.random.default_rng(derive_seed(spec.seed, "tasks", spec.task_kind))
    seen: set = set()

    def make(n, lo, hi, unique):
        out = []
        attempts = 0
        while len(out) < n:
            attempts += 1
            if attempts > 200 * n + 1000:
                raise ValueError(
                    f"could not draw {n} distinct {spec.task_kind} prompts; "
                    "shrink the split or widen the difficulty range"
                )
            difficulty = int(rng.integers(lo, hi + 1))
            prompt, response = gen(rng, difficulty)
            if prompt in seen:
                continue
            demo = Demonstration(prompt, response, spec.task_kind, difficulty)
            if not verify(spec.task_kind, demo.prompt_ids, demo.response_ids):
                raise RuntimeError(f"generator produced unverifiable item {prompt!r}")
            out.append(demo)
            if unique:
                seen.add(prompt)
        return out

    lo, hi = spec.train_difficulty_range
    olo, ohi = spec.ood_difficulty_range
    train = make(n_train, lo, hi, unique=False)
    seen.update(d.prompt for d in train)
    eval_in = make(n_eval_in, lo, hi, unique=True)
    eval_ood = make(n_eval_ood, olo, ohi, unique=True)
    return train, eval_in, eval_ood


# --- persistence ---


def save_jsonl(demos, path) -> None:
    with open(path, "w") as f:
        for d in demos:
            f.write(json.dumps(d.to_dict()) + "\n")


def load_jsonl(path) -> list:
    """Demonstrations, one JSON object a line; blank lines are skipped.

    A line that is not valid JSON or not a valid Demonstration, or whose
    prompt or response holds a character outside its task's vocabulary,
    is a ValueError naming ``path`` and the line number.
    """
    out = []
    with open(path) as f:
        for number, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                demo = Demonstration.from_dict(json.loads(line))
                vocabulary_for(demo.task).tokenize(demo.prompt + demo.response)
                out.append(demo)
            except ValueError as exc:
                raise ValueError(f"{path} line {number}: {exc}") from None
    return out
