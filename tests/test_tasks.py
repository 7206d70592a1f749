import json
import re

import pytest

from dftlab.model import EOS_ID
from dftlab.tasks import (
    Demonstration,
    TaskSpec,
    default_task_spec,
    generate_dataset,
    ground_truth_answer,
    load_jsonl,
    save_jsonl,
    verify,
    vocabulary_for,
)


def toks(task, text, eos=False):
    ids = vocabulary_for(task).tokenize(text)
    return ids + [EOS_ID] if eos else ids


# --- tokenizer ---


def test_tokenize_round_trip_and_empty():
    v = vocabulary_for("addition-scratchpad")
    s = "12+34=,;c"
    assert v.detokenize(v.tokenize(s)) == s
    assert v.tokenize("") == []


def test_tokenize_rejects_out_of_vocabulary():
    with pytest.raises(ValueError, match="not in vocabulary"):
        vocabulary_for("addition-scratchpad").tokenize("x")
    with pytest.raises(ValueError, match="pad id"):
        vocabulary_for("addition-scratchpad").detokenize([0])


def test_token_table_golden():
    # id->char table must stay stable across releases
    v = vocabulary_for("addition-scratchpad")
    assert v.size == 17
    assert v.tokenize("0123456789+=,;c") == list(range(2, 17))
    assert v.detokenize([1]) == "$"
    r = vocabulary_for("sequence-reversal")
    assert r.size == 13
    assert r.tokenize("abcdefghij|") == list(range(2, 13))
    m = vocabulary_for("modular-arithmetic")
    assert m.size == 22
    assert m.tokenize("0123456789+*()=;mod ") == list(range(2, 22))


# --- generators and grammar ---


def test_addition_scratchpad_exact_grammar():
    demo = Demonstration("27+35=", "", "addition-scratchpad", 2)
    from dftlab.tasks import _addition_scratchpad

    assert _addition_scratchpad(27, 35) == "7+5=12,c1;2+3+1=6;=62"
    assert _addition_scratchpad(55, 66) == "5+6=11,c1;5+6+1=12,c1;=121"
    assert _addition_scratchpad(11, 11) == "1+1=2;1+1+0=2;=22"
    assert demo.task == "addition-scratchpad"


def test_reversal_response():
    spec = default_task_spec("sequence-reversal")
    train, _, _ = generate_dataset(spec, 5, 1, 1)
    for d in train:
        body = d.prompt[:-1]
        assert d.prompt.endswith("|")
        assert d.response == body[::-1]


def test_modular_response_ends_with_answer():
    spec = default_task_spec("modular-arithmetic")
    train, _, _ = generate_dataset(spec, 5, 1, 1)
    for d in train:
        truth = ground_truth_answer(d.task, d.prompt)
        assert d.response.endswith(f"={truth}")


def test_demonstration_round_trip_through_tokenizer():
    for kind in ("addition-scratchpad", "sequence-reversal", "modular-arithmetic"):
        spec = default_task_spec(kind)
        train, _, _ = generate_dataset(spec, 3, 1, 1)
        for d in train:
            v = vocabulary_for(kind)
            ids = d.prompt_ids + d.response_ids
            assert ids[-1] == EOS_ID
            assert EOS_ID not in ids[:-1]
            assert v.tokenize(v.detokenize(ids)) == ids


# --- verify ---


def test_verify_accepts_correct_answer():
    t = "addition-scratchpad"
    assert verify(t, toks(t, "27+35="), toks(t, "7+5=12,c1;2+3+1=6;=62", eos=True))
    assert verify(t, toks(t, "27+35="), toks(t, "=62", eos=True))


def test_verify_rejects_wrong_answer():
    t = "addition-scratchpad"
    assert not verify(t, toks(t, "27+35="), toks(t, "7+5=12,c1;2+3+1=6;=61", eos=True))


def test_verify_rejects_garbage_and_unterminated():
    t = "addition-scratchpad"
    assert not verify(t, toks(t, "27+35="), toks(t, "cc,;++", eos=True))
    assert not verify(t, toks(t, "27+35="), toks(t, "=62"))  # no EOS
    assert not verify(t, toks(t, "27+35="), [EOS_ID])
    r = "sequence-reversal"
    assert verify(r, toks(r, "abc|"), toks(r, "cba", eos=True))
    assert not verify(r, toks(r, "abc|"), toks(r, "abc", eos=True))


def test_verify_soundness_and_perturbation_completeness():
    for kind in ("addition-scratchpad", "sequence-reversal", "modular-arithmetic"):
        spec = default_task_spec(kind, seed=3)
        train, eval_in, eval_ood = generate_dataset(spec, 30, 5, 5)
        for d in train + eval_in + eval_ood:
            assert verify(kind, d.prompt_ids, d.response_ids), d.prompt
            # flip the final answer character
            bad = list(d.response)
            last = bad[-1]
            if kind == "sequence-reversal":
                bad[-1] = "a" if last != "a" else "b"
            else:
                bad[-1] = str((int(last) + 1) % 10)
            bad_ids = vocabulary_for(kind).tokenize("".join(bad)) + [EOS_ID]
            assert not verify(kind, d.prompt_ids, bad_ids), d.prompt


# --- dataset generation ---


def test_generate_dataset_deterministic_and_split_hygiene():
    spec = default_task_spec("addition-scratchpad", seed=11)
    a = generate_dataset(spec, 50, 20, 20)
    b = generate_dataset(spec, 50, 20, 20)
    assert [d.prompt for d in a[0]] == [d.prompt for d in b[0]]
    assert [d.prompt for d in a[1]] == [d.prompt for d in b[1]]
    train, eval_in, eval_ood = a
    train_prompts = {d.prompt for d in train}
    eval_prompts = {d.prompt for d in eval_in} | {d.prompt for d in eval_ood}
    assert not (train_prompts & eval_prompts)
    assert len({d.prompt for d in eval_in}) == 20
    lo, hi = spec.ood_difficulty_range
    assert all(lo <= d.difficulty <= hi for d in eval_ood)


def test_task_spec_rejects_overlapping_ranges():
    with pytest.raises(ValueError, match="disjoint"):
        TaskSpec("addition-scratchpad", (2, 4), (4, 5))


def test_jsonl_round_trip(tmp_path):
    spec = default_task_spec("modular-arithmetic", seed=5)
    train, _, _ = generate_dataset(spec, 10, 1, 1)
    path = tmp_path / "data.jsonl"
    save_jsonl(train, path)
    loaded = load_jsonl(path)
    assert loaded == train


@pytest.mark.parametrize("record,named", [
    ([1, 2], "JSON object"),
    ({"prompt": 12, "response": "21", "task": "sequence-reversal", "difficulty": 2}, "'prompt'"),
    ({"prompt": "ab|", "response": "ba", "task": "sequence-reversal", "difficulty": 2.5},
     "'difficulty'"),
    ({"prompt": "ab|", "task": "sequence-reversal", "difficulty": 2}, "'response'"),
    ({"prompt": "xyz|", "response": "zyx", "task": "sequence-reversal", "difficulty": 3},
     "character 'x' not in vocabulary"),
    ({"prompt": "ab|", "response": "bA", "task": "sequence-reversal", "difficulty": 2},
     "character 'A' not in vocabulary"),
], ids=["not-an-object", "int-prompt", "float-difficulty", "missing-response",
        "prompt-char-outside-vocab", "response-char-outside-vocab"])
def test_load_jsonl_names_the_file_and_line_of_a_bad_record(tmp_path, record, named):
    path = tmp_path / "data.jsonl"
    good = {"prompt": "ab|", "response": "ba", "task": "sequence-reversal", "difficulty": 2}
    path.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path} line 2")) as info:
        load_jsonl(path)
    assert named in str(info.value)


def test_demonstration_rejects_reserved_char():
    with pytest.raises(ValueError, match="reserved"):
        Demonstration("1+1=", "=2$", "addition-scratchpad", 1)
