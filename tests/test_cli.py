import errno
import hashlib
import json
import os
import subprocess
import sys

import pytest

from dftlab import cli
from dftlab.cli import apply_overrides, dispatch
from dftlab.losses import LossSpec
from dftlab.model import ModelConfig, save_checkpoint
from dftlab.tasks import Demonstration
from dftlab.training import RunConfig, train_run

MICRO_MODEL = {
    "vocab_size": 13, "d_model": 16, "n_layers": 1, "n_heads": 2,
    "context_length": 24, "seed": 3,
}

MICRO_RUN = {
    "model": MICRO_MODEL,
    "loss": {"kind": "sft"},
    "learning_rate": 3e-3,
    "batch_size": 4,
    "epochs": None,
    "max_steps": 2,
    "warmup_ratio": 0.0,
    "seed": 5,
}


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Micro dataset generated through the CLI itself."""
    root = tmp_path_factory.mktemp("ws")
    data_dir = root / "data"
    cfg = write_config(root / "gen.json", {
        "task": {
            "task_kind": "sequence-reversal",
            "train_difficulty_range": [3, 4],
            "ood_difficulty_range": [9, 10],
            "seed": 2,
        },
        "n_train": 16, "n_eval_in": 3, "n_eval_ood": 3,
        "output_dir": str(data_dir),
    })
    assert dispatch(["gen-data", "--config", cfg]) == 0
    return root, data_dir


@pytest.fixture(scope="module")
def warm_checkpoint(tmp_path_factory):
    """Checkpoint memorized on one demonstration, for rft/eval paths."""
    root = tmp_path_factory.mktemp("warm")
    demo = Demonstration("abc|", "cba", "sequence-reversal", 3)
    cfg = RunConfig(model=ModelConfig(**MICRO_MODEL), loss=LossSpec(kind="sft"),
                    learning_rate=5e-3, batch_size=4, epochs=None,
                    max_steps=60, warmup_ratio=0.1, seed=1)
    model, _ = train_run(cfg, [demo] * 4)
    path = root / "warm.ckpt"
    save_checkpoint(model, path)
    prompts = root / "prompts.jsonl"
    prompts.write_text(json.dumps({
        "prompt": "abc|", "response": "cba",
        "task": "sequence-reversal", "difficulty": 3,
    }) + "\n")
    return str(path), str(prompts)


# --- argument handling ---


def test_help_exits_zero():
    assert dispatch(["--help"]) == 0


def test_unknown_subcommand_exits_one(capsys):
    assert dispatch(["frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_flag_exits_one():
    assert dispatch(["verify", "--config", "x.json", "--bogus"]) == 1


def test_missing_config_exits_one(capsys):
    assert dispatch(["train", "--config", "/nonexistent.json"]) == 1
    assert "does not exist" in capsys.readouterr().err


def test_bad_json_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert dispatch(["train", "--config", str(bad)]) == 1
    assert "not valid JSON" in capsys.readouterr().err


def test_invalid_run_config_exits_one(tmp_path, workspace):
    root, data_dir = workspace
    run = dict(MICRO_RUN, learning_rate=-1.0)
    cfg = write_config(tmp_path / "t.json", {
        "run": run, "train_data": str(data_dir / "train.jsonl"),
        "output_dir": str(tmp_path / "run"),
    })
    assert dispatch(["train", "--config", cfg]) == 1


def test_apply_overrides_nested_and_types():
    config = {"run": {"learning_rate": 1.0}}
    apply_overrides(config, ["run.learning_rate=5e-4", "run.seed=7", "tag=hi"])
    assert config["run"]["learning_rate"] == 5e-4
    assert config["run"]["seed"] == 7
    assert config["tag"] == "hi"


# --- gen-data ---


def test_gen_data_outputs(workspace):
    _, data_dir = workspace
    for name in ("train.jsonl", "eval_in.jsonl", "eval_ood.jsonl",
                 "effective_config.json", "manifest.json"):
        assert (data_dir / name).exists(), name
    assert len((data_dir / "train.jsonl").read_text().splitlines()) == 16


# --- train ---


def test_train_writes_run_dir_and_is_deterministic(tmp_path, workspace):
    _, data_dir = workspace
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = write_config(tmp_path / f"{tag}.json", {
            "run": MICRO_RUN,
            "train_data": str(data_dir / "train.jsonl"),
            "output_dir": str(out),
        })
        assert dispatch(["train", "--config", cfg]) == 0
        outs.append(out)
    for name in ("effective_config.json", "config.json", "metrics.csv",
                 "metrics.jsonl", "manifest.json", "ckpt_final.bin"):
        assert (outs[0] / name).exists(), name
    assert (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()


def test_train_zero_steps_writes_initial_checkpoint(tmp_path, workspace):
    _, data_dir = workspace
    out = tmp_path / "zero"
    cfg = write_config(tmp_path / "z.json", {
        "run": dict(MICRO_RUN, max_steps=0),
        "train_data": str(data_dir / "train.jsonl"),
        "output_dir": str(out),
    })
    assert dispatch(["train", "--config", cfg]) == 0
    assert (out / "ckpt_step0.bin").exists()


def test_train_set_override(tmp_path, workspace):
    _, data_dir = workspace
    out = tmp_path / "ovr"
    cfg = write_config(tmp_path / "o.json", {
        "run": MICRO_RUN,
        "train_data": str(data_dir / "train.jsonl"),
        "output_dir": str(out),
    })
    assert dispatch(["train", "--config", cfg, "--set", "run.max_steps=1"]) == 0
    rows = (out / "metrics.csv").read_text().splitlines()
    assert len(rows) == 2  # header + one step
    effective = json.loads((out / "effective_config.json").read_text())
    assert effective["run"]["max_steps"] == 1


# --- eval ---


def test_eval_writes_result(tmp_path, warm_checkpoint):
    ckpt, prompts = warm_checkpoint
    out = tmp_path / "eval"
    cfg = write_config(tmp_path / "e.json", {
        "checkpoint": ckpt, "eval_data": prompts,
        "k": 2, "temperature": 1.0, "seed": 0, "split": "in",
        "output_dir": str(out),
    })
    assert dispatch(["eval", "--config", cfg]) == 0
    result = json.loads((out / "eval_in.json").read_text())
    assert result["k"] == 2
    assert 0.0 <= result["avg_at_k"] <= 1.0


def test_greedy_eval_takes_temperature_zero(tmp_path, warm_checkpoint):
    ckpt, prompts = warm_checkpoint
    out = tmp_path / "eval"
    cfg = write_config(tmp_path / "e.json", {
        "checkpoint": ckpt, "eval_data": prompts, "k": 1, "temperature": 0, "greedy": True,
        "output_dir": str(out),
    })
    assert dispatch(["eval", "--config", cfg]) == 0
    assert json.loads((out / "eval_in.json").read_text())["temperature"] == 0


# --- rft-sample ---


def test_rft_sample_success(tmp_path, warm_checkpoint):
    ckpt, prompts = warm_checkpoint
    out = tmp_path / "rft"
    cfg = write_config(tmp_path / "r.json", {
        "checkpoint": ckpt, "prompts_data": prompts,
        "rft": {"n_responses_per_prompt": 8, "seed": 4},
        "output_dir": str(out),
    })
    assert dispatch(["rft-sample", "--config", cfg]) == 0
    stats = json.loads((out / "rft_stats.json").read_text())
    assert stats["keep_rate"] > 0
    assert (out / "filtered.jsonl").exists()


def test_rft_sample_empty_yield_exits_two(tmp_path, workspace):
    _, data_dir = workspace
    # untrained model on OOD prompts: nothing verifies
    from dftlab.model import Model

    ckpt = tmp_path / "fresh.ckpt"
    save_checkpoint(Model(ModelConfig(**MICRO_MODEL)), ckpt)
    out = tmp_path / "rft_empty"
    cfg = write_config(tmp_path / "re.json", {
        "checkpoint": str(ckpt),
        "prompts_data": str(data_dir / "eval_ood.jsonl"),
        "rft": {"n_responses_per_prompt": 2, "max_new_tokens": 4, "seed": 4},
        "output_dir": str(out),
    })
    assert dispatch(["rft-sample", "--config", cfg]) == 2
    stats = json.loads((out / "rft_stats.json").read_text())
    assert stats["n_retained"] == 0
    assert (out / "manifest.json").exists()  # written for any exit code


# --- verify ---


def test_verify_micro_suite(tmp_path, capsys):
    out = tmp_path / "verify"
    cfg = write_config(tmp_path / "v.json", {
        "seed": 0, "vocab_sizes": [2], "horizons": [1, 2],
        "models_per_cell": 1, "n_samples": 4000,
        "output_dir": str(out),
    })
    assert dispatch(["verify", "--config", cfg]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(1 for line in lines if line.startswith("PASS")) == 4
    report = json.loads((out / "verify_report.json").read_text())
    assert all(r["passed"] for r in report)


# --- analyze ---


def test_analyze_outputs(tmp_path, warm_checkpoint):
    ckpt, prompts = warm_checkpoint
    out = tmp_path / "analysis"
    cfg = write_config(tmp_path / "a.json", {
        "checkpoint": ckpt, "data": prompts, "threshold": 0.5,
        "output_dir": str(out),
    })
    assert dispatch(["analyze", "--config", cfg]) == 0
    hist = json.loads((out / "histogram.json").read_text())
    assert sum(hist["counts"]) == hist["total"] == 4  # "cba" + EOS
    assert (out / "lowest_bin_tokens.json").exists()
    scan = json.loads((out / "implicit_weights.json").read_text())
    assert scan["n_tokens"] == 4


# --- report and sweep ---


def test_sweep_and_report(tmp_path, workspace):
    _, data_dir = workspace
    out = tmp_path / "sweep"
    cfg = write_config(tmp_path / "s.json", {
        "run": MICRO_RUN,
        "train_data": str(data_dir / "train.jsonl"),
        "eval_in": str(data_dir / "eval_in.jsonl"),
        "eval_ood": str(data_dir / "eval_ood.jsonl"),
        "eval_k": 1,
        "sweep_learning_rates": [1e-3, 5e-4],
        "output_dir": str(out),
    })
    assert dispatch(["sweep", "--config", cfg]) == 0
    assert (out / "lr0.001" / "metrics.csv").exists()
    assert (out / "lr0.0005" / "eval_ood.json").exists()
    rows = (out / "comparison.csv").read_text().splitlines()
    assert len(rows) == 3
    assert rows[0].startswith("run,loss_kind,in_dist_acc")

    rpt = tmp_path / "rpt"
    rcfg = write_config(tmp_path / "rpt.json", {
        "run_dirs": [str(out / "lr0.001"), str(out / "lr0.0005")],
        "output_dir": str(rpt),
    })
    assert dispatch(["report", "--config", rcfg]) == 0
    assert (rpt / "comparison.csv").exists()


GOOD_EVAL = {"task_tag": "sequence-reversal", "split": "in-dist", "k": 2,
             "temperature": 1.0, "avg_at_k": 0.5, "correctness": [[True, False]]}
GOOD_HISTOGRAM = {"bin_edges": [0.0, 0.5, 1.0], "counts": [3, 1], "fractions": [0.75, 0.25],
                  "total": 4, "model_tag": "m"}


@pytest.mark.parametrize("name, payload, named", [
    ("eval_in.json", [1, 2], "EvalResult needs a JSON object"),
    ("config.json", {"loss": 3}, "'model'"),
    ("config.json", dict(MICRO_RUN, loss=3), "LossSpec needs a JSON object, got 3"),
    ("histogram.json", dict(GOOD_HISTOGRAM, counts="ab"), "'counts'"),
    ("histogram.json", dict(GOOD_HISTOGRAM, counts=[], fractions=[], total=0), "2 non-negative"),
    ("eval_ood.json", dict(GOOD_EVAL, k="2"), "'k'"),
    ("metrics.csv", "step,lr,loss,mean_p\n1\n", "no numeric loss"),
], ids=["eval-not-an-object", "config-without-model", "loss-not-an-object",
        "counts-a-string", "counts-empty", "k-a-string", "metrics-row-short"])
def test_report_lists_a_malformed_run_file_under_errors(tmp_path, capsys, name, payload, named):
    run_dirs = []
    for run in ("good", "bad"):
        d = tmp_path / run
        d.mkdir()
        (d / "config.json").write_text(json.dumps(MICRO_RUN))
        (d / "metrics.csv").write_text("step,lr,loss,mean_p\n1,0.001,2.5,0.25\n")
        for split in ("in", "ood"):
            (d / f"eval_{split}.json").write_text(json.dumps(GOOD_EVAL))
        (d / "histogram.json").write_text(json.dumps(GOOD_HISTOGRAM))
        run_dirs.append(str(d))
    bad = payload if isinstance(payload, str) else json.dumps(payload)
    (tmp_path / "bad" / name).write_text(bad)
    out = tmp_path / "rpt"
    rcfg = write_config(tmp_path / "rpt.json", {"run_dirs": run_dirs, "output_dir": str(out)})

    assert dispatch(["report", "--config", rcfg]) == 0
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((out / "comparison.json").read_text())
    assert [row["run"] for row in report["rows"]] == ["good"]
    assert report["rows"][0]["hist_low_frac"] == 0.75
    (error,) = report["errors"]
    assert error["run"] == run_dirs[1]
    assert error["error"].startswith(f"{name}: ") and named in error["error"]


# --- figures ---


def test_figures_contract(tmp_path, workspace):
    _, data_dir = workspace
    out = tmp_path / "figs"
    cfg = write_config(tmp_path / "f.json", {
        "run": dict(MICRO_RUN, max_steps=2, eval_every=1),
        "train_data": str(data_dir / "train.jsonl"),
        "eval_in": str(data_dir / "eval_in.jsonl"),
        "eval_ood": str(data_dir / "eval_ood.jsonl"),
        "eval_k": 1, "eval_prompt_cap": 2,
        "sweep_learning_rates": [1e-3],
        "sweep_batch_sizes": [],
        "sweep_max_steps": 1,
        "output_dir": str(out),
    })
    assert dispatch(["figures", "--config", cfg]) == 0
    curves = {}
    for kind in ("sft", "dft_token"):
        lines = (out / f"learning_curve_{kind}.csv").read_text().splitlines()
        assert lines[0] == "step,in_dist_acc"
        curves[kind] = [line.split(",")[0] for line in lines[1:]]
    assert curves["sft"] == curves["dft_token"]  # identical step grids
    totals = [
        json.loads((out / f"histogram_{kind}.json").read_text())["total"]
        for kind in ("sft", "dft_token")
    ]
    assert totals[0] == totals[1] > 0
    assert (out / "fig3_lr_comparison.csv").exists()


def test_figures_arms_differ_only_in_loss_kind(tmp_path, base_config):
    # every loss knob of the base config reaches both arms, sweeps included
    out = tmp_path / "out"
    config = dict(base_config["figures"], sweep_max_steps=1,
                  run=dict(MICRO_RUN, loss={"kind": "sft", "reduction": "sum"}))
    assert dispatch(["figures", "--config", write_config(tmp_path / "f.json", config)]) == 0
    for kind in ("sft", "dft_token"):
        for run_dir in (f"fig1_{kind}", f"fig3_lr0.001_{kind}"):
            loss = json.loads((out / run_dir / "config.json").read_text())["loss"]
            assert loss == {"kind": kind, "gamma": None, "reduction": "sum", "iw_clip": None}


def run_chain_sha256(tmp_path, capsys, chain) -> str:
    """Run each (subcommand, config) of ``chain``, then hash every output below tmp_path."""
    codes = [dispatch([sub, "--config", write_config(tmp_path / f"{sub}.json", cfg)])
             for sub, cfg in chain]
    assert codes == [0] * len(chain), capsys.readouterr().err
    h = hashlib.sha256()
    # these hold output paths or wall-clock seconds
    skip = {"effective_config.json", "manifest.json", "config.json", "metrics.jsonl"}
    for path in sorted(tmp_path.rglob("*")):
        if path.is_file() and path.parent != tmp_path and path.name not in skip:
            body = path.read_bytes()
            assert str(tmp_path).encode() not in body, path
            h.update(str(path.relative_to(tmp_path)).encode())
            h.update(body)
    return h.hexdigest()


def test_cli_chain_golden(tmp_path, capsys):
    # recorded once: every path-free artifact of a micro chain through seven
    # subcommands; guards the bytes a CLI refactor must keep
    data, run = tmp_path / "data", tmp_path / "run"
    ckpt, train_data, eval_in = (str(run / "ckpt_final.bin"), str(data / "train.jsonl"),
                                 str(data / "eval_in.jsonl"))
    chain = [
        ("gen-data", {"task": {"task_kind": "sequence-reversal",
                               "train_difficulty_range": [2, 3],
                               "ood_difficulty_range": [5, 6], "seed": 1},
                      "n_train": 16, "n_eval_in": 4, "n_eval_ood": 4, "output_dir": str(data)}),
        ("train", {"run": dict(MICRO_RUN, learning_rate=1e-2, max_steps=100, eval_every=50),
                   "train_data": train_data, "eval_in": eval_in, "eval_k": 2,
                   "output_dir": str(run)}),
        ("eval", {"checkpoint": ckpt, "eval_data": train_data, "k": 2, "temperature": 1,
                  "seed": 3, "output_dir": str(run)}),
        ("analyze", {"checkpoint": ckpt, "data": train_data, "threshold": 0.5,
                     "output_dir": str(run)}),
        ("rft-sample", {"checkpoint": ckpt, "prompts_data": train_data,
                        "rft": {"n_responses_per_prompt": 4, "seed": 4},
                        "output_dir": str(tmp_path / "rft")}),
        ("verify", {"seed": 0, "vocab_sizes": [2], "horizons": [1, 2], "models_per_cell": 1,
                    "n_samples": 4000, "output_dir": str(tmp_path / "verify")}),
        ("report", {"run_dirs": [str(run)], "output_dir": str(tmp_path / "report")}),
    ]
    assert run_chain_sha256(tmp_path, capsys, chain) == GOLDEN_CLI_SHA256


GOLDEN_CLI_SHA256 = "7a2ea9b5841fe2680eed76d14b977c3e27a1a26177c477b47f35bbeacbbdfd4d"


def test_planned_commands_golden(tmp_path, capsys):
    # recorded once: every path-free artifact of sweep (two learning rates),
    # figures (both sweep axes and a learning curve) and train on one micro
    # dataset; guards the bytes a change to the plan executor must keep
    data = tmp_path / "data"
    plan = {"run": MICRO_RUN, "train_data": str(data / "train.jsonl"),
            "eval_in": str(data / "eval_in.jsonl"), "eval_ood": str(data / "eval_ood.jsonl"),
            "eval_k": 2}
    chain = [
        ("gen-data", {"task": {"task_kind": "sequence-reversal",
                               "train_difficulty_range": [2, 3],
                               "ood_difficulty_range": [5, 6], "seed": 1},
                      "n_train": 16, "n_eval_in": 4, "n_eval_ood": 4, "output_dir": str(data)}),
        ("sweep", dict(plan, sweep_learning_rates=[1e-3, 5e-4],
                       output_dir=str(tmp_path / "sweep"))),
        # its curve reads training prompts, which a micro model learns in 100 steps
        ("figures", dict(plan, run=dict(MICRO_RUN, learning_rate=1e-2, max_steps=100,
                                         eval_every=50),
                         eval_in=str(data / "train.jsonl"), eval_prompt_cap=8,
                         sweep_learning_rates=[1e-3], sweep_batch_sizes=[2, 4],
                         sweep_max_steps=2, output_dir=str(tmp_path / "figures"))),
        ("train", dict(plan, run=dict(MICRO_RUN, eval_every=1),
                       output_dir=str(tmp_path / "train"))),
    ]
    assert run_chain_sha256(tmp_path, capsys, chain) == GOLDEN_PLAN_SHA256


GOLDEN_PLAN_SHA256 = "4313e05b994a52c2e7a5cb01523de1b604abb8a9c1887b72a8e8ba52d863f5f4"


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "dftlab.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "subcommand" in proc.stdout or "usage" in proc.stdout


# --- bad inputs fail before any work starts ---


@pytest.fixture
def base_config(tmp_path, workspace, warm_checkpoint):
    """Each subcommand's own smallest valid config, writing into tmp_path/out."""
    _, data_dir = workspace
    ckpt, prompts = warm_checkpoint
    out = str(tmp_path / "out")
    plan = {"run": MICRO_RUN, "train_data": str(data_dir / "train.jsonl"),
            "eval_in": str(data_dir / "eval_in.jsonl"), "eval_k": 1, "output_dir": out}
    return {
        "gen-data": {"task": {"task_kind": "sequence-reversal", "train_difficulty_range": [3, 4],
                              "ood_difficulty_range": [9, 10]},
                     "n_train": 4, "n_eval_in": 1, "n_eval_ood": 1, "output_dir": out},
        "train": plan,
        "sweep": dict(plan, sweep_learning_rates=[1e-3]),
        "figures": dict(plan, sweep_learning_rates=[1e-3]),
        "eval": {"checkpoint": ckpt, "eval_data": prompts, "k": 1, "output_dir": out},
        "rft-sample": {"checkpoint": ckpt, "prompts_data": prompts, "rft": {"seed": 4},
                       "output_dir": out},
        "analyze": {"checkpoint": ckpt, "data": prompts, "output_dir": out},
        "verify": {"vocab_sizes": [2], "horizons": [1], "models_per_cell": 1,
                   "n_samples": 100, "output_dir": out},
        "report": {"run_dirs": [], "output_dir": out},
    }


def assert_wrote_nothing(out):
    """At most the echoed config: no data, checkpoint or result file."""
    assert set(os.listdir(out) if os.path.isdir(out) else []) <= {"effective_config.json"}


@pytest.mark.parametrize("subcommand,changes,never_written,named", [
    ("figures", {"sweep_batch_sizes": [0]}, "fig1_sft", "batch_size"),
    ("sweep", {"sweep_learning_rates": [1e-3, -1]}, "lr0.001", "learning_rate"),
    ("sweep", {"sweep_learning_rates": [1e-3, 1e-3]}, "lr0.001", "'sweep_learning_rates'"),
    ("sweep", {"sweep_learning_rates": [1e-3, 0.0010000001]}, "lr0.001",
     "'sweep_learning_rates'"),
    ("figures", {"sweep_batch_sizes": [2, 2]}, "fig1_sft", "'sweep_batch_sizes'"),
    ("train", {"eval_in": "missing.jsonl"}, "ckpt_step0.bin", "missing.jsonl"),
    ("figures", {"eval_ood": "empty.jsonl"}, "fig1_sft", "eval_ood"),
    ("sweep", {"eval_in": "malformed.jsonl"}, "lr0.001",
     "eval_in item 1: malformed reversal prompt 'abc'"),
    ("figures", {"run": dict(MICRO_RUN, loss={"kind": "focal", "gamma": 2.0})}, "fig1_sft",
     "gamma"),
    ("sweep", {"sweep_learning_rates": []}, "comparison.json", "'sweep_learning_rates'"),
    ("figures", {"sweep_learning_rates": [1e-3, 1e-3]}, "fig1_sft", "'sweep_learning_rates'"),
], ids=["figures-batch-0", "sweep-negative-lr", "sweep-duplicate-lr", "sweep-lrs-alike-under-g",
        "figures-duplicate-batch-size", "train-missing-eval-data",
        "figures-empty-eval-file", "sweep-malformed-eval-prompt", "figures-focal-base",
        "sweep-no-learning-rates", "figures-duplicate-lr"])
def test_bad_run_value_or_file_fails_before_training(tmp_path, base_config, capsys, subcommand,
                                                      changes, never_written, named):
    (tmp_path / "empty.jsonl").write_text("")
    good = json.loads(open(base_config["sweep"]["eval_in"]).readline())
    (tmp_path / "malformed.jsonl").write_text(  # a reversal prompt needs its "|"
        json.dumps(good) + "\n" + json.dumps(dict(good, prompt="abc")) + "\n")
    out = tmp_path / "out"
    config = dict(base_config[subcommand])
    for key, value in changes.items():
        config[key] = str(tmp_path / value) if key.startswith("eval_") else value
    assert dispatch([subcommand, "--config", write_config(tmp_path / "c.json", config)]) == 1
    err = capsys.readouterr().err
    assert "error" in err and named in err
    assert not (out / never_written).exists()
    assert not (out / "ckpt_final.bin").exists()


@pytest.mark.parametrize("subcommand,key", [
    ("eval", "checkpoint"),
    ("analyze", "data"),
    ("rft-sample", "prompts_data"),
])
def test_unreadable_input_file_exits_one_naming_it(tmp_path, base_config, capsys,
                                                   subcommand, key):
    missing = str(tmp_path / "missing.bin")
    config = dict(base_config[subcommand], **{key: missing})
    assert dispatch([subcommand, "--config", write_config(tmp_path / "c.json", config)]) == 1
    assert f"error: cannot read {missing!r}" in capsys.readouterr().err


def test_write_failure_mid_run_exits_two(tmp_path, base_config, capsys, monkeypatch):
    # A full disk is a runtime failure, not an unusable config.
    write_json = cli._write_json

    def full_disk(path, payload, **kwargs):
        if os.path.basename(path) == "verify_report.json":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)
        write_json(path, payload, **kwargs)

    monkeypatch.setattr(cli, "_write_json", full_disk)
    config = write_config(tmp_path / "c.json", base_config["verify"])
    assert dispatch(["verify", "--config", config]) == 2
    assert os.strerror(errno.ENOSPC) in capsys.readouterr().err


@pytest.mark.parametrize("subcommand,typo", [
    ("train", "run.learnig_rate=1e-3"),
    ("train", "run.model.d_modle=16"),
    ("train", "run.loss.reductoin=sum"),
    ("gen-data", "task.sed=2"),
    ("rft-sample", "rft.n_respones_per_prompt=2"),
    ("verify", "n_sample=10"),
    ("figures", "sweep_lerning_rates=[1e-3]"),
    ("eval", "temprature=0.5"),
    ("gen-data", "n_trian=4"),
    ("report", "run_dir=[]"),
    ("sweep", "learning_rates=[1e-3]"),
    ("train", "eval_data=eval_in.jsonl"),
], ids=["RunConfig", "ModelConfig", "LossSpec", "TaskSpec", "RftConfig", "verify-top-level",
        "figures-top-level", "eval-top-level", "gen-data-top-level", "report-top-level",
        "sweep-merged-learning-rates-key", "train-eval-data-key"])
def test_unknown_config_key_exits_one_naming_it(tmp_path, base_config, capsys,
                                                subcommand, typo):
    cfg = write_config(tmp_path / "c.json", base_config[subcommand])
    assert dispatch([subcommand, "--config", cfg, "--set", typo]) == 1
    key = typo.split("=")[0].rsplit(".", 1)[-1]
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()  # decoded before even effective_config.json


@pytest.mark.parametrize("override", [
    "run.learning_rate=abc",
    "run.batch_size=2.5",
    "run.model.d_model=16.5",
    "run.loss.reduction=2",
], ids=["float-given-str", "int-given-float", "ModelConfig", "LossSpec"])
def test_config_value_of_wrong_type_exits_one_naming_it(tmp_path, workspace, capsys,
                                                        override):
    _, data_dir = workspace
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "c.json", {
        "run": MICRO_RUN, "train_data": str(data_dir / "train.jsonl"),
        "output_dir": str(out),
    })
    assert dispatch(["train", "--config", cfg, "--set", override]) == 1
    key = override.split("=")[0].rsplit(".", 1)[1]
    assert repr(key) in capsys.readouterr().err
    assert not (out / "ckpt_step0.bin").exists()


def test_eval_prompt_longer_than_context_fails_before_training(tmp_path, workspace, capsys):
    # OOD reversal prompts hold 10-11 tokens; a context of 9 can sample none of them
    _, data_dir = workspace
    out = tmp_path / "figs"
    cfg = write_config(tmp_path / "f.json", {
        "run": dict(MICRO_RUN, model=dict(MICRO_MODEL, context_length=9)),
        "train_data": str(data_dir / "train.jsonl"),
        "eval_in": str(data_dir / "eval_in.jsonl"),
        "eval_ood": str(data_dir / "eval_ood.jsonl"),
        "eval_k": 1, "sweep_learning_rates": [1e-3], "output_dir": str(out),
    })
    assert dispatch(["figures", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "eval_ood" in err and "context_length 9" in err
    assert not (out / "fig1_sft").exists()


@pytest.mark.parametrize("override", [
    "vocab_sizes=3",
    'horizons=["a"]',
    "vocab_sizes=[1]",
    "seed=1.5",
    "models_per_cell=0",
    "n_samples=true",
], ids=["int-for-list", "str-in-list", "vocab-below-2", "float-seed", "no-models",
        "bool-for-int"])
def test_verify_value_of_wrong_type_exits_one_naming_it(tmp_path, capsys, override):
    cfg = write_config(tmp_path / "v.json", {"output_dir": str(tmp_path / "verify")})
    assert dispatch(["verify", "--config", cfg, "--set", override]) == 1
    assert repr(override.split("=")[0]) in capsys.readouterr().err
    assert not (tmp_path / "verify" / "verify_report.json").exists()


@pytest.mark.parametrize("subcommand,changes,named", [
    ("eval", {"k": 2.5}, "'k'"),
    ("eval", {"greedy": "false"}, "'greedy'"),
    ("eval", {"temperature": "1"}, "'temperature'"),
    ("eval", {"eval_data": 7}, "'eval_data'"),
    ("eval", {"output_dir": 3}, "'output_dir'"),
    ("eval", {"eval_data": "bad.jsonl"}, "bad.jsonl line 2"),
    ("gen-data", {"n_train": "16"}, "'n_train'"),
    ("gen-data", {"n_eval_in": 2.9}, "'n_eval_in'"),
    ("gen-data", {"task": {"task_kind": "sequence-reversal", "train_difficulty_range": 3,
                           "ood_difficulty_range": [9, 10]}}, "'train_difficulty_range'"),
    ("train", {"run": dict(MICRO_RUN, model={k: v for k, v in MICRO_MODEL.items()
                                             if k != "vocab_size"})}, "'vocab_size'"),
    ("figures", {"sweep_batch_sizes": [2.5]}, "'sweep_batch_sizes'"),
    ("train", {"eval_prompt_cap": -1}, "'eval_prompt_cap'"),
    ("analyze", {"threshold": 2}, "'threshold'"),
    ("gen-data", {"task": {"task_kind": "sequence-reversal", "train_difficulty_range": ["a", 3],
                           "ood_difficulty_range": [9, 10]}}, "'train_difficulty_range' item 0"),
    ("gen-data", {"task": {"task_kind": "sequence-reversal", "train_difficulty_range": [2],
                           "ood_difficulty_range": [9, 10]}}, "'train_difficulty_range'"),
    ("figures", {"sweep_batch_sizes": None}, "'sweep_batch_sizes'"),
    ("analyze", {"bin_edges": []}, "'bin_edges'"),
    ("analyze", {"bin_edges": [1, 0]}, "'bin_edges'"),
    ("sweep", {"eval_temperature": 0}, "'eval_temperature'"),
    ("train", {"eval_temperature": 0}, "'eval_temperature'"),
    ("figures", {"eval_temperature": -1}, "'eval_temperature'"),
    ("eval", {"k": 0}, "'k'"),
    ("eval", {"temperature": 0}, "'temperature'"),
    ("train", {"eval_temperature": float("nan")}, "'eval_temperature' must be finite"),
    ("eval", {"temperature": float("inf")}, "'temperature' must be finite"),
    ("rft-sample", {"rft": {"seed": 4, "temperature": float("nan")}},
     "temperature must be finite"),
    ("gen-data", {"task": {"task_kind": "sequence-reversal", "train_difficulty_range": [1, 1],
                           "ood_difficulty_range": [9, 10]}, "n_eval_in": 50},
     "could not draw 50 distinct"),
], ids=["eval-k-float", "eval-greedy-str", "eval-temperature-str", "eval-data-int",
        "output-dir-int", "eval-data-bad-line", "gen-data-n-train-str", "gen-data-n-eval-float",
        "task-range-int", "model-without-vocab-size", "figures-batch-float",
        "negative-prompt-cap", "analyze-threshold-above-1", "task-range-str-item",
        "task-range-one-value", "figures-batch-sizes-null", "analyze-no-bin-edges",
        "analyze-bin-edges-descending", "sweep-temperature-0", "train-temperature-0",
        "figures-temperature-negative", "eval-k-0", "eval-temperature-0",
        "train-temperature-nan", "eval-temperature-inf", "rft-temperature-nan",
        "gen-data-split-beyond-prompt-space"])
def test_value_of_wrong_type_or_missing_exits_one_naming_it(tmp_path, base_config,
                                                            warm_checkpoint, capsys,
                                                            monkeypatch, subcommand,
                                                            changes, named):
    _, prompts = warm_checkpoint
    monkeypatch.chdir(tmp_path)
    with open(prompts) as f:
        (tmp_path / "bad.jsonl").write_text(f.read() + "[1, 2]\n")
    config = {**base_config[subcommand], "output_dir": "out", **changes}
    assert dispatch([subcommand, "--config", write_config(tmp_path / "c.json", config)]) == 1
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert_wrote_nothing("out")


@pytest.mark.parametrize("subcommand", ["eval", "rft-sample", "analyze"])
def test_checkpoint_that_is_not_a_path_exits_one(tmp_path, base_config, capsys, subcommand):
    # an int would reach open() as a file descriptor
    cfg = write_config(tmp_path / "c.json", base_config[subcommand])
    assert dispatch([subcommand, "--config", cfg, "--set", "checkpoint=3"]) == 1
    assert "'checkpoint' must be str, got 3" in capsys.readouterr().err
