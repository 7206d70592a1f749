"""Command-line entry point wiring the lab into reproducible workflows.

Every subcommand reads one JSON config file, applies ``--set key=value``
overrides (dotted keys, values parsed as JSON when possible), echoes the
effective config into the output directory before doing any work, and
exits 0 on success, 1 on a validation problem, or 2 on a runtime failure
(non-finite loss, empty rejection sampling yield, an ``OSError`` such as
a full disk once the subcommand has started). Validation problems are an
unusable config, an unknown config key or flag, a config value of the
wrong type or a missing required field (each named), and an unreadable
input file (named) or one with a malformed line (named with its line
number).

Each subcommand's top-level keys are the fields of one ``Record``
(``GenDataConfig``, ``PlanConfig`` for ``train``/``sweep``/``figures``,
``EvalConfig``, ``RftSampleConfig``, ``VerifyCommandConfig``,
``AnalyzeConfig``, ``ReportConfig``). The config is decoded through it
before the output directory is made, so a misspelt or mistyped key at
any depth, ``run.*`` included, exits 1 having written nothing. Each
command's ``manifest.json`` is written once its handler returns.

``train``, ``sweep`` and ``figures`` each list their legs (one per run: its
directory, the fields of the decoded ``run`` it replaces, what it evaluates
and writes) and comparison tables. ``_run_plan`` reads every file and checks
every leg before the first leg trains, then trains them in order.

Run ``dftlab <subcommand> --help`` for per-command flags; config schemas
are documented in the README.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace
from typing import Optional

from .evalreport import (
    check_bin_edges,
    comparison_report,
    evaluate,
    lowest_bin_tokens,
    token_histogram,
    write_comparison,
)
from .model import Record, load_checkpoint
from .rft import RftConfig, sample_and_filter
from .seeding import derive_seed
from .tasks import (TaskSpec, generate_dataset, ground_truth_answer, load_jsonl, save_jsonl,
                    verify)
from .theory import VerifyConfig, implicit_reward_scan, run_verification
from .training import (RunConfig, TrainingAborted, total_steps_for, train_run,
                       warmup_steps_for, write_manifest)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

SWEEP_LEARNING_RATES = (2e-4, 1e-4, 5e-5, 1e-5)
# each sweep config key -> (its run directories' prefix, the run field each value sets)
SWEEP_AXES = {"sweep_learning_rates": ("lr", "learning_rate"),
              "sweep_batch_sizes": ("batch", "batch_size")}


class CliError(Exception):
    """Configuration problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_VALIDATION)


def apply_overrides(config: dict, assignments) -> dict:
    """Apply dotted-key overrides like run.learning_rate=5e-4."""
    for item in assignments or ():
        if "=" not in item:
            raise CliError(f"override {item!r} is not of the form key=value")
        key, raw = item.split("=", 1)
        node = config
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise CliError(f"override {key!r} walks through a non-object")
        try:
            node[parts[-1]] = json.loads(raw)
        except json.JSONDecodeError:
            node[parts[-1]] = raw
    return config


def _load_config(path: str, assignments) -> dict:
    if not os.path.exists(path):
        raise CliError(f"config file {path!r} does not exist")
    try:
        with open(path) as f:
            config = json.load(f)
    except json.JSONDecodeError as exc:
        raise CliError(f"config file {path!r} is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise CliError("config root must be a JSON object")
    return apply_overrides(config, assignments)


def _read(load, path):
    """``load(path)``; a file the config names that cannot be read is a config problem."""
    try:
        return load(path)
    except OSError as exc:
        raise CliError(f"cannot read {path!r}: {exc.strerror or exc}") from None


def _prepare_dir(config: dict, out, required: bool):
    if not out:
        if not required:
            return None
        raise CliError("no output directory (set output_dir or pass --out)")
    config["output_dir"] = out
    os.makedirs(out, exist_ok=True)
    _write_json(os.path.join(out, "effective_config.json"), config, sort_keys=True)
    return out


# --- each subcommand's top-level config keys ---


@dataclass(kw_only=True)
class CommandConfig(Record):
    output_dir: Optional[str] = None  # --out overrides it


@dataclass(kw_only=True)
class GenDataConfig(CommandConfig):
    task: TaskSpec
    n_train: int = 5000
    n_eval_in: int = 500
    n_eval_ood: int = 500


@dataclass(kw_only=True)
class PlanConfig(CommandConfig):
    """``train``, ``sweep`` and ``figures``. Each reads only its own keys and
    accepts the others, so one config shape serves all three."""

    run: RunConfig  # each planned run replaces some of its fields
    train_data: str
    eval_in: Optional[str] = None  # also train's and figures' learning-curve prompts
    eval_ood: Optional[str] = None
    eval_prompt_cap: int = 0  # 0 keeps every eval prompt
    eval_k: int = 4
    eval_temperature: float = 1.0
    sweep_learning_rates: list[float] = field(  # sweep's runs, figures' lr axis
        default_factory=lambda: list(SWEEP_LEARNING_RATES))
    sweep_batch_sizes: list[int] = field(default_factory=list)
    sweep_max_steps: Optional[int] = None

    def __post_init__(self):
        if self.eval_prompt_cap < 0:  # -1 would drop the last item
            raise ValueError(f"'eval_prompt_cap' must be >= 0, got {self.eval_prompt_cap}")
        if self.eval_k < 1:
            raise ValueError(f"'eval_k' must be >= 1, got {self.eval_k}")
        if not (math.isfinite(self.eval_temperature) and self.eval_temperature > 0):
            raise ValueError(f"'eval_temperature' must be finite and > 0, "
                             f"got {self.eval_temperature}")


@dataclass(kw_only=True)
class EvalConfig(CommandConfig):
    checkpoint: str
    eval_data: str
    split: str = "in"
    k: int = 16
    temperature: float = 1.0
    seed: int = 0
    greedy: bool = False

    def __post_init__(self):
        if self.split not in ("in", "ood"):
            raise ValueError(f"'split' must be 'in' or 'ood', got {self.split!r}")
        if self.k < 1:
            raise ValueError(f"'k' must be >= 1, got {self.k}")
        if not (math.isfinite(self.temperature) and self.temperature > 0) and not self.greedy:
            raise ValueError(f"'temperature' must be finite and > 0 unless greedy, "
                             f"got {self.temperature}")


@dataclass(kw_only=True)
class RftSampleConfig(CommandConfig):
    checkpoint: str
    prompts_data: str
    rft: RftConfig = field(default_factory=RftConfig)


@dataclass(kw_only=True)
class VerifyCommandConfig(CommandConfig, VerifyConfig):
    """``VerifyConfig`` plus an optional output directory."""


@dataclass(kw_only=True)
class AnalyzeConfig(CommandConfig):
    checkpoint: str
    data: str
    model_tag: Optional[str] = None  # None tags the histogram with the checkpoint's file name
    bin_edges: Optional[list[float]] = None
    threshold: float = 0.05

    def __post_init__(self):
        if self.bin_edges is not None:
            check_bin_edges(self.bin_edges)
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"'threshold' must be in [0, 1], got {self.threshold!r}")


@dataclass(kw_only=True)
class ReportConfig(CommandConfig):
    run_dirs: list[str] = field(default_factory=list)


def _write_json(path: str, payload, **kwargs) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=1, **kwargs)


def _write_eval(out: str, split: str, model, demos, **kwargs):
    """Evaluate avg@k on one split and write ``eval_{split}.json`` into ``out``."""
    result = evaluate(model, demos, split="in-dist" if split == "in" else "ood", **kwargs)
    path = os.path.join(out, f"eval_{split}.json")
    _write_json(path, result.to_dict())
    return result, path


def _write_comparison(out: str, prefix: str, run_dirs) -> dict:
    report = comparison_report(run_dirs)
    write_comparison(report, os.path.join(out, f"{prefix}comparison.csv"),
                     os.path.join(out, f"{prefix}comparison.json"))
    return report


# --- planned training runs (train, sweep, figures) ---


@dataclass
class _Leg:
    """One planned run of ``train``, ``sweep`` or ``figures``."""

    run_dir: str
    changes: dict  # the fields of cfg.run this run replaces
    key: Optional[str] = None  # the config key its changes came from
    curve: bool = False  # logs eval_in's avg@k every eval_every steps
    splits: tuple = ("in", "ood")  # evaluated once it has trained
    figure: Optional[str] = None  # tag of its learning_curve_{tag}.csv and histogram_{tag}.json

    def reads(self, split: str) -> bool:
        return split in self.splits or self.curve and split == "in"


def _run_plan(cfg: PlanConfig, legs, comparisons=()) -> None:
    """Check every leg, train the legs in order, then write each comparison.

    A leg's run is ``cfg.run`` with the leg's changes replaced, so every field
    it does not change, ``loss``'s knobs included, comes from the base. A
    missing or empty eval file that a leg reads, a bad run value, two legs
    sharing a directory, or an eval prompt that the task cannot parse or a
    leg's context cannot sample from fails before the first leg trains. Figure
    files and each (file prefix, run directories) comparison go to ``cfg.output_dir``.
    """
    out, sets = cfg.output_dir, {}
    for split in ("in", "ood"):
        path = getattr(cfg, f"eval_{split}")
        if path and any(leg.reads(split) for leg in legs):
            sets[split] = _read(load_jsonl, path)[: cfg.eval_prompt_cap or None]
            if not sets[split]:
                raise CliError(f"eval_{split} {path!r} holds no items")
    data = _read(load_jsonl, cfg.train_data)
    for split, demos in sets.items():  # the verifier recomputes each answer from its prompt
        for i, demo in enumerate(demos):
            try:
                ground_truth_answer(demo.task, demo.prompt)
            except ValueError as exc:
                raise CliError(f"eval_{split} item {i}: {exc}")
    runs = []
    for leg in legs:
        run = replace(cfg.run, output_dir=leg.run_dir, **leg.changes)
        if run.output_dir in [earlier.output_dir for earlier in runs]:  # equal under :g
            raise CliError(f"{leg.key!r} lists two values that both name the run directory "
                           f"{leg.run_dir!r}; each value must differ under :g")
        warmup_steps_for(run, total_steps_for(run, len(data)))  # fits its own step count
        ctx = run.model.context_length
        for split in filter(leg.reads, sets):  # sampling needs 1 to ctx - 1 tokens
            lengths = [len(d.prompt_ids) for d in sets[split]]
            bad = next((i for i, n in enumerate(lengths) if not 0 < n < ctx), None)
            if bad is not None:
                raise CliError(f"eval_{split} item {bad} has a {lengths[bad]}-token prompt; "
                               f"run {run.output_dir} samples with context_length {ctx}, "
                               f"which fits 1 to {ctx - 1}")
        runs.append(run)
    sampling = {"k": cfg.eval_k, "temperature": cfg.eval_temperature}
    for leg, run in zip(legs, runs):
        curve = []  # (step, in-dist avg@k) rows

        def log_curve(step, model):
            result = evaluate(model, sets["in"], **sampling,
                              seed=derive_seed(run.seed, "curve", step))
            curve.append((step, result.avg_at_k))
            return {"in_dist_acc": result.avg_at_k}

        hooks = [log_curve] if leg.curve and "in" in sets else []
        model, _ = train_run(run, data, eval_hooks=hooks)
        for split in [s for s in leg.splits if s in sets]:
            _write_eval(run.output_dir, split, model, sets[split], **sampling,
                        seed=derive_seed(run.seed, "final-eval", split))
        write_manifest(run.output_dir)
        if leg.figure:
            with open(os.path.join(out, f"learning_curve_{leg.figure}.csv"), "w") as f:
                f.write("step,in_dist_acc\n" + "".join(f"{step},{acc!r}\n" for step, acc in curve))
            hist = token_histogram(model, data, model_tag=leg.figure)
            _write_json(os.path.join(out, f"histogram_{leg.figure}.json"), hist.to_dict())
    for prefix, run_dirs in comparisons:
        _write_comparison(out, prefix, run_dirs)


# --- subcommands ---


def cmd_gen_data(cfg: GenDataConfig) -> int:
    train, eval_in, eval_ood = generate_dataset(cfg.task, cfg.n_train, cfg.n_eval_in,
                                                cfg.n_eval_ood)
    for name, demos in (("train", train), ("eval_in", eval_in),
                        ("eval_ood", eval_ood)):
        save_jsonl(demos, os.path.join(cfg.output_dir, f"{name}.jsonl"))
    print(f"wrote {len(train)}/{len(eval_in)}/{len(eval_ood)} items to {cfg.output_dir}")
    return EXIT_OK


def cmd_train(cfg: PlanConfig) -> int:
    _run_plan(cfg, [_Leg(cfg.output_dir, {}, curve=True, splits=())])
    print(f"training complete: {cfg.output_dir}")
    return EXIT_OK


def cmd_eval(cfg: EvalConfig) -> int:
    model = _read(load_checkpoint, cfg.checkpoint)
    data = _read(load_jsonl, cfg.eval_data)
    result, path = _write_eval(cfg.output_dir, cfg.split, model, data, k=cfg.k,
                               temperature=cfg.temperature, seed=cfg.seed, greedy=cfg.greedy)
    print(f"avg@{result.k} = {result.avg_at_k:.4f} ({cfg.split}) -> {path}")
    return EXIT_OK


def cmd_rft_sample(cfg: RftSampleConfig) -> int:
    model = _read(load_checkpoint, cfg.checkpoint)
    prompts = _read(load_jsonl, cfg.prompts_data)
    retained, stats = sample_and_filter(model, prompts, verify, cfg.rft)
    save_jsonl(retained, os.path.join(cfg.output_dir, "filtered.jsonl"))
    _write_json(os.path.join(cfg.output_dir, "rft_stats.json"), stats.to_dict())
    print(f"kept {stats.n_retained} of {stats.n_samples} samples "
          f"(keep rate {stats.keep_rate:.3f})")
    if not retained:
        print("no verified samples; raise n_responses_per_prompt or warm "
              "the model further", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_verify(cfg: VerifyCommandConfig) -> int:
    results = run_verification(cfg)
    for r in results:
        print(f"{'PASS' if r['passed'] else 'FAIL'}  {r['name']}: {r['detail']}")
    if cfg.output_dir:
        _write_json(os.path.join(cfg.output_dir, "verify_report.json"), results)
    return EXIT_OK if all(r["passed"] for r in results) else EXIT_RUNTIME


def cmd_analyze(cfg: AnalyzeConfig) -> int:
    model = _read(load_checkpoint, cfg.checkpoint)
    data = _read(load_jsonl, cfg.data)
    tag = os.path.basename(cfg.checkpoint) if cfg.model_tag is None else cfg.model_tag
    hist = token_histogram(model, data, model_tag=tag, bin_edges=cfg.bin_edges)
    _write_json(os.path.join(cfg.output_dir, "histogram.json"), hist.to_dict())
    ranked = lowest_bin_tokens(model, data, cfg.threshold)
    _write_json(os.path.join(cfg.output_dir, "lowest_bin_tokens.json"),
                [{"token": t, "count": c} for t, c in ranked])
    _write_json(os.path.join(cfg.output_dir, "implicit_weights.json"),
                implicit_reward_scan(model, data))
    print(f"analyzed {hist.total} tokens -> {cfg.output_dir}")
    return EXIT_OK


def cmd_report(cfg: ReportConfig) -> int:
    report = _write_comparison(cfg.output_dir, "", cfg.run_dirs)
    print(f"{len(report['rows'])} runs reported, "
          f"{len(report['errors'])} errors -> {cfg.output_dir}")
    return EXIT_OK


def cmd_sweep(cfg: PlanConfig) -> int:
    out = cfg.output_dir
    if not cfg.sweep_learning_rates:
        raise CliError("'sweep_learning_rates' is empty; sweep needs a learning rate to train")
    legs = [_Leg(os.path.join(out, f"lr{lr:g}"), {"learning_rate": lr}, "sweep_learning_rates")
            for lr in cfg.sweep_learning_rates]
    _run_plan(cfg, legs, [("", [leg.run_dir for leg in legs])])
    print(f"swept {len(legs)} learning rates -> {out}")
    return EXIT_OK


def cmd_figures(cfg: PlanConfig) -> int:
    """Learning curves on one step grid and histograms over the training set
    for the plain and token-scaled arms, plus short lr and batch-size sweeps
    of both. The arms differ only in ``run.loss.kind``, so a base loss knob
    that one kind rejects (focal's ``gamma``) fails before any run trains."""
    out = cfg.output_dir
    kinds = ("sft", "dft_token")
    arms = {kind: {"loss": replace(cfg.run.loss, kind=kind)} for kind in kinds}
    # convergence curves and final histograms under identical configs
    legs = [_Leg(os.path.join(out, f"fig1_{kind}"), arms[kind], curve=True, figure=kind)
            for kind in kinds]
    # short sweeps over learning rate and batch size, both objectives
    short = {"eval_every": 0}
    if cfg.sweep_max_steps is not None:
        short.update(max_steps=cfg.sweep_max_steps, epochs=None)
    comparisons = []
    for config_key, (axis, name) in SWEEP_AXES.items():
        axis_legs = [_Leg(os.path.join(out, f"fig3_{axis}{value:g}_{kind}"),
                          {**arms[kind], name: value, **short}, config_key)
                     for value in getattr(cfg, config_key) for kind in kinds]
        if axis_legs:
            legs += axis_legs
            comparisons.append((f"fig3_{axis}_", [leg.run_dir for leg in axis_legs]))
    _run_plan(cfg, legs, comparisons)
    print(f"figure runs: {len(legs)} -> {out}")
    return EXIT_OK


# subcommand -> (its config record, its handler)
_COMMANDS = {
    "gen-data": (GenDataConfig, cmd_gen_data),
    "train": (PlanConfig, cmd_train),
    "eval": (EvalConfig, cmd_eval),
    "rft-sample": (RftSampleConfig, cmd_rft_sample),
    "verify": (VerifyCommandConfig, cmd_verify),
    "analyze": (AnalyzeConfig, cmd_analyze),
    "report": (ReportConfig, cmd_report),
    "sweep": (PlanConfig, cmd_sweep),
    "figures": (PlanConfig, cmd_figures),
}

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dftlab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="dotted-key override applied after the config loads")
        p.add_argument("--out", default=None,
                       help="output directory (overrides config output_dir)")
    return parser


def dispatch(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _load_config(args.config, args.set)
        record, handler = _COMMANDS[args.subcommand]
        cfg = record.from_dict(config)
        cfg.output_dir = _prepare_dir(config, args.out or cfg.output_dir,
                                      required=args.subcommand != "verify")
        try:
            code = handler(cfg)
            if cfg.output_dir:
                write_manifest(cfg.output_dir)
        except OSError as exc:  # not an input file (_read names those): a runtime failure
            print(f"failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        return code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except TrainingAborted as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
