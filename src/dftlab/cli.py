"""Command-line entry point wiring the lab into reproducible workflows.

Every subcommand reads one JSON config file, applies ``--set key=value``
overrides (dotted keys, values parsed as JSON when possible), echoes the
effective config into the output directory before doing any work, and
exits 0 on success, 1 on a validation problem, or 2 on a runtime failure
(non-finite loss, empty rejection sampling yield). Validation problems
are an unusable config, an unknown config key or flag, a config value
of the wrong type or a missing required field (each named), and an
unreadable input file or one with a malformed line (named with its line
number).

``train``, ``sweep`` and ``figures`` read every file the config names,
build every run's config and check every eval prompt against each run's
context before the first run trains.

Run ``dftlab <subcommand> --help`` for per-command flags; config schemas
are documented in the README.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import typing
from dataclasses import dataclass
from typing import Optional

from .evalreport import (
    comparison_report,
    evaluate,
    lowest_bin_tokens,
    token_histogram,
    write_comparison,
)
from .model import _fits, _type_name, load_checkpoint
from .rft import RftConfig, sample_and_filter
from .seeding import derive_seed
from .tasks import TaskSpec, generate_dataset, load_jsonl, save_jsonl, verify
from .theory import implicit_reward_scan, run_verification
from .training import (RunConfig, TrainingAborted, total_steps_for, train_run,
                       warmup_steps_for, write_manifest)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

SWEEP_LEARNING_RATES = (2e-4, 1e-4, 5e-5, 1e-5)


class CliError(Exception):
    """Configuration problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_VALIDATION)


def _coerce(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


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
        node[parts[-1]] = _coerce(raw)
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


def _prepare_dir(config: dict, out_override, required: bool):
    out = out_override or _path(config, "output_dir", None)
    if not out:
        if not required:
            return None
        raise CliError("no output directory (set output_dir or pass --out)")
    config["output_dir"] = out
    os.makedirs(out, exist_ok=True)
    _write_json(os.path.join(out, "effective_config.json"), config, sort_keys=True)
    return out


_REQUIRED = object()


def _value(config: dict, key: str, hint, default=_REQUIRED, minimum=None, what=None):
    """``config[key]``, or ``default`` when it is absent, once it fits ``hint``.

    ``minimum`` bounds an int, or every item of a list that must then be
    non-empty. A value that breaks either is a CliError naming ``key``. A
    number read for a float comes back as a float, as JSON writes 1.0 as 1.
    """
    value = config[key] if default is _REQUIRED else config.get(key, default)
    items = value if isinstance(value, list) else [value]
    if not _fits(hint, value) or minimum is not None and not (items and min(items) >= minimum):
        if what is None:
            what = _type_name(hint)
            if minimum is not None:
                what += f" >= {minimum}" if hint is int else f", non-empty, each >= {minimum}"
        raise CliError(f"{key!r} must be {what}, got {value!r}")
    base = typing.get_args(hint)[0] if typing.get_origin(hint) is typing.Union else hint
    if value is not None and float in (base, *typing.get_args(base)):
        return [float(v) for v in value] if isinstance(value, list) else float(value)
    return value


def _path(config: dict, key: str, default=_REQUIRED):
    """A path key's value: a string, since open() reads an int as a file
    descriptor; ``default`` None makes the key optional."""
    return _value(config, key, str if default is _REQUIRED else Optional[str], default,
                  what="a path string")


def _write_json(path: str, payload, **kwargs) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=1, **kwargs)


def _write_eval(out: str, split: str, model, demos, **kwargs):
    """Evaluate avg@k on one split and write ``eval_{split}.json`` into ``out``."""
    if split not in ("in", "ood"):
        raise CliError(f"split must be 'in' or 'ood', got {split!r}")
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
class _Plan:
    data: list
    curve_set: list  # prompts for the learning-curve hook; empty for none
    final_sets: dict  # split -> prompts evaluated once a run ends
    sampling: dict  # k and temperature of every eval
    runs: list  # RunConfig per run, in run order


def _plan(config: dict, runs, curve_from=None, splits=("in", "ood")) -> _Plan:
    """Read every file the config names and build every run's config.

    ``runs`` lists (run directory, changes to ``config["run"]``) pairs.
    A missing or empty file, an unknown key, a bad run value or an eval
    prompt that a run's context cannot sample from fails here, before
    the first run trains.
    """
    cap = _value(config, "eval_prompt_cap", int, 0, minimum=0)  # -1 would drop the last item
    sampling = {"k": _value(config, "eval_k", int, 4, minimum=1),
                "temperature": _value(config, "eval_temperature", float, 1.0)}
    sets = {}
    for key in dict.fromkeys([curve_from] + [f"eval_{s}" for s in splits]):  # no file read twice
        path = key and _path(config, key, None)
        if path:
            sets[key] = load_jsonl(path)[: cap or None]
            if not sets[key]:
                raise CliError(f"{key} {path!r} holds no items")
    data = load_jsonl(_path(config, "train_data"))
    base = _value(config, "run", dict)
    planned = [RunConfig.from_dict(dict(base, **changes, output_dir=run_dir))
               for run_dir, changes in runs]
    prompt_lengths = {key: [len(d.prompt_ids) for d in demos] for key, demos in sets.items()}
    for run in planned:  # the warmup must fit each run's own step count
        warmup_steps_for(run, total_steps_for(run, len(data)))
        ctx = run.model.context_length
        for key, lengths in prompt_lengths.items():  # sampling needs 1 to ctx - 1 tokens
            bad = next((i for i, n in enumerate(lengths) if not 0 < n < ctx), None)
            if bad is not None:
                raise CliError(f"{key} item {bad} has a {lengths[bad]}-token prompt; "
                               f"run {run.output_dir} samples with context_length {ctx}, "
                               f"which fits 1 to {ctx - 1}")
    return _Plan(
        data=data,
        curve_set=sets.get(curve_from, []),
        final_sets={s: sets[f"eval_{s}"] for s in splits if f"eval_{s}" in sets},
        sampling=sampling,
        runs=planned,
    )


def _execute(plan: _Plan, run: RunConfig):
    """Train one planned run, then write its final evals and manifest."""
    def curve(step, model):
        result = evaluate(model, plan.curve_set, **plan.sampling,
                          seed=derive_seed(run.seed, "curve", step))
        return {"in_dist_acc": result.avg_at_k}

    hooks = [curve] if plan.curve_set and run.eval_every > 0 else []
    model, _ = train_run(run, plan.data, eval_hooks=hooks)
    for split, demos in plan.final_sets.items():
        _write_eval(run.output_dir, split, model, demos, **plan.sampling,
                    seed=derive_seed(run.seed, "final-eval", split))
    write_manifest(run.output_dir)
    return model


# --- subcommands ---


def cmd_gen_data(config: dict, out: str) -> int:
    spec = TaskSpec.from_dict(config["task"])
    train, eval_in, eval_ood = generate_dataset(
        spec,
        _value(config, "n_train", int, 5000),
        _value(config, "n_eval_in", int, 500),
        _value(config, "n_eval_ood", int, 500),
    )
    for name, demos in (("train", train), ("eval_in", eval_in),
                        ("eval_ood", eval_ood)):
        save_jsonl(demos, os.path.join(out, f"{name}.jsonl"))
    write_manifest(out)
    print(f"wrote {len(train)}/{len(eval_in)}/{len(eval_ood)} items to {out}")
    return EXIT_OK


def cmd_train(config: dict, out: str) -> int:
    plan = _plan(config, [(out, {})], curve_from="eval_data", splits=())
    _execute(plan, plan.runs[0])
    print(f"training complete: {out}")
    return EXIT_OK


def cmd_eval(config: dict, out: str) -> int:
    model = load_checkpoint(_path(config, "checkpoint"))
    data = load_jsonl(_path(config, "eval_data"))
    split = config.get("split", "in")
    result, path = _write_eval(
        out, split, model, data,
        k=_value(config, "k", int, 16),
        temperature=_value(config, "temperature", float, 1.0),
        seed=_value(config, "seed", int, 0),
        greedy=_value(config, "greedy", bool, False),
    )
    write_manifest(out)
    print(f"avg@{result.k} = {result.avg_at_k:.4f} ({split}) -> {path}")
    return EXIT_OK


def cmd_rft_sample(config: dict, out: str) -> int:
    model = load_checkpoint(_path(config, "checkpoint"))
    prompts = load_jsonl(_path(config, "prompts_data"))
    rft = RftConfig.from_dict(config.get("rft", {}))
    retained, stats = sample_and_filter(model, prompts, verify, rft)
    save_jsonl(retained, os.path.join(out, "filtered.jsonl"))
    _write_json(os.path.join(out, "rft_stats.json"), stats.to_dict())
    write_manifest(out)
    print(f"kept {stats.n_retained} of {stats.n_samples} samples "
          f"(keep rate {stats.keep_rate:.3f})")
    if not retained:
        print("no verified samples; raise n_responses_per_prompt or warm "
              "the model further", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_verify(config: dict, out) -> int:
    results = run_verification(
        seed=_value(config, "seed", int, 0, minimum=0),
        vocab_sizes=_value(config, "vocab_sizes", list[int], [2, 3], minimum=2),
        horizons=_value(config, "horizons", list[int], [1, 2, 3, 4], minimum=1),
        models_per_cell=_value(config, "models_per_cell", int, 5, minimum=1),
        n_samples=_value(config, "n_samples", int, 100_000, minimum=1),
    )
    for r in results:
        print(f"{'PASS' if r['passed'] else 'FAIL'}  {r['name']}: {r['detail']}")
    if out:
        _write_json(os.path.join(out, "verify_report.json"), results)
        write_manifest(out)
    return EXIT_OK if all(r["passed"] for r in results) else EXIT_RUNTIME


def cmd_analyze(config: dict, out: str) -> int:
    checkpoint = _path(config, "checkpoint")
    model = load_checkpoint(checkpoint)
    data = load_jsonl(_path(config, "data"))
    tag = _value(config, "model_tag", str, os.path.basename(checkpoint))
    hist = token_histogram(model, data, model_tag=tag,
                           bin_edges=_value(config, "bin_edges", Optional[list[float]], None))
    _write_json(os.path.join(out, "histogram.json"), hist.to_dict())
    ranked = lowest_bin_tokens(model, data, _value(config, "threshold", float, 0.05))
    _write_json(os.path.join(out, "lowest_bin_tokens.json"),
                [{"token": t, "count": c} for t, c in ranked])
    _write_json(os.path.join(out, "implicit_weights.json"),
                implicit_reward_scan(model, data))
    write_manifest(out)
    print(f"analyzed {hist.total} tokens -> {out}")
    return EXIT_OK


def cmd_report(config: dict, out: str) -> int:
    report = _write_comparison(out, "", _value(config, "run_dirs", list[str], []))
    write_manifest(out)
    print(f"{len(report['rows'])} runs reported, "
          f"{len(report['errors'])} errors -> {out}")
    return EXIT_OK


def cmd_sweep(config: dict, out: str) -> int:
    rates = _value(config, "learning_rates", list[float], list(SWEEP_LEARNING_RATES))
    plan = _plan(config, [(os.path.join(out, f"lr{lr:g}"), {"learning_rate": lr})
                          for lr in rates])
    for run in plan.runs:
        _execute(plan, run)
    _write_comparison(out, "", [run.output_dir for run in plan.runs])
    write_manifest(out)
    print(f"swept {len(rates)} learning rates -> {out}")
    return EXIT_OK


def reproduce_figures(config: dict) -> dict:
    """Learning curves, histograms, and hyperparameter sweeps.

    Trains the plain and token-scaled objectives under one shared config,
    emits accuracy-vs-step CSVs with identical step grids, histogram
    JSONs over the same training set, and short learning-rate and
    batch-size sweep tables. Returns the run directories produced.
    """
    out = config["output_dir"]
    kinds = ("sft", "dft_token")
    # convergence curves and final histograms under identical configs
    runs = [(os.path.join(out, f"fig1_{kind}"), {"loss": {"kind": kind}}) for kind in kinds]
    # short sweeps over learning rate and batch size, both objectives
    short = {"eval_every": 0}
    max_steps = _value(config, "sweep_max_steps", Optional[int], None)
    if max_steps is not None:
        short.update(max_steps=max_steps, epochs=None)
    axes = {}
    for axis, key, values in (
        ("lr", "learning_rate", _value(config, "sweep_learning_rates", Optional[list[float]],
                                       list(SWEEP_LEARNING_RATES))),
        ("batch", "batch_size", _value(config, "sweep_batch_sizes", Optional[list[int]], [])),
    ):
        for value in values or ():
            for kind in kinds:
                run_dir = os.path.join(out, f"fig3_{axis}{value:g}_{kind}")
                runs.append((run_dir, {"loss": {"kind": kind}, key: value, **short}))
                axes.setdefault(axis, []).append(run_dir)
    plan = _plan(config, runs, curve_from="eval_in")

    for i, run in enumerate(plan.runs):
        model = _execute(plan, run)
        if i < len(kinds):  # a fig1 arm: its learning curve and histogram
            kind = kinds[i]
            with open(os.path.join(out, f"learning_curve_{kind}.csv"), "w") as f, \
                    open(os.path.join(run.output_dir, "evals.jsonl")) as evals:
                f.write("step,in_dist_acc\n")
                for row in map(json.loads, evals):
                    f.write(f"{row['step']},{row['in_dist_acc']!r}\n")
            hist = token_histogram(model, plan.data, model_tag=kind)
            _write_json(os.path.join(out, f"histogram_{kind}.json"), hist.to_dict())
    for axis, axis_dirs in axes.items():
        _write_comparison(out, f"fig3_{axis}_", axis_dirs)
    write_manifest(out)
    return {"run_dirs": [run.output_dir for run in plan.runs]}


def cmd_figures(config: dict, out: str) -> int:
    result = reproduce_figures(config)
    print(f"figure runs: {len(result['run_dirs'])} -> {out}")
    return EXIT_OK


_HANDLERS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "eval": cmd_eval,
    "rft-sample": cmd_rft_sample,
    "verify": cmd_verify,
    "analyze": cmd_analyze,
    "report": cmd_report,
    "sweep": cmd_sweep,
    "figures": cmd_figures,
}

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dftlab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _HANDLERS:
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
        out = _prepare_dir(config, args.out, required=args.subcommand != "verify")
        return _HANDLERS[args.subcommand](config, out)
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
