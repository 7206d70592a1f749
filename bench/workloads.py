"""The benchmark's workloads, their correctness checks and their metrics.

A run repeats whole rounds until ``seconds`` of round time have passed.
Every round is the lab's full cycle, starting from the committed warm
checkpoint:

1. ``finetune`` stage: fine-tune the ``sft`` and ``dft_token`` arms for
   one epoch into run directories, then take each arm's teacher-forced
   ``token_histogram`` over the training set;
2. ``decode`` stage: ``evaluate`` avg@k on the in-distribution and OOD
   splits, then ``sample_and_filter`` (the RFT sampling leg);
3. ``oracle`` stage: ``dftlab verify`` through ``cli.dispatch``.

A workload is named after the stage it scales up (``SCALED``). That stage
draws fresh inputs every round from ``--seed`` and the round number, so a
run averages over many input sets, and its outputs are checked against
the benchmark's own computations every round. The other two stages run
the small ``PROBE`` inputs, which are the same for every seed and round,
so that every run reports every end-to-end metric and those numbers move
only with the code; they are checked on the first round and must then
repeat byte for byte. Checks run after a round is timed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from dftlab import autodiff, cli, evalreport, rft, tasks, theory, training
from dftlab import model as model_mod
from dftlab.model import Model
from dftlab.rft import RftConfig

import checks
import reference
import warm
from inputs import EOS, completion_ok, has_pad, make_inputs
from spans import Recorder

STAGES = ("finetune", "decode", "oracle")
KINDS = ("sft", "dft_token")
BATCH = 32
CONTEXT = warm.MODEL["context_length"]
PROBE_SEED = 0  # the lab seed of the probe stages; scaled stages use seeds >= 1
SETUP_REPS = 9
OPS_REPS = 15


@dataclass(frozen=True)
class Sizes:
    n_train: int    # training items, one epoch per arm; also the histogram set
    n_eval_in: int  # in-distribution eval prompts
    n_eval_ood: int  # OOD eval prompts
    eval_k: int     # draws per eval prompt
    n_rft: int      # RFT prompts, the first training items
    rft_k: int      # draws per RFT prompt
    verify: dict    # the dftlab verify config, seed aside


PROBE = Sizes(n_train=BATCH, n_eval_in=4, n_eval_ood=4, eval_k=2, n_rft=4, rft_k=2,
              verify={"vocab_sizes": [2], "horizons": [1, 2, 3, 4],
                      "models_per_cell": 3, "n_samples": 20_000})
SCALED = {
    "finetune": dataclasses.replace(PROBE, n_train=8 * BATCH),
    "decode": dataclasses.replace(PROBE, n_eval_in=6, n_eval_ood=10, eval_k=4, n_rft=6, rft_k=4),
    "oracle": dataclasses.replace(PROBE, verify={"vocab_sizes": [2, 3],
                                                 "horizons": [1, 2, 3, 4, 5],
                                                 "models_per_cell": 3,
                                                 "n_samples": 100_000}),
}


class Inputs:
    """One stage's inputs: demonstrations for a lab seed, plus what the checks need."""

    def __init__(self, seed: int, sizes: Sizes, out_dir: str):
        self.seed, self.sizes = seed, sizes
        data = make_inputs(seed, sizes.n_train, sizes.n_eval_in, sizes.n_eval_ood)
        self.train, self.eval_in, self.eval_ood = data["train"], data["eval_in"], data["eval_ood"]
        self.rft_prompts = self.train[: sizes.n_rft]
        pairs = [(d.prompt_ids, d.response_ids) for d in self.train]
        self.response_tokens = sum(len(r) for _, r in pairs)
        first = reference.first_batch(len(pairs), BATCH, seed)
        self.batch_ids, self.batch_mask = reference.collate([pairs[i] for i in first])
        self.verify_config = os.path.join(out_dir, f"verify-{seed}.json")
        with open(self.verify_config, "w") as f:
            json.dump({"seed": seed, **sizes.verify}, f)


class Lab:
    def __init__(self, workload: str, seed: int, out_dir: str):
        self.workload = workload
        self.seed = seed
        self.out = out_dir
        self.rec: Recorder | None = None
        self.times = defaultdict(list)   # stage call -> seconds per call
        self.tokens = defaultdict(int)   # stage call -> tokens processed
        self.step_ms: list = []
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.pending: list = []          # checks of the round just timed
        self.samples: list = []          # (stage call, prompts, completions) of the round
        self.sampled = defaultdict(lambda: defaultdict(int))  # stage call -> counts
        self.rft_stats: list = []
        self._last_sample = None
        self._undo: list = []

    # --- set-up ---

    def setup(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        self.warm, self.ref = warm.load()
        self.probe = Inputs(PROBE_SEED, PROBE, self.out)
        model_mod.batch_token_log_probs(self.warm.detached(), self.probe.batch_ids)

    def inputs(self, stage: str, round_no: int) -> Inputs:
        if stage != self.workload:
            return self.probe
        return Inputs(1000 * self.seed + round_no + 1, SCALED[stage], self.out)

    def _ref_log_probs(self, params: dict, ids) -> np.ndarray:
        c = warm.MODEL
        return reference.token_log_probs(params, c["n_layers"], c["n_heads"], ids)

    def check_greedy(self, per_split: int = 2) -> None:
        """Greedy decodes equal step-by-step argmax of the reference forward."""
        c = warm.MODEL
        first = self.inputs(self.workload, 0) if self.workload == "decode" else self.probe
        for demo in first.eval_in[:per_split] + first.eval_ood[:per_split]:
            got = self.warm.sample(demo.prompt_ids, CONTEXT, greedy=True)
            want = reference.greedy(self.ref, c["n_layers"], c["n_heads"], CONTEXT,
                                    demo.prompt_ids, CONTEXT)
            if got != want:
                self.problems.append(f"greedy decode of {demo.prompt!r}: {got} != reference {want}")

    # --- instrumentation ---

    def install(self, trace: bool) -> None:
        """Capture sampled completions; in traced runs, also record spans."""
        for owner in (evalreport, rft):
            self._capture(owner)
        if not trace:
            return
        rec = self.rec = Recorder()
        nodes = lambda args, record: {"nodes": len(record)}  # noqa: E731
        positions = lambda args, out: {"positions": int(np.asarray(args[1]).size)}  # noqa: E731
        rec.wrap(training, "backward", "autodiff.backward[training]", nodes)
        rec.wrap(theory, "backward", "autodiff.backward[theory]", nodes)
        rec.wrap(Model, "forward", "model.forward", positions)
        for owner in (training, evalreport):
            rec.wrap(owner, "batch_token_log_probs", "model.batch_token_log_probs")
        for owner in (evalreport, rft):
            rec.wrap(owner, "sample_batch", "model.sample_batch")
        for owner in (evalreport, tasks):
            rec.wrap(owner, "verify", "tasks.verify")
        rec.wrap(training, "save_checkpoint", "model.save_checkpoint")
        rec.wrap(training, "compute_loss", "losses.compute_loss")
        for fn in ("collate", "clip_global_norm", "adamw_step"):
            rec.wrap(training, fn, f"training.{fn}")
        for fn in ("exact_policy_expectation", "exact_score_function_mean",
                   "dft_token_reference_grad", "variance_probe", "grad_log_prob"):
            rec.wrap(theory, fn, f"theory.{fn}")
        rec.wrap(cli, "run_verification", "theory.run_verification")

    def _capture(self, owner) -> None:
        original = owner.sample_batch

        def sample_batch(model, prompts, max_new, temperature, seeds, greedy=False):
            out = original(model, prompts, max_new, temperature, seeds, greedy)
            self._last_sample = (prompts, out)
            return out

        owner.sample_batch = sample_batch
        self._undo.append((owner, original))

    def uninstall(self) -> None:
        if self.rec is not None:
            self.rec.restore()
        for owner, original in reversed(self._undo):
            owner.sample_batch = original

    @contextlib.contextmanager
    def timed(self, call: str):
        # The lab's graphs are reference cycles, so garbage left by earlier
        # calls would be collected at an arbitrary point inside this one.
        gc.collect()
        with self.rec.span(call) if self.rec else contextlib.nullcontext():
            t0 = time.perf_counter()
            yield
            self.times[call].append(time.perf_counter() - t0)

    def _fail(self, ops: int, what: str) -> None:
        self.failed += ops
        sys.stderr.write(f"operation failed: {what}\n{traceback.format_exc()}")

    # --- one round ---

    def round(self, inputs: dict, first: bool) -> dict:
        """Run every stage once; returns a digest of each stage's outputs."""
        self.samples = []
        digests = {}
        for stage in STAGES:
            digest = hashlib.sha256()
            getattr(self, f"_{stage}")(inputs[stage], digest, first or stage == self.workload)
            digests[stage] = digest.hexdigest()
        return digests

    def _finetune(self, inp: Inputs, digest, check: bool) -> None:
        steps = inp.sizes.n_train // BATCH
        for kind in KINDS:
            cfg = warm.run_config(kind, steps, inp.seed, os.path.join(self.out, kind))
            self.attempted += steps
            try:
                with self.timed("training.train_run"):
                    trained, metrics = training.train_run(cfg, inp.train, initial_model=self.warm)
                with self.timed("evalreport.token_histogram"):
                    hist = evalreport.token_histogram(trained, inp.train, model_tag=kind)
            except Exception:
                self._fail(steps, f"{kind} arm")
                continue
            self.tokens["training.train_run"] += inp.response_tokens  # one epoch
            self.tokens["evalreport.token_histogram"] += hist.total
            ends = [m.seconds for m in metrics]
            self.step_ms += [1000.0 * (b - a) for a, b in zip([0.0] + ends, ends)]
            digest.update(repr(([m.loss for m in metrics], hist.counts)).encode())
            if check:
                with open(os.path.join(cfg.output_dir, "metrics.csv")) as f:
                    csv_text = f.read()
                self.pending.append(lambda k=kind, t=trained, m=metrics, h=hist, c=csv_text:
                                    self._check_arm(inp, k, t, m, h, c))

    def _check_arm(self, inp: Inputs, kind, trained, metrics, hist, csv_text) -> None:
        step1 = reference.objective(kind, self._ref_log_probs(self.ref, inp.batch_ids),
                                    inp.batch_mask)
        self._report(f"{kind} arm", checks.logged_losses(csv_text, [m.loss for m in metrics], step1))
        got = model_mod.batch_token_log_probs(trained.detached(), inp.batch_ids).data
        params = {name: t.data for name, t in trained.params.items()}
        self._report(f"{kind} arm", checks.log_probs_match(
            got, self._ref_log_probs(params, inp.batch_ids), "trained log-probs"))
        if hist.total != inp.response_tokens:
            self._report(f"{kind} arm", [f"histogram total {hist.total} != "
                                         f"{inp.response_tokens} response tokens"])

    def _decode(self, inp: Inputs, digest, check: bool) -> None:
        k = inp.sizes.eval_k
        for split, items in (("in", inp.eval_in), ("ood", inp.eval_ood)):
            call = f"evalreport.evaluate_{split}"
            self.attempted += len(items) * k
            try:
                with self.timed(call):
                    result = evalreport.evaluate(self.warm, items, k=k, temperature=1.0,
                                                 seed=inp.seed,
                                                 split="in-dist" if split == "in" else "ood")
            except Exception:
                self._fail(len(items) * k, call)
                continue
            prompts, completions = self._sampled(call)
            digest.update(repr(completions).encode())
            if check:
                self.pending.append(lambda c=call, r=result, p=prompts, cs=completions:
                                    self._report(c, checks.eval_cells(
                                        r.correctness, r.avg_at_k, p[::k], cs, k,
                                        lambda q: CONTEXT - len(q))))
        cfg = RftConfig(n_responses_per_prompt=inp.sizes.rft_k, temperature=1.0, seed=inp.seed)
        call = "rft.sample_and_filter"
        ops = len(inp.rft_prompts) * cfg.n_responses_per_prompt
        self.attempted += ops
        try:
            with self.timed(call):
                retained, stats = rft.sample_and_filter(self.warm, inp.rft_prompts,
                                                        tasks.verify, cfg)
        except Exception:
            self._fail(ops, call)
            return
        prompts, completions = self._sampled(call)
        self.rft_stats.append(stats)
        digest.update(repr((completions, [(d.prompt, d.response) for d in retained])).encode())
        if check:
            self.pending.append(lambda: self._report(call, checks.rft_outcome(
                stats.keep_rate, retained, prompts[::cfg.n_responses_per_prompt], completions,
                cfg.n_responses_per_prompt, lambda q: min(cfg.max_new_tokens, CONTEXT - len(q)))))

    def _sampled(self, call: str) -> tuple:
        prompts, completions = self._last_sample
        self.tokens[call] += sum(map(len, completions))
        self.samples.append((call, prompts, completions))
        return prompts, completions

    def _oracle(self, inp: Inputs, digest, check: bool) -> None:
        out = os.path.join(self.out, "verify")
        self.attempted += len(checks.ORACLES)
        try:
            with self.timed("cli.dispatch"), contextlib.redirect_stdout(io.StringIO()):
                code = cli.dispatch(["verify", "--config", inp.verify_config, "--out", out])
            with open(os.path.join(out, "verify_report.json")) as f:
                report = json.load(f)
        except Exception:
            self._fail(len(checks.ORACLES), "dftlab verify")
            return
        digest.update(json.dumps(report, sort_keys=True).encode())
        if check:
            self.pending.append(lambda: self._report("verify", checks.oracle_report(code, report)))

    def _report(self, what: str, problems: list) -> None:
        self.problems += [f"{what}: {p}" for p in problems]

    def after_round(self) -> None:
        """Run the round's checks and tally what its sampling did."""
        for pending in self.pending:
            pending()
        self.pending = []
        for call, prompts, completions in self.samples:
            counts = self.sampled[call]
            counts["completions"] += len(completions)
            counts["tokens"] += sum(map(len, completions))
            counts["with_eos"] += sum(EOS in c for c in completions)
            counts["with_pad"] += sum(map(has_pad, completions))
            counts["accepted"] += sum(map(completion_ok, prompts, completions))
            total, finished = decode_positions(prompts, completions)
            counts["positions"] += total
            counts["finished_row_positions"] += finished

    # --- metrics ---

    def end_to_end(self, setup_s: float) -> dict:
        rate = lambda call: self.tokens[call] / sum(self.times[call])  # noqa: E731
        return {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "train_tokens_per_s": (rate("training.train_run"), "tokens/s"),
            "train_step_ms": (statistics.median(self.step_ms), "ms"),
            "teacher_forced_tokens_per_s": (rate("evalreport.token_histogram"), "tokens/s"),
            "eval_in_tokens_per_s": (rate("evalreport.evaluate_in"), "tokens/s"),
            "eval_ood_tokens_per_s": (rate("evalreport.evaluate_ood"), "tokens/s"),
            "rft_tokens_per_s": (rate("rft.sample_and_filter"), "tokens/s"),
            "verify_s": (statistics.median(self.times["cli.dispatch"]), "s"),
        }

    def per_layer(self, rounds: int, ops: dict) -> tuple:
        """Per-layer metrics from the traced spans, plus a dict of diagnostics.

        Counts and stage seconds are means per round; call times are medians.
        """
        rec = self.rec
        dur = lambda name: [s[2] - s[1] for s in rec.named(name)]  # noqa: E731
        med = lambda name, unit: statistics.median(dur(name)) * unit  # noqa: E731
        per_round = lambda x: x / rounds  # noqa: E731
        m = {}
        for op, (fwd, bwd) in ops.items():
            m[f"autodiff.{op}.fwd_us"] = (fwd, "us")
            m[f"autodiff.{op}.bwd_us"] = (bwd, "us")
        train_bw = rec.named("autodiff.backward[training]")
        m["autodiff.backward_ms"] = (med("autodiff.backward[training]", 1e3), "ms")
        m["autodiff.graph_nodes"] = (max(s[4]["nodes"] for s in train_bw), "count")
        m["autodiff.backward_calls"] = (
            per_round(len(train_bw) + len(rec.named("autodiff.backward[theory]"))), "count")

        fwd_idx = [i for i, s in enumerate(rec.spans) if s[0] == "model.forward"]
        sampled = sum(rec.spans[i][4]["positions"] for i in fwd_idx
                      if rec.under(i, "model.sample_batch"))
        counts = {key: sum(c[key] for c in self.sampled.values())
                  for key in ("tokens", "positions", "finished_row_positions")}
        m["model.forward_calls"] = (per_round(len(fwd_idx)), "count")
        m["model.forward_positions"] = (
            per_round(sum(rec.spans[i][4]["positions"] for i in fwd_idx)), "count")
        m["model.finished_row_positions"] = (per_round(counts["finished_row_positions"]), "count")
        m["model.decode_useful_ratio"] = (counts["tokens"] / sampled, "ratio")
        m["model.sample_batch_s"] = (per_round(sum(dur("model.sample_batch"))), "s")
        m["model.batch_token_log_probs_ms"] = (med("model.batch_token_log_probs", 1e3), "ms")
        m["model.save_checkpoint_ms"] = (med("model.save_checkpoint", 1e3), "ms")
        m["losses.compute_loss_ms"] = (med("losses.compute_loss", 1e3), "ms")

        step_ms, other_ms = self._steps()
        for fn in ("collate", "clip_global_norm", "adamw_step"):
            m[f"training.{fn}_ms"] = (med(f"training.{fn}", 1e3), "ms")
        m["training.other_ms"] = (statistics.median(other_ms), "ms")
        m["training.step_ms_p90"] = (statistics.quantiles(step_ms, n=10)[-1], "ms")

        for split in ("in", "ood"):
            m[f"evalreport.evaluate_{split}_s"] = (
                per_round(sum(dur(f"evalreport.evaluate_{split}"))), "s")
        m["evalreport.token_histogram_s"] = (per_round(sum(dur("evalreport.token_histogram"))), "s")
        m["rft.sample_and_filter_s"] = (per_round(sum(dur("rft.sample_and_filter"))), "s")
        m["rft.keep_rate"] = (statistics.mean(s.keep_rate for s in self.rft_stats), "ratio")
        m["rft.retained"] = (per_round(sum(s.n_retained for s in self.rft_stats)), "count")
        m["tasks.verify_calls"] = (per_round(len(dur("tasks.verify"))), "count")
        m["tasks.verify_us"] = (med("tasks.verify", 1e6), "us")
        for fn in ("exact_policy_expectation", "exact_score_function_mean",
                   "dft_token_reference_grad", "variance_probe"):
            m[f"theory.{fn}_s"] = (per_round(sum(dur(f"theory.{fn}"))), "s")
        m["theory.grad_log_prob_calls"] = (per_round(len(dur("theory.grad_log_prob"))), "count")
        m["theory.grad_log_prob_us"] = (med("theory.grad_log_prob", 1e6), "us")
        inner = dur("theory.run_verification")
        m["cli.overhead_ms"] = (statistics.median(
            (a - b) * 1e3 for a, b in zip(dur("cli.dispatch"), inner)), "ms")
        notes = {"sampled_positions_traced": sampled,
                 "sampled_positions_predicted": counts["positions"]}
        return m, notes

    def _steps(self) -> tuple:
        """Step durations and the part of each not spent in a timed call, in ms.

        A step runs from one ``collate`` call to the next; the last step of
        a run ends where the final checkpoint save starts.
        """
        rec = self.rec
        children = defaultdict(list)
        for s in rec.spans:
            children[s[3]].append(s)
        step_ms, other_ms = [], []
        for i, run in enumerate(rec.spans):
            if run[0] != "training.train_run":
                continue
            kids = sorted(children[i], key=lambda s: s[1])
            starts = [s[1] for s in kids if s[0] == "training.collate"]
            saves = [s[1] for s in kids if s[0] == "model.save_checkpoint" and s[1] > starts[-1]]
            for lo, hi in zip(starts, starts[1:] + saves[:1]):
                busy = sum(s[2] - s[1] for s in kids if lo <= s[1] < hi)
                step_ms.append((hi - lo) * 1e3)
                other_ms.append((hi - lo - busy) * 1e3)
        return step_ms, other_ms


def decode_positions(prompts, completions) -> tuple:
    """(all, finished-row) positions one ``sample_batch`` call forwards.

    Follows ``sample_batch``: rows are grouped by prompt length and a group
    re-forwards its whole prefix once per new token until every row has
    ended, so a row with a completion of length c is carried along for
    max(c) - c further steps.
    """
    groups = defaultdict(list)
    for prompt, c in zip(prompts, completions):
        groups[len(prompt)].append(len(c))
    total = finished = 0
    for plen, lengths in groups.items():
        for step in range(max(lengths)):
            total += (plen + step) * len(lengths)
            finished += (plen + step) * sum(c <= step for c in lengths)
    return total, finished


def op_timings(reps: int = OPS_REPS) -> dict:
    """Median forward and backward microseconds of each primitive at the
    fine-tuning shapes: batch 32, 47 positions, d=32, 2 heads, MLP 128, V=17.

    The backward rule is taken from the ComputationRecord that
    ``autodiff.backward`` returns and called on a ones gradient.
    """
    b, t, d, h, ff, v = BATCH, 47, 32, 2, 4 * 32, 17
    rng = np.random.default_rng(0)
    ids = rng.integers(0, v, size=(b, t))
    future = ~np.tril(np.ones((t, t), dtype=bool))

    def x(*shape):
        return autodiff.Tensor(rng.standard_normal(shape), requires_grad=True)

    cases = {
        "matmul": (autodiff.matmul, [x(b, t, d), x(d, ff)]),
        "gelu": (autodiff.gelu, [x(b, t, ff)]),
        "softmax": (autodiff.softmax, [x(b, h, t, t)]),
        "layer_norm": (autodiff.layer_norm, [x(b, t, d), x(d), x(d)]),
        "embedding": (lambda w: autodiff.embedding(w, ids), [x(v, d)]),
        "gather": (lambda z: autodiff.gather(z, ids), [x(b, t, v)]),
        "mask_fill": (lambda z: autodiff.mask_fill(z, future, -1e30), [x(b, h, t, t)]),
        "add": (autodiff.add, [x(b, t, ff), x(ff)]),
    }
    out = {}
    for name, (fn, args) in cases.items():
        fwd, bwd = [], []
        for _ in range(reps):
            t0 = time.perf_counter()
            y = fn(*args)
            fwd.append(time.perf_counter() - t0)
        record = autodiff.backward(autodiff.tensor_sum(y))
        node = next(n for n in record if n.output is y)
        g = np.ones(y.shape)
        for _ in range(reps):
            t0 = time.perf_counter()
            node.backward(g)
            bwd.append(time.perf_counter() - t0)
        out[name] = (statistics.median(fwd) * 1e6, statistics.median(bwd) * 1e6)
    return out


def run(workload: str, seed: int, seconds: float, trace: bool, out_root: str) -> dict:
    if seed < 0:
        raise ValueError("--seed must be >= 0")
    lab = Lab(workload, seed, os.path.join(out_root, workload))
    setup_times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        lab.setup()
        setup_times.append(time.perf_counter() - t0)
    lab.check_greedy()
    ops = op_timings() if trace else {}
    lab.install(trace)
    rounds, spent, scaled, probes = 0, 0.0, [], None
    try:
        while rounds == 0 or spent < seconds:
            inputs = {stage: lab.inputs(stage, rounds) for stage in STAGES}
            t0 = time.perf_counter()
            digest = lab.round(inputs, first=rounds == 0)
            spent += time.perf_counter() - t0
            rounds += 1
            with lab.rec.paused() if lab.rec else contextlib.nullcontext():
                lab.after_round()
            scaled.append(digest.pop(workload))
            if probes is None:
                probes = digest
            elif digest != probes:
                lab.problems.append(f"round {rounds}: probe outputs differ from round 1")
    finally:
        lab.uninstall()
    e2e = lab.end_to_end(statistics.median(setup_times))
    info = {"workload": workload, "seed": seed, "rounds": rounds, "round_seconds": spent,
            "scaled_stage_sha256": scaled, "probe_sha256": probes,
            "sampling": {call: dict(c) for call, c in lab.sampled.items()},
            "problems": lab.problems}
    if trace:
        layers, notes = lab.per_layer(rounds, ops)
        info.update(notes, end_to_end_traced={k: v for k, (v, _) in e2e.items()},
                    self_seconds_per_round={
                        name: round(own / rounds, 6)
                        for name, (_, _, own) in sorted(lab.rec.self_times().items())})
        metrics = layers
    else:
        metrics = e2e
    return {"info": info, "rec": lab.rec, "correct": not lab.problems,
            "attempted": lab.attempted, "failed": lab.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
