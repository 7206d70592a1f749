"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 8-10 share one training pipeline (3 pinned seeds x 2 losses on
the addition task, plus the rejection-sampling leg) built once per
session; run with ``pytest tests/test_acceptance.py -v -s`` to watch the
per-criterion lines.
"""

import json
import math
import time
from dataclasses import dataclass

import numpy as np
import pytest

from dftlab.autodiff import Tensor, backward, exp, gather, log, mul, reshape, scale, softmax
from dftlab.evalreport import evaluate, token_histogram
from dftlab.losses import (
    LossSpec,
    dft_token_loss,
    focal_loss,
    iw_sft_loss,
    sft_loss,
)
from dftlab.model import Model, ModelConfig
from dftlab.rft import RftConfig, sample_and_filter
from dftlab.tasks import default_task_spec, generate_dataset, verify
from dftlab.theory import (
    EnumerationBudget,
    dft_token_reference_grad,
    exact_policy_expectation,
    exact_score_function_mean,
    sft_autodiff_grad,
    variance_probe,
)
from dftlab.training import AdamState, RunConfig, adamw_step, lr_at, train_run
from helpers import directional_fd, vec_rel_err

pytestmark = pytest.mark.acceptance


def report(num, desc, ok, detail=""):
    line = f"ACCEPTANCE {num:>2} [{'PASS' if ok else 'FAIL'}] {desc}"
    if detail:
        line += f" :: {detail}"
    print(line, flush=True)
    assert ok, line


def tiny_model(vocab, d, seed):
    return Model(ModelConfig(vocab_size=vocab, d_model=d, n_layers=1,
                             n_heads=2, context_length=16, seed=seed))


# --- criterion 1: token-scaled gradient identity ---


def test_c1_gradient_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_ref = 0.0
    worst_fd = 0.0
    for trial in range(20):
        vocab = int(rng.integers(4, 9))       # V <= 8
        d = int(rng.choice([16, 32]))         # d_model <= 32
        model = tiny_model(vocab, d, seed=trial)
        prompt = [int(t) for t in rng.integers(0, vocab, size=2)]
        response = [int(t) for t in rng.integers(0, vocab, size=int(rng.integers(2, 5)))]

        model.zero_grad()
        backward(dft_token_loss(model.token_log_probs(prompt, response)))
        got = model.flat_grad()
        ref = dft_token_reference_grad(model, prompt, response)
        worst_ref = max(worst_ref, vec_rel_err(got, ref))

        # finite differences on the frozen-weight surrogate (what the
        # stop-gradient makes the loss equivalent to at this point)
        model.zero_grad()
        backward(dft_token_loss(model.token_log_probs(prompt, response)))
        w0 = np.exp(model.token_log_probs(prompt, response).data)
        frozen = lambda: mul(
            Tensor(-w0 / len(w0)), model.token_log_probs(prompt, response)
        ).sum()
        params = [t for _, t in model.named_parameters()]
        dirs = [rng.standard_normal(t.data.shape) for t in params]
        fd = directional_fd(frozen, params, dirs)
        an = float(sum((t.grad * dv).sum() for t, dv in zip(params, dirs)))
        worst_fd = max(worst_fd, abs(an - fd) / max(1.0, abs(fd), abs(an)))
    elapsed = time.perf_counter() - t0
    report(
        1, "token-scaled gradient equals p_t-scaled reference and FD",
        worst_ref <= 1e-10 and worst_fd <= 1e-5 and elapsed < 60,
        f"ref dev {worst_ref:.2e} (tol 1e-10), fd dev {worst_fd:.2e} "
        f"(tol 1e-5), {elapsed:.1f}s (limit 60s)",
    )


# --- criterion 2: importance-sampling collapse ---


def test_c2_importance_sampling_collapse():
    t0 = time.perf_counter()
    worst = 0.0
    for vocab in (2, 3):
        for horizon in (1, 2, 3, 4):
            for m in range(5):
                model = tiny_model(vocab, 8, seed=1000 + 17 * m + horizon)
                rng = np.random.default_rng(2000 + m + 10 * horizon + 100 * vocab)
                prompt = [int(rng.integers(0, vocab))]
                y_star = [int(t) for t in rng.integers(0, vocab, size=horizon)]
                got = exact_policy_expectation(
                    model, prompt, y_star, EnumerationBudget(vocab, horizon)
                )
                sft = sft_autodiff_grad(model, prompt, y_star, reduction="sum")
                worst = max(worst, float(np.max(np.abs(got + sft))))
    elapsed = time.perf_counter() - t0
    report(
        2, "exact reweighted expectation collapses to the CE gradient",
        worst <= 1e-10 and elapsed < 120,
        f"max abs per-coordinate dev {worst:.2e} (tol 1e-10) over "
        f"(V,T) in {{2,3}}x{{1..4}}, 5 models each, {elapsed:.1f}s (limit 120s)",
    )


# --- criterion 3: stop-gradient separation ---


def test_c3_stop_gradient_separation():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        vocab = int(rng.integers(3, 7))
        z = Tensor(rng.standard_normal(n * vocab), requires_grad=True)
        targets = np.asarray([int(t) for t in rng.integers(0, vocab, size=n)])

        def logp():
            return log(gather(softmax(reshape(z, (n, vocab))), targets))

        z.zero_grad()
        backward(dft_token_loss(logp()))
        g_dft = z.grad.copy()

        base = logp()
        coeff = -(np.exp(base.data) * base.data)
        z.zero_grad()
        backward(mul(Tensor(coeff), logp()).mean())
        g_removed = z.grad.copy()

        z.zero_grad()
        full = logp()
        backward(mul(exp(full), scale(full, -1.0)).mean())
        g_full = z.grad.copy()
        worst = max(worst, float(np.max(np.abs(g_dft + g_removed - g_full))))
    report(
        3, "measured grad + predicted removed term = fully differentiable grad",
        worst <= 1e-10,
        f"max abs dev {worst:.2e} (tol 1e-10) over 20 instances",
    )


# --- criterion 4: variance pathology ---


def test_c4_variance_pathology():
    details = []
    ok = True
    for p_star in (0.05, 0.1, 0.5):
        vocab = 6
        model = tiny_model(vocab, 8, seed=104)
        net = model.detached()
        logits = net.forward(np.array([[0]])).data[0, -1]
        probs = np.full(vocab, (1.0 - p_star) / (vocab - 1))
        probs[3] = p_star
        model.params["head.b"].data[:] += np.log(probs) - logits
        rep = variance_probe(model, [0], 3, n_samples=100_000, seed=104)
        factor = rep["empirical_ratio"] / rep["analytic_ratio"]
        ok = ok and 0.5 <= factor <= 2.0
        if abs(p_star - 0.1) < 1e-12:
            ok = ok and abs(rep["analytic_ratio"] - 100.0) <= 1e-6
        details.append(f"p*={p_star}: analytic {rep['analytic_ratio']:.2f}, "
                       f"empirical {rep['empirical_ratio']:.2f}")
    report(4, "implicit-weight variance blows up as 1/p^2", ok,
           "; ".join(details) + " (factor-2 tolerance, n=100k)")


# --- criterion 5: score-function zero mean ---


def test_c5_score_function_zero_mean():
    model = tiny_model(3, 8, seed=105)
    mean = exact_score_function_mean(model, [1], EnumerationBudget(3, 3))
    worst = float(np.max(np.abs(mean)))
    report(5, "enumerated E[grad log pi] is the zero vector",
           worst <= 1e-10, f"V=3 T=3 max abs coordinate {worst:.2e} (tol 1e-10)")


# --- criterion 6: baseline degeneracies ---


def test_c6_baseline_degeneracies():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 8))
        logp = Tensor(np.log(rng.uniform(1e-4, 1.0, n)), requires_grad=True)

        logp.zero_grad()
        a = focal_loss(logp, gamma=0.0)
        backward(a)
        ga = logp.grad.copy()
        logp.zero_grad()
        b = sft_loss(logp)
        backward(b)
        gb = logp.grad.copy()
        worst = max(worst, abs(a.item() - b.item()), float(np.max(np.abs(ga - gb))))

        logp.zero_grad()
        c = iw_sft_loss(logp, logp.data.copy())
        backward(c)
        gc = logp.grad.copy()
        worst = max(worst, abs(c.item() - b.item()), float(np.max(np.abs(gc - gb))))
    report(6, "focal(gamma=0) and iw(p_ref=p) both reduce to plain CE",
           worst <= 1e-12, f"max value/grad dev {worst:.2e} (tol 1e-12)")


# --- criterion 7: schedule and optimizer ---


def test_c7_schedule_and_optimizer():
    cfg = RunConfig(model=ModelConfig(vocab_size=4, d_model=8, n_layers=1,
                                      n_heads=1, context_length=8),
                    learning_rate=1e-3, epochs=None, max_steps=100,
                    warmup_ratio=0.1)
    dev_sched = max(
        abs(lr_at(cfg, 10) - 1e-3),
        abs(lr_at(cfg, 100) - 0.0),
        abs(lr_at(cfg, 55) - 1e-3 * 0.5 * (1 + math.cos(math.pi * 45 / 90))),
    )
    p = Tensor(np.array([0.0]), requires_grad=True)
    adamw_step({"p": p}, {"p": np.array([1.0])}, AdamState(), 0.1, 0.0)
    # hand computation: m=0.1, v=0.001, m_hat=1, v_hat=1
    m_hat = (0.1 * 1.0) / (1 - 0.9)
    v_hat = (0.001 * 1.0) / (1 - 0.999)
    hand = 0.0 - 0.1 * m_hat / (math.sqrt(v_hat) + 1e-8)
    dev_adam = abs(p.data[0] - hand)
    report(7, "cosine-with-warmup closed form and one AdamW step",
           dev_sched <= 1e-15 and dev_adam <= 1e-9,
           f"schedule dev {dev_sched:.2e}, adamw dev {dev_adam:.2e} (tol 1e-9)")


# --- criteria 8-11: the pinned-seed training pipeline ---
#
# Both arms fine-tune from one shared, briefly cross-entropy-warmed base
# per seed (the desk-scale stand-in for a pretrained model; training the
# dynamic objective from random init abandons hard tokens outright).
# Identical configs otherwise; only the loss kind differs between arms.

PIPELINE_SEEDS = (100, 101, 102)
WARM_STEPS = 600
ARM_STEPS = 250
TRAIN_ITEMS, EVAL_ITEMS = 256, 96
EVAL_K = 4
RFT_PROMPTS = 128
RFT_STEPS = 150
RFT_OOD_K = 2


def _pipeline_config(kind, steps, seed):
    mc = ModelConfig(vocab_size=17, d_model=32, n_layers=2, n_heads=2,
                     context_length=64, seed=seed)
    return RunConfig(model=mc, loss=LossSpec(kind=kind), learning_rate=3e-3,
                     batch_size=32, epochs=None, max_steps=steps,
                     warmup_ratio=0.1, seed=seed)


@dataclass
class SeedOutcome:
    seed: int
    em_in: dict        # kind -> in-dist avg@k
    em_ood: dict       # kind -> ood avg@k
    low_bin: dict      # kind -> train-set tokens with p < 0.05
    high_bin: dict     # kind -> train-set tokens with p > 0.95
    keep_rate: float
    rft_ood: dict      # kind -> ood avg@k after retraining on filtered data


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    t0 = time.perf_counter()
    spec = default_task_spec("addition-scratchpad", seed=0)
    train, eval_in, eval_ood = generate_dataset(
        spec, TRAIN_ITEMS, EVAL_ITEMS, EVAL_ITEMS
    )
    run_root = tmp_path_factory.mktemp("acceptance_runs")
    run_dirs = {}
    outcomes = []
    for seed in PIPELINE_SEEDS:
        warm, _ = train_run(_pipeline_config("sft", WARM_STEPS, seed), train)
        em_in, em_ood, low_bin, high_bin = {}, {}, {}, {}
        for kind in ("sft", "dft_token"):
            cfg_dict = _pipeline_config(kind, ARM_STEPS, seed).to_dict()
            persist = seed == PIPELINE_SEEDS[0]
            if persist:
                cfg_dict["output_dir"] = str(run_root / f"{kind}_seed{seed}")
            cfg = RunConfig.from_dict(cfg_dict)
            model, _ = train_run(cfg, train, initial_model=warm)
            result_in = evaluate(model, eval_in, k=EVAL_K, temperature=1.0,
                                 seed=0)
            result_ood = evaluate(model, eval_ood, k=EVAL_K, temperature=1.0,
                                  seed=0, split="ood")
            em_in[kind] = result_in.avg_at_k
            em_ood[kind] = result_ood.avg_at_k
            hist = token_histogram(model, train, model_tag=f"{kind}-{seed}")
            low_bin[kind] = hist.counts[0]
            high_bin[kind] = hist.counts[-1]
            if persist:
                out = cfg.output_dir
                with open(f"{out}/eval_in.json", "w") as f:
                    json.dump(result_in.to_dict(), f)
                with open(f"{out}/eval_ood.json", "w") as f:
                    json.dump(result_ood.to_dict(), f)
                with open(f"{out}/histogram.json", "w") as f:
                    json.dump(hist.to_dict(), f)
                run_dirs[kind] = out

        filtered, stats = sample_and_filter(
            warm, train[:RFT_PROMPTS], verify,
            RftConfig(n_responses_per_prompt=4, temperature=1.0, seed=seed),
        )
        rft_ood = {}
        if filtered:
            for kind in ("sft", "dft_token"):
                retrained, _ = train_run(_pipeline_config(kind, RFT_STEPS, seed), filtered,
                                         initial_model=warm)
                rft_ood[kind] = evaluate(
                    retrained, eval_ood, k=RFT_OOD_K, temperature=1.0,
                    seed=0, split="ood",
                ).avg_at_k
        outcomes.append(SeedOutcome(
            seed=seed, em_in=em_in, em_ood=em_ood,
            low_bin=low_bin, high_bin=high_bin,
            keep_rate=stats.keep_rate, rft_ood=rft_ood,
        ))
    return {"outcomes": outcomes, "run_dirs": run_dirs,
            "seconds": time.perf_counter() - t0}


def ood_gate_note(scores) -> str:
    """Detail suffix for an OOD check that every arm passes as 0 >= 0."""
    if all(v == 0.0 for v in scores):
        return "; OOD check degenerate: every arm scores 0.0 on every seed"
    return ""


def test_c8_generalization_direction(pipeline):
    outs = pipeline["outcomes"]
    for o in outs:
        print(f"    seed {o.seed}: in-dist sft {o.em_in['sft']:.4f} "
              f"dft {o.em_in['dft_token']:.4f} | ood sft {o.em_ood['sft']:.4f} "
              f"dft {o.em_ood['dft_token']:.4f}")
        if o.em_ood["dft_token"] < o.em_ood["sft"]:
            print(f"    seed {o.seed}: per-seed OOD directional check fails "
                  "(reported, not failing)")
    mean_ood_sft = float(np.mean([o.em_ood["sft"] for o in outs]))
    mean_ood_dft = float(np.mean([o.em_ood["dft_token"] for o in outs]))
    mean_in_sft = float(np.mean([o.em_in["sft"] for o in outs]))
    mean_in_dft = float(np.mean([o.em_in["dft_token"] for o in outs]))
    elapsed = pipeline["seconds"]
    report(
        8, "dynamic loss matches in-dist and is no worse out-of-distribution",
        mean_ood_dft >= mean_ood_sft
        and abs(mean_in_dft - mean_in_sft) <= 0.05
        and elapsed < 1800,
        f"mean ood dft {mean_ood_dft:.4f} vs sft {mean_ood_sft:.4f}; "
        f"mean in-dist dft {mean_in_dft:.4f} vs sft {mean_in_sft:.4f} "
        f"(bound 5 points); pipeline {elapsed / 60:.1f} min (limit 30)"
        + ood_gate_note([v for o in outs for v in o.em_ood.values()]),
    )


def test_c9_polarization(pipeline):
    ok = True
    details = []
    for o in pipeline["outcomes"]:
        low_ok = o.low_bin["dft_token"] > o.low_bin["sft"]
        high_ok = o.high_bin["dft_token"] >= o.high_bin["sft"]
        ok = ok and low_ok and high_ok
        details.append(
            f"seed {o.seed}: low {o.low_bin['dft_token']}>{o.low_bin['sft']} "
            f"high {o.high_bin['dft_token']}>={o.high_bin['sft']}"
        )
    report(9, "dynamic loss polarizes training-token probabilities", ok,
           "; ".join(details))


def test_c10_rft_pipeline(pipeline):
    outs = pipeline["outcomes"]
    ok = all(o.keep_rate > 0 and o.rft_ood for o in outs)
    for o in outs:
        print(f"    seed {o.seed}: keep rate {o.keep_rate:.3f}, "
              f"ood rft {o.rft_ood.get('sft')} dft {o.rft_ood.get('dft_token')}")
        if o.rft_ood and o.rft_ood["dft_token"] < o.rft_ood["sft"]:
            print(f"    seed {o.seed}: per-seed RFT directional check fails "
                  "(reported, not failing)")
    if ok:
        mean_rft = float(np.mean([o.rft_ood["sft"] for o in outs]))
        mean_dft = float(np.mean([o.rft_ood["dft_token"] for o in outs]))
        ok = mean_dft >= mean_rft
        detail = (f"keep rates {[round(o.keep_rate, 3) for o in outs]}; "
                  f"mean ood offline-dft {mean_dft:.4f} vs offline-rft {mean_rft:.4f}"
                  + ood_gate_note([v for o in outs for v in o.rft_ood.values()]))
    else:
        detail = "a seed produced no verified samples"
    report(10, "rejection-sampling pipeline completes and is directionally sound",
           ok, detail)


def test_c8c9_run_dirs_reproduce_pinned_numbers(pipeline):
    # consolidated report rows must agree with the numbers asserted above
    from dftlab.evalreport import comparison_report

    outs = {o.seed: o for o in pipeline["outcomes"]}
    first = outs[PIPELINE_SEEDS[0]]
    report_rows = comparison_report(
        [pipeline["run_dirs"]["sft"], pipeline["run_dirs"]["dft_token"]]
    )["rows"]
    by_kind = {row["loss_kind"]: row for row in report_rows}
    assert by_kind["sft"]["in_dist_acc"] == pytest.approx(first.em_in["sft"], abs=1e-12)
    assert by_kind["dft_token"]["in_dist_acc"] == pytest.approx(
        first.em_in["dft_token"], abs=1e-12
    )
    assert by_kind["sft"]["ood_acc"] == pytest.approx(first.em_ood["sft"], abs=1e-12)
    assert by_kind["dft_token"]["ood_acc"] == pytest.approx(
        first.em_ood["dft_token"], abs=1e-12
    )


def test_c11_determinism(tmp_path):
    spec = default_task_spec("addition-scratchpad", seed=0)
    train, _, _ = generate_dataset(spec, TRAIN_ITEMS, EVAL_ITEMS, EVAL_ITEMS)
    csvs = []
    for tag in ("first", "second"):
        cfg_dict = _pipeline_config("sft", WARM_STEPS, PIPELINE_SEEDS[0]).to_dict()
        cfg_dict["output_dir"] = str(tmp_path / tag)
        train_run(RunConfig.from_dict(cfg_dict), train)
        csvs.append((tmp_path / tag / "metrics.csv").read_bytes())
    report(11, "same seed, same bytes in metrics.csv",
           csvs[0] == csvs[1] and len(csvs[0]) > 0,
           f"{len(csvs[0])} bytes compared")
