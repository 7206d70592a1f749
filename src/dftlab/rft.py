"""Offline rejection sampling: the data half of rejection-sampling fine-tuning.

Sample completions from the current model and keep the ones an exact
verifier accepts. Retraining on the survivors is an ordinary
``training.train_run`` from the sampled model (``initial_model``): with
the plain cross-entropy objective that is the classic RFT baseline, with
the token-scaled dynamic loss the offline-reward variant.

Per-prompt sampling streams are derived from (seed, prompt index, draw
index), so the retained set does not depend on batching or evaluation
order. A sampled completion that never emits EOS, or that holds PAD,
counts as unverified: response token lists must terminate and
detokenize.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .model import EOS_ID, PAD_ID, Model, Record, sample_batch
from .seeding import derive_seed
from .tasks import Demonstration, vocabulary_for


@dataclass
class RftConfig(Record):
    n_responses_per_prompt: int = 4
    temperature: float = 1.0
    max_new_tokens: int = 48
    prompt_count: int = 0  # 0 means all prompts
    dedupe: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n_responses_per_prompt < 1:
            raise ValueError("n_responses_per_prompt must be >= 1")
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise ValueError(f"temperature must be finite and > 0, got {self.temperature}")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        if self.prompt_count < 0:  # -3 would drop the last 3 prompts
            raise ValueError(f"prompt_count must be >= 0, got {self.prompt_count}")


@dataclass
class FilterStats(Record):
    n_prompts: int
    n_samples: int
    n_verified: int
    n_retained: int
    keep_rate: float
    per_prompt_kept: list[int] = field(default_factory=list)


def sample_and_filter(model: Model, prompts, verify_fn,
                      config: RftConfig) -> tuple:
    """Draw n completions per prompt and keep the verified ones.

    ``prompts`` are Demonstration-like items providing prompt text, task
    tag and difficulty (their reference responses are ignored). Returns
    (retained Demonstrations, FilterStats); keep_rate counts verified
    completions before deduplication.
    """
    if not prompts:
        raise ValueError("prompts must be non-empty")
    if config.prompt_count:
        prompts = prompts[: config.prompt_count]
    n = config.n_responses_per_prompt
    flat_prompts = []
    flat_seeds = []
    for i, item in enumerate(prompts):
        ids = item.prompt_ids
        for j in range(n):
            flat_prompts.append(ids)
            flat_seeds.append(derive_seed(config.seed, "rft", i, j))
    completions = sample_batch(
        model, flat_prompts, config.max_new_tokens, config.temperature, flat_seeds
    )

    retained = []
    seen = set()
    per_prompt = [0] * len(prompts)
    n_verified = 0
    for idx, completion in enumerate(completions):
        i = idx // n
        item = prompts[i]
        if EOS_ID not in completion or PAD_ID in completion:
            continue  # unterminated or padded: never a valid response
        if not verify_fn(item.task, item.prompt_ids, completion):
            continue
        n_verified += 1
        per_prompt[i] += 1
        text = vocabulary_for(item.task).detokenize(
            completion[: completion.index(EOS_ID)]
        )
        key = (item.prompt, text)
        if config.dedupe and key in seen:
            continue
        seen.add(key)
        retained.append(Demonstration(
            prompt=item.prompt, response=text,
            task=item.task, difficulty=item.difficulty,
        ))
    stats = FilterStats(
        n_prompts=len(prompts),
        n_samples=len(completions),
        n_verified=n_verified,
        n_retained=len(retained),
        keep_rate=n_verified / len(completions),
        per_prompt_kept=per_prompt,
    )
    return retained, stats
