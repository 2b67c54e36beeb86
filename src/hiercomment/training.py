"""Training loop: mixed likelihood/unlikelihood objective, synthetic
negative examples, level assignment, early stopping, checkpointing.

A negative example corrupts the gold comment by removing roughly 10% of
its tokens, preferring tokens it shares with the superclass comment, so
the model learns to push probability mass away from comments that read
like the inherited one.  Negatives are regenerated fresh every epoch.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, asdict

import numpy as np

from . import model as M
from . import tensor as T
from .features import (
    COHERENCE_SIDES,
    CommentStats,
    FeatureArtifacts,
    coherence,
    combine_coherence_levels,
    fit_coherence_bins,
    fit_specificity_bins,
    niwf_raw,
    train_static_embeddings,
)
from .model import ExampleInputs, ModelConfig, encode_source, forward_nll, forward_unlikelihood
from .text import Vocabulary


@dataclass
class TrainingConfig:
    learning_rate: float = 0.001
    dropout: float = 0.7
    batch_size: int = 32
    alpha: float = 1.0
    patience: int = 10
    max_epochs: int = 100
    seed: int = 0
    negative_removal_rate: float = 0.1

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0, got %r" % self.alpha)
        if not 0.0 < self.negative_removal_rate < 1.0:
            raise ValueError("negative_removal_rate must be in (0, 1), got %r"
                             % self.negative_removal_rate)
        if self.patience < 1 or self.max_epochs < 1 or self.batch_size < 1:
            raise ValueError("patience, max_epochs and batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainingConfig":
        known = set(cls.__dataclass_fields__)
        extra = set(d) - known
        if extra:
            raise ValueError("unknown TrainingConfig fields: %s" % ", ".join(sorted(extra)))
        return cls(**d)


def make_negative(c_sub_tokens: list, c_sup_tokens: list, rate: float,
                  rng: np.random.Generator) -> list:
    """Corrupt a gold comment by removing ~rate of its tokens.

    Removal count is n = max(1, round-half-up(rate * len)).  Positions
    whose token also appears in the superclass comment are removed
    first (uniformly without replacement); if fewer than n exist, the
    rest are drawn uniformly from the remaining positions.  Order of
    the surviving tokens is preserved.
    """
    length = len(c_sub_tokens)
    if length == 0:
        return []
    n = max(1, int(np.floor(rate * length + 0.5)))
    n = min(n, length)
    sup_set = set(c_sup_tokens)
    shared = [i for i, t in enumerate(c_sub_tokens) if t in sup_set]
    if len(shared) >= n:
        removed = set(rng.choice(shared, size=n, replace=False).tolist())
    else:
        removed = set(shared)
        rest = [i for i in range(length) if i not in removed]
        extra = n - len(removed)
        removed.update(rng.choice(rest, size=extra, replace=False).tolist())
    return [t for i, t in enumerate(c_sub_tokens) if i not in removed]


def combine_losses(mle_terms: list, ul_terms: list, alpha: float,
                   use_unlikelihood: bool):
    """L_ULE = mean(L_MLE) + alpha * mean(L_UL) as one scalar tensor."""
    if not mle_terms:
        raise ValueError("empty batch")
    acc = mle_terms[0]
    for term in mle_terms[1:]:
        acc = T.add(acc, term)
    loss = T.mul(acc, T.const(np.asarray(1.0 / len(mle_terms))))
    if use_unlikelihood and ul_terms:
        ul = ul_terms[0]
        for term in ul_terms[1:]:
            ul = T.add(ul, term)
        loss = T.add(loss, T.mul(ul, T.const(np.asarray(alpha / len(ul_terms)))))
    return loss


# artifact fitting and level assignment --------------------------------------

def token_sequences(inputs: list) -> list:
    """The sequences the vocabulary and the static embeddings are fit on:
    per example its gold comment, superclass comment, method and class
    name tokens, in that order."""
    return [seq for ex in inputs
            for seq in (ex.target_tokens, ex.sup_comment_tokens,
                        ex.method_tokens, ex.sub_name_tokens)]


def coherence_scores(ex: ExampleInputs, emb, stats: CommentStats) -> dict:
    """Coherence of the gold comment with each side's stream."""
    return {side: coherence(ex.target_tokens, ex.stream_tokens(stream), emb, stats)
            for side, stream in COHERENCE_SIDES.items()}


def fit_artifacts(train_inputs: list, mode: str, dataset_digest: str,
                  k_levels: int = 5, embed_dim: int = 64, window: int = 5,
                  seed: int = 0) -> FeatureArtifacts:
    """Fit all frozen statistics on the training split.

    Comment statistics and specificity bins come from the gold subclass
    comments; static embeddings are trained on every token stream so
    coherence can compare comments against code and class names.
    """
    targets = [ex.target_tokens for ex in train_inputs]
    stats = CommentStats.fit(targets)
    spec_bins = fit_specificity_bins(targets, stats, k=k_levels)
    emb = train_static_embeddings(token_sequences(train_inputs), dim=embed_dim,
                                  window=window, seed=seed)
    per_example = [coherence_scores(ex, emb, stats) for ex in train_inputs]
    scores = {side: [s[side] for s in per_example] for side in COHERENCE_SIDES}
    coh_bins = fit_coherence_bins(scores, k=k_levels)
    return FeatureArtifacts(mode=mode, dataset_hash=dataset_digest, stats=stats,
                            spec_bins=spec_bins, coh_bins=coh_bins, embeddings=emb)


def example_levels(ex: ExampleInputs, artifacts: FeatureArtifacts) -> tuple:
    """(spec_level, coh_level) of one example's gold comment."""
    spec = artifacts.spec_bins.level(niwf_raw(ex.target_tokens, artifacts.stats))
    sides = coherence_scores(ex, artifacts.embeddings, artifacts.stats)
    levels = {s: artifacts.coh_bins[s].level(v) for s, v in sides.items()}
    return spec, combine_coherence_levels(levels)


def assign_levels(inputs: list, artifacts: FeatureArtifacts) -> dict:
    """Per-example-id (spec_level, coh_level) for training conditioning."""
    return {ex.example_id: example_levels(ex, artifacts) for ex in inputs}


# the loop --------------------------------------------------------------------

@dataclass
class EpochLog:
    epoch: int
    train_mle: float
    train_ul: float
    train_loss: float
    train_ppl: float
    valid_mle: float
    valid_ppl: float
    seconds: float


@dataclass
class TrainResult:
    params: dict                  # best parameters as plain arrays
    best_epoch: int
    best_valid: float
    log: list = field(default_factory=list)
    diverged: bool = False
    stopped_early: bool = False
    config_hash: str = ""


def _levels_for(ex: ExampleInputs, levels: dict, config: ModelConfig):
    if config.use_specificity or config.use_coherence:
        return levels[ex.example_id]
    return None, None


def _validate(valid_inputs, levels, vocab, params, config):
    total_nll = 0.0
    total_steps = 0
    with T.no_grad():
        for ex in valid_inputs:
            spec, coh = _levels_for(ex, levels, config)
            src = encode_source(ex, vocab, params, config, rng=None, train=False)
            nll = forward_nll(src, ex.target_tokens, spec, coh, vocab, params,
                              config, rng=None, train=False)
            total_nll += float(nll.data)
            total_steps += len(ex.target_tokens) + 1
    mean_nll = total_nll / max(len(valid_inputs), 1)
    ppl = float(np.exp(total_nll / max(total_steps, 1)))
    return mean_nll, ppl


def save_train_checkpoint(path: str, arrays: dict, model_config: ModelConfig,
                          vocab: Vocabulary, extra: dict | None = None) -> None:
    meta = {"config": model_config.to_dict(), "vocab": vocab.to_json()}
    if extra:
        meta.update(extra)
    T.save_checkpoint(path, arrays, meta)


def load_train_checkpoint(path: str):
    arrays, (config, vocab, meta) = T.load_checkpoint(
        path, lambda meta: (ModelConfig.from_dict(meta["config"]),
                            Vocabulary.from_json(meta["vocab"]), meta))
    return M.arrays_to_params(arrays), config, vocab, meta


def train(train_inputs: list, valid_inputs: list, vocab: Vocabulary,
          model_config: ModelConfig, training_config: TrainingConfig,
          artifacts: FeatureArtifacts | None = None,
          log_cb=None, stop_cb=None) -> TrainResult:
    """Run the mixed-objective loop and return the best-validation weights.

    Negatives are resampled every epoch; validation uses teacher-forced
    mean L_MLE; training stops after `patience` consecutive epochs
    without strict improvement, keeping the best checkpoint seen.  An
    optional `stop_cb(entry) -> bool` ends training once a target is
    reached (e.g. a perplexity threshold).
    """
    if not train_inputs:
        raise ValueError("empty training split")
    needs_levels = model_config.use_specificity or model_config.use_coherence
    if needs_levels and artifacts is None:
        raise ValueError("level conditioning requires fitted feature artifacts")
    levels = {}
    if needs_levels:
        levels = assign_levels(list(train_inputs) + list(valid_inputs), artifacts)

    rng = np.random.default_rng(training_config.seed)
    params = M.init_params(model_config, seed=training_config.seed)
    adam = T.AdamState(params, lr=training_config.learning_rate)

    best_arrays = {name: p.data.copy() for name, p in params.items()}
    best_valid = float("inf")
    best_epoch = 0
    bad_epochs = 0
    result = TrainResult(params=best_arrays, best_epoch=0, best_valid=best_valid,
                         config_hash=model_config.config_hash())

    n = len(train_inputs)
    for epoch in range(1, training_config.max_epochs + 1):
        t0 = time.perf_counter()
        negatives = {}
        if model_config.use_unlikelihood:
            for ex in train_inputs:
                negatives[ex.example_id] = make_negative(
                    ex.target_tokens, ex.sup_comment_tokens,
                    training_config.negative_removal_rate, rng)
        order = rng.permutation(n)

        epoch_mle = 0.0
        epoch_ul = 0.0
        epoch_steps = 0
        diverged = False
        for start in range(0, n, training_config.batch_size):
            batch = [train_inputs[i] for i in order[start:start + training_config.batch_size]]
            adam.zero_grad(params)
            mle_terms = []
            ul_terms = []
            for ex in batch:
                spec, coh = _levels_for(ex, levels, model_config)
                src = encode_source(ex, vocab, params, model_config,
                                    rng=rng, train=True)
                nll = forward_nll(src, ex.target_tokens, spec, coh, vocab,
                                  params, model_config, rng=rng, train=True)
                mle_terms.append(nll)
                epoch_steps += len(ex.target_tokens) + 1
                if model_config.use_unlikelihood:
                    ul = forward_unlikelihood(
                        src, negatives[ex.example_id], spec, coh, vocab,
                        params, model_config, rng=rng, train=True)
                    ul_terms.append(ul)
            loss = combine_losses(mle_terms, ul_terms, training_config.alpha,
                                  model_config.use_unlikelihood)
            epoch_mle += float(sum(t.data for t in mle_terms))
            epoch_ul += float(sum(t.data for t in ul_terms)) if ul_terms else 0.0
            if not np.isfinite(loss.data):
                diverged = True
                break
            loss.backward()
            try:
                adam.step(params)
            except RuntimeError:
                diverged = True
                break

        if diverged:
            result.diverged = True
            break

        train_mle = epoch_mle / n
        train_ul = epoch_ul / n if model_config.use_unlikelihood else 0.0
        train_loss = train_mle + training_config.alpha * train_ul
        train_ppl = float(np.exp(epoch_mle / max(epoch_steps, 1)))
        valid_mle, valid_ppl = _validate(valid_inputs, levels, vocab, params,
                                         model_config)
        entry = EpochLog(epoch=epoch, train_mle=train_mle, train_ul=train_ul,
                         train_loss=train_loss, train_ppl=train_ppl,
                         valid_mle=valid_mle, valid_ppl=valid_ppl,
                         seconds=time.perf_counter() - t0)
        result.log.append(entry)
        if log_cb is not None:
            log_cb(entry)

        if valid_mle < best_valid:
            best_valid = valid_mle
            best_epoch = epoch
            best_arrays = {name: p.data.copy() for name, p in params.items()}
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= training_config.patience:
                result.stopped_early = True
                break
        if stop_cb is not None and stop_cb(entry):
            break

    result.params = best_arrays
    result.best_epoch = best_epoch
    result.best_valid = best_valid
    return result
