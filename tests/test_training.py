import math

import numpy as np
import numpy.testing as npt
import pytest

from hiercomment import model as M
from hiercomment import training as TR
from hiercomment.features import FeatureArtifacts
from hiercomment.model import ExampleInputs, ModelConfig
from hiercomment.text import build_vocab
from hiercomment.training import (
    TrainingConfig,
    assign_levels,
    combine_losses,
    example_levels,
    fit_artifacts,
    load_train_checkpoint,
    make_negative,
    save_train_checkpoint,
    train,
)
from hiercomment import tensor as T


def synthetic_inputs(n=15):
    """Targets with five distinct rarity tiers so level fitting works."""
    rarity = ["a"] * 1 + ["b"] * 2 + ["c"] * 3 + ["d"] * 4 + ["e"] * 5
    out = []
    for i in range(n):
        rare = rarity[i % len(rarity)]
        target = ["returns", "the", rare, "thing", "."]
        method = ["int", "m%d" % (i % 4), "(", ")", "{", "return", rare, ";", "}"]
        if i % 2:
            method = method[:6] + ["0", ";", "}"]
        name = ["widget", "kind%d" % (i % 5)]
        supcom = ["returns", "the", "thing", "."]
        if i % 3 == 0:
            supcom = ["returns", "a", "thing", "."]
        out.append(ExampleInputs(
            example_id="proj%d:C%d.m/0" % (i % 3, i),
            method_tokens=method,
            sup_method_tokens=["int", "m", "(", ")", "{", "}"],
            sub_name_tokens=name,
            sup_name_tokens=["widget"],
            sup_comment_tokens=supcom,
            target_tokens=target,
        ))
    return out


def synthetic_vocab(inputs):
    seqs = []
    for ex in inputs:
        seqs.extend([ex.target_tokens, ex.method_tokens, ex.sub_name_tokens,
                     ex.sup_comment_tokens])
    return build_vocab(seqs, cap=10000, min_freq=1)


def tiny_model_config(vocab_size, **overrides):
    base = dict(vocab_size=vocab_size, embed_dim=6, enc_hidden=5,
                enc_layers=2, dec_hidden=8, dec_layers=2, dropout=0.0,
                k_levels=5, level_embed_dim=3, feature_proj_dim=4)
    base.update(overrides)
    return ModelConfig(**base)


class TestTrainingConfig:
    def test_defaults(self):
        cfg = TrainingConfig()
        assert cfg.learning_rate == 0.001
        assert cfg.patience == 10
        assert cfg.alpha == 1.0
        assert cfg.negative_removal_rate == 0.1

    @pytest.mark.parametrize("bad", [
        {"alpha": -0.5},
        {"negative_removal_rate": 0.0},
        {"negative_removal_rate": 1.0},
        {"patience": 0},
        {"batch_size": 0},
        {"max_epochs": 0},
        {"learning_rate": 0.0},
    ])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            TrainingConfig(**bad)

    def test_roundtrip_and_unknown_field(self):
        cfg = TrainingConfig(seed=9, alpha=0.5)
        assert TrainingConfig.from_dict(cfg.to_dict()) == cfg
        with pytest.raises(ValueError, match="unknown"):
            TrainingConfig.from_dict({"seed": 1, "nonsense": 2})


class TestMakeNegative:
    def test_removal_count_rounds_half_up(self):
        rng = np.random.default_rng(0)
        sub15 = ["t%d" % i for i in range(15)]
        assert len(make_negative(sub15, [], 0.1, rng)) == 13
        sub14 = ["t%d" % i for i in range(14)]
        assert len(make_negative(sub14, [], 0.1, rng)) == 13
        sub10 = ["t%d" % i for i in range(10)]
        assert len(make_negative(sub10, [], 0.1, rng)) == 9

    def test_shared_tokens_removed_first(self):
        sub = ["s0", "s1", "s2", "s3", "u0", "u1", "u2", "u3", "u4", "u5"]
        sup = ["s0", "s1", "s2", "s3"]
        seen = set()
        for seed in range(100):
            rng = np.random.default_rng(seed)
            neg = make_negative(sub, sup, 0.1, rng)
            assert len(neg) == 9
            removed = set(sub) - set(neg)
            assert len(removed) == 1
            tok = removed.pop()
            assert tok.startswith("s")
            seen.add(tok)
        assert seen == {"s0", "s1", "s2", "s3"}

    def test_no_shared_falls_back_to_uniform(self):
        sub = ["u%d" % i for i in range(10)]
        seen = set()
        for seed in range(200):
            rng = np.random.default_rng(seed)
            neg = make_negative(sub, ["other"], 0.1, rng)
            assert len(neg) == 9
            seen.update(set(sub) - set(neg))
        assert seen == set(sub)

    def test_partial_shared_pool_is_exhausted_then_filled(self):
        sub = ["shared"] + ["u%d" % i for i in range(19)]
        sup = ["shared"]
        others = set()
        for seed in range(300):
            rng = np.random.default_rng(seed)
            neg = make_negative(sub, sup, 0.1, rng)
            assert len(neg) == 18
            assert "shared" not in neg
            others.update(set(sub) - set(neg) - {"shared"})
        assert len(others) >= 15

    def test_survivors_keep_order(self):
        sub = list("abcdefghij")
        for seed in range(20):
            rng = np.random.default_rng(seed)
            neg = make_negative(sub, list("ace"), 0.2, rng)
            it = iter(sub)
            assert all(tok in it for tok in neg)

    def test_strict_subsequence_with_exact_removal_count(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            length = int(rng.integers(3, 30))
            sub = ["w%d" % int(rng.integers(0, 8)) for _ in range(length)]
            sup = ["w0", "w1"]
            n = max(1, int(np.floor(0.1 * length + 0.5)))
            neg = make_negative(sub, sup, 0.1, rng)
            assert len(neg) == length - n

    def test_empty_input(self):
        assert make_negative([], ["x"], 0.1, np.random.default_rng(0)) == []


class TestCombineLosses:
    def test_mixture_arithmetic(self):
        mle = [T.const(np.asarray(2.0)), T.const(np.asarray(4.0))]
        ul = [T.const(np.asarray(1.0)), T.const(np.asarray(3.0))]
        loss = combine_losses(mle, ul, alpha=0.5, use_unlikelihood=True)
        npt.assert_allclose(loss.data, 3.0 + 0.5 * 2.0)

    def test_alpha_zero_equals_mle(self):
        mle = [T.const(np.asarray(6.0))]
        ul = [T.const(np.asarray(100.0))]
        loss = combine_losses(mle, ul, alpha=0.0, use_unlikelihood=True)
        npt.assert_allclose(loss.data, 6.0)

    def test_unlikelihood_off_ignores_ul_terms(self):
        mle = [T.const(np.asarray(6.0))]
        ul = [T.const(np.asarray(100.0))]
        loss = combine_losses(mle, ul, alpha=1.0, use_unlikelihood=False)
        npt.assert_allclose(loss.data, 6.0)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            combine_losses([], [], 1.0, True)


class TestArtifactsAndLevels:
    def setup_method(self):
        self.inputs = synthetic_inputs()
        self.art = fit_artifacts(self.inputs, mode="first", dataset_digest="x" * 64)

    def test_fit_smoke(self):
        assert isinstance(self.art, FeatureArtifacts)
        assert self.art.mode == "first"
        assert self.art.spec_bins.k == 5
        assert set(self.art.coh_bins) == {"sup_comment", "sub_method",
                                          "sub_class_name"}
        assert self.art.embeddings.dim >= 1

    def test_rarest_comment_gets_top_level(self):
        # the target containing "a" (document frequency 1) has the
        # corpus-max inverse word frequency
        levels = assign_levels(self.inputs, self.art)
        spec, _ = levels[self.inputs[0].example_id]
        assert spec == 5

    def test_levels_in_range(self):
        levels = assign_levels(self.inputs, self.art)
        for spec, coh in levels.values():
            assert 1 <= spec <= 5
            assert 1 <= coh <= 5

    def test_example_levels_deterministic(self):
        a = example_levels(self.inputs[3], self.art)
        b = example_levels(self.inputs[3], self.art)
        assert a == b

    def test_roundtripped_artifacts_give_same_levels(self, tmp_path):
        path = str(tmp_path / "f.bin")
        self.art.save(path)
        back = FeatureArtifacts.load(path)
        assert assign_levels(self.inputs, back) == assign_levels(self.inputs, self.art)


def quick_train(inputs, vocab, mcfg=None, tcfg=None, art=None, **kw):
    mcfg = mcfg or tiny_model_config(len(vocab))
    tcfg = tcfg or TrainingConfig(max_epochs=3, batch_size=4, seed=0,
                                  learning_rate=0.01)
    if art is None and (mcfg.use_specificity or mcfg.use_coherence):
        art = fit_artifacts(inputs, "first", "0" * 64)
    return train(inputs[:10], inputs[10:], vocab, mcfg, tcfg,
                 artifacts=art, **kw)


class TestTrainLoop:
    def setup_method(self):
        self.inputs = synthetic_inputs()
        self.vocab = synthetic_vocab(self.inputs)

    def test_smoke_and_log_shape(self):
        result = quick_train(self.inputs, self.vocab)
        assert len(result.log) == 3
        for entry in result.log:
            assert math.isfinite(entry.train_mle)
            assert math.isfinite(entry.valid_mle)
            assert entry.train_ppl > 1.0
            assert entry.seconds >= 0
        assert result.config_hash
        assert not result.diverged
        assert set(result.params) == set(
            M.init_params(tiny_model_config(len(self.vocab)), 0))

    def test_loss_decreases_on_tiny_task(self):
        tcfg = TrainingConfig(max_epochs=6, batch_size=4, seed=0,
                              learning_rate=0.02)
        result = quick_train(self.inputs, self.vocab, tcfg=tcfg)
        assert result.log[-1].train_mle < result.log[0].train_mle

    def test_reproducible_given_seed(self):
        a = quick_train(self.inputs, self.vocab)
        b = quick_train(self.inputs, self.vocab)

        def losses(log):
            return [dict(vars(e), seconds=None) for e in log]
        assert losses(a.log) == losses(b.log)
        for name in a.params:
            npt.assert_array_equal(a.params[name], b.params[name])

    def test_seed_changes_trajectory(self):
        a = quick_train(self.inputs, self.vocab)
        tcfg = TrainingConfig(max_epochs=3, batch_size=4, seed=1,
                              learning_rate=0.01)
        b = quick_train(self.inputs, self.vocab, tcfg=tcfg)
        assert a.log[-1].train_mle != b.log[-1].train_mle

    def test_unlikelihood_off_logs_zero_ul(self):
        mcfg = tiny_model_config(len(self.vocab), use_unlikelihood=False)
        result = quick_train(self.inputs, self.vocab, mcfg=mcfg)
        assert all(e.train_ul == 0.0 for e in result.log)

    def test_unlikelihood_on_logs_positive_ul(self):
        result = quick_train(self.inputs, self.vocab)
        assert all(e.train_ul > 0.0 for e in result.log)

    def test_levels_require_artifacts(self):
        mcfg = tiny_model_config(len(self.vocab))
        tcfg = TrainingConfig(max_epochs=1)
        with pytest.raises(ValueError, match="artifacts"):
            train(self.inputs[:10], self.inputs[10:], self.vocab, mcfg, tcfg,
                  artifacts=None)

    def test_empty_train_split_rejected(self):
        mcfg = tiny_model_config(len(self.vocab), use_specificity=False,
                                 use_coherence=False)
        with pytest.raises(ValueError, match="empty"):
            train([], [], self.vocab, mcfg, TrainingConfig(max_epochs=1))

    def test_stop_cb_ends_training(self):
        result = quick_train(self.inputs, self.vocab,
                             stop_cb=lambda e: e.epoch == 2)
        assert len(result.log) == 2


class TestEarlyStopping:
    def setup_method(self):
        self.inputs = synthetic_inputs()
        self.vocab = synthetic_vocab(self.inputs)

    def run_with_valid_sequence(self, seq, patience, max_epochs=20,
                                capture=None):
        it = iter(seq)

        def fake_validate(valid_inputs, levels, vocab, params, config):
            return next(it), 1.0

        import unittest.mock as mock
        mcfg = tiny_model_config(len(self.vocab), use_specificity=False,
                                 use_coherence=False, use_unlikelihood=False)
        tcfg = TrainingConfig(max_epochs=max_epochs, batch_size=8, seed=0,
                              patience=patience, learning_rate=0.001)
        cb = None
        if capture is not None:
            def cb(entry, _c=capture):  # noqa: E731
                _c.append(None)
        with mock.patch.object(TR, "_validate", fake_validate):
            return train(self.inputs[:8], self.inputs[8:], self.vocab,
                         mcfg, tcfg, log_cb=cb)

    def test_flat_validation_stops_after_patience(self):
        result = self.run_with_valid_sequence([5.0] * 20, patience=3)
        assert result.stopped_early
        assert len(result.log) == 4
        assert result.best_epoch == 1

    def test_decreasing_validation_runs_to_max_epochs(self):
        seq = [10.0 - 0.5 * i for i in range(20)]
        result = self.run_with_valid_sequence(seq, patience=3, max_epochs=6)
        assert not result.stopped_early
        assert len(result.log) == 6
        assert result.best_epoch == 6

    def test_best_checkpoint_is_retained(self):
        captured = {}

        def fake_validate(valid_inputs, levels, vocab, params, config):
            epoch = len(captured) + 1
            captured[epoch] = {n: p.data.copy() for n, p in params.items()}
            seq = {1: 3.0, 2: 1.0, 3: 2.0, 4: 4.0, 5: 5.0}
            return seq[epoch], 1.0

        import unittest.mock as mock
        mcfg = tiny_model_config(len(self.vocab), use_specificity=False,
                                 use_coherence=False, use_unlikelihood=False)
        tcfg = TrainingConfig(max_epochs=10, batch_size=8, seed=0, patience=3,
                              learning_rate=0.01)
        with mock.patch.object(TR, "_validate", fake_validate):
            result = train(self.inputs[:8], self.inputs[8:], self.vocab,
                           mcfg, tcfg)
        assert result.best_epoch == 2
        assert result.stopped_early
        for name, arr in result.params.items():
            npt.assert_array_equal(arr, captured[2][name])

    def test_divergence_aborts_with_last_good_params(self, monkeypatch):
        real_init = M.init_params

        def poisoned(config, seed=0):
            params = real_init(config, seed)
            params["out.w"].data[0, 0] = np.nan
            return params

        monkeypatch.setattr(TR.M, "init_params", poisoned)
        mcfg = tiny_model_config(len(self.vocab), use_specificity=False,
                                 use_coherence=False, use_unlikelihood=False)
        tcfg = TrainingConfig(max_epochs=5, batch_size=8, seed=0)
        result = train(self.inputs[:8], self.inputs[8:], self.vocab, mcfg, tcfg)
        assert result.diverged
        assert result.log == []
        assert np.isnan(result.params["out.w"][0, 0])


class TestCheckpointPlumbing:
    def test_roundtrip(self, tmp_path):
        inputs = synthetic_inputs()
        vocab = synthetic_vocab(inputs)
        result = quick_train(inputs, vocab)
        mcfg = tiny_model_config(len(vocab))
        path = str(tmp_path / "best.ckpt")
        save_train_checkpoint(path, result.params, mcfg, vocab,
                              extra={"best_epoch": result.best_epoch})
        params, config, vocab2, meta = load_train_checkpoint(path)
        assert config == mcfg
        assert len(vocab2) == len(vocab)
        assert meta["best_epoch"] == result.best_epoch
        for name in result.params:
            npt.assert_array_equal(params[name].data, result.params[name])
