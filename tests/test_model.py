import itertools
import math
from dataclasses import dataclass

import numpy as np
import numpy.testing as npt
import pytest

from hiercomment import model as M
from hiercomment import tensor as T
from hiercomment.corpus import OverrideExample
from hiercomment.model import (
    ExampleInputs,
    ModelConfig,
    beam_search,
    decode_step,
    encode_source,
    encode_stream,
    forward_nll,
    forward_unlikelihood,
    generate,
    init_decoder,
    init_params,
    target_extended_id,
)
from hiercomment.text import BOS_ID, EOS_ID, PAD_ID, UNK_ID, Vocabulary


def tiny_config(**overrides):
    base = dict(
        vocab_size=24,
        embed_dim=6,
        enc_hidden=5,
        enc_layers=2,
        dec_hidden=8,
        dec_layers=2,
        dropout=0.0,
        k_levels=5,
        level_embed_dim=3,
        feature_proj_dim=4,
    )
    base.update(overrides)
    return ModelConfig(**base)


def make_vocab(tokens):
    seqs = [[t] for t in tokens for _ in range(2)]
    from hiercomment.text import build_vocab
    return build_vocab(seqs, cap=10000, min_freq=1)


VOCAB_TOKENS = ["returns", "the", "value", ".", "encoded", "form", "of",
                "this", "object", "info", "access", "syntax", "int", "(",
                ")", "{", "}", "return", ";", "x"]


def make_inputs(**overrides):
    base = dict(
        example_id="p:A.f/0",
        method_tokens=["int", "x", "(", ")", "{", "return", ";", "}"],
        sup_method_tokens=["int", "x", "(", ")", "{", "}"],
        sub_name_tokens=["info", "access", "syntax"],
        sup_name_tokens=["value"],
        sup_comment_tokens=["returns", "the", "value", "."],
        target_tokens=["returns", "the", "syntax", "."],
    )
    base.update(overrides)
    return ExampleInputs(**base)


class TestModelConfig:
    def test_hash_changes_with_flags(self):
        a = tiny_config()
        b = tiny_config(use_features=False)
        assert a.config_hash() != b.config_hash()
        assert a.config_hash() == tiny_config().config_hash()

    def test_roundtrip(self):
        cfg = tiny_config(use_coherence=False)
        back = ModelConfig.from_dict(cfg.to_dict())
        assert back == cfg

    def test_unknown_field_rejected(self):
        d = tiny_config().to_dict()
        d["bogus"] = 1
        with pytest.raises(ValueError, match="unknown"):
            ModelConfig.from_dict(d)

    def test_derived_dims(self):
        cfg = ModelConfig(vocab_size=100)
        assert cfg.enc_input_dim == 64 + 16
        assert cfg.dec_input_dim == 64 + 32 + 32
        assert cfg.init_width == 3 * 2 * 2 * 64


class TestInitParams:
    def test_default_shapes(self):
        cfg = ModelConfig(vocab_size=50)
        params = init_params(cfg, seed=0)
        assert params["embed.token"].shape == (50, 64)
        assert params["init.w"].shape == (768, 256)
        assert params["attn.w"].shape == (128, 128)
        assert params["out.w"].shape == (128 + 128, 50)
        assert params["pgen.w"].shape == (128 + 128 + 128,)
        assert params["enc.method.l0.f.wi"].shape == (80, 3 * 64)
        assert params["enc.method.l1.b.wi"].shape == (128, 3 * 64)
        assert params["dec.l0.wi"].shape == (128, 3 * 128)
        assert params["embed.spec_level"].shape == (5, 32)

    def test_flag_off_removes_params(self):
        cfg = tiny_config(use_features=False, use_specificity=False,
                          use_coherence=False, use_class_name_encoder=False)
        params = init_params(cfg, seed=0)
        names = set(params)
        assert not any(n.startswith("feat_proj.") for n in names)
        assert "embed.spec_level" not in names
        assert "embed.coh_level" not in names
        assert not any(".class_name." in n for n in names)
        # init projection keeps its fixed width regardless of flags
        assert params["init.w"].shape[0] == cfg.init_width

    def test_deterministic_per_seed(self):
        cfg = tiny_config()
        a = init_params(cfg, seed=3)
        b = init_params(cfg, seed=3)
        c = init_params(cfg, seed=4)
        assert set(a) == set(b) == set(c)
        for name in a:
            assert np.array_equal(a[name].data, b[name].data)
        assert not np.array_equal(a["out.w"].data, c["out.w"].data)

    def test_biases_zero(self):
        params = init_params(tiny_config(), seed=0)
        for name, p in params.items():
            if name.endswith(".b") or name.endswith("bi") or name.endswith("bh"):
                assert not p.data.any(), name


class TestEncodeStream:
    def test_row_count_matches_tokens(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        feats = np.zeros((3, cfg.feature_dims["class_name"]))
        out = encode_stream([4, 5, 6], feats, "class_name", params, cfg,
                            rng=None, train=False, surface=["a", "b", "c"])
        assert out.per_step.shape == (3, 2 * cfg.enc_hidden)
        assert len(out.finals) == cfg.enc_layers
        assert out.finals[0].shape == (2 * cfg.enc_hidden,)

    def test_empty_stream_gets_synthetic_pad_step(self):
        cfg = tiny_config()
        params = init_params(cfg, seed=0)
        out = encode_stream([], None, "method", params, cfg, rng=None,
                            train=False)
        assert out.per_step.shape == (1, 2 * cfg.enc_hidden)
        assert out.surface == ["<pad>"]

    def test_without_features_equals_plain_bigru(self):
        cfg = tiny_config(use_features=False)
        params = init_params(cfg, seed=1)
        ids = [4, 7, 9, 2]
        out = encode_stream(ids, None, "method", params, cfg, rng=None,
                            train=False, surface=list("abcd"))
        x = T.embedding_gather(params["embed.token"], ids)
        weights = [{d: {p: params["enc.method.l%d.%s.%s" % (l, d, p)]
                        for p in ("wi", "bi", "wh", "bh")}
                    for d in ("f", "b")} for l in range(cfg.enc_layers)]
        per_step, finals = T.bigru_encode(x, weights, 0.0, None, False)
        npt.assert_array_equal(out.per_step.data, per_step.data)
        npt.assert_array_equal(out.finals[1].data, finals[1].data)

    def test_tape_nodes_do_not_grow_with_stream_length(self, monkeypatch):
        """Each GRU layer and direction is one node over the whole stream."""
        vocab = make_vocab(VOCAB_TOKENS)
        cfg = tiny_config(vocab_size=len(vocab))
        params = init_params(cfg, seed=0)
        make = T._make
        counts = []

        def counting(data, parents, vjp):
            out = make(data, parents, vjp)
            counts[-1] += out._vjp is not None
            return out
        monkeypatch.setattr(T, "_make", counting)
        for length in (5, 50):
            counts.append(0)
            encode_source(make_inputs(method_tokens=(VOCAB_TOKENS * 3)[:length]),
                          vocab, params, cfg)
        assert counts[0] == counts[1] > 0


class TestExtendedVocabulary:
    def setup_method(self):
        self.vocab = make_vocab(VOCAB_TOKENS)
        self.cfg = tiny_config(vocab_size=len(self.vocab))
        self.params = init_params(self.cfg, seed=0)

    def test_oov_ids_assigned_in_first_occurrence_order(self):
        inputs = make_inputs(
            method_tokens=["zap", "int", "qux"],
            sub_name_tokens=["qux", "info"],
            sup_comment_tokens=["returns", "zap", "."],
        )
        src = encode_source(inputs, self.vocab, self.params, self.cfg)
        assert src.oov_list == ["zap", "qux"]
        V = len(self.vocab)
        assert src.ext_ids[0] == V
        assert src.ext_ids[2] == V + 1
        assert src.ext_ids[3] == V + 1
        assert src.surface[0] == "zap"
        assert src.ext_vocab_size == V + 2

    def test_in_vocab_tokens_keep_vocab_ids(self):
        inputs = make_inputs()
        src = encode_source(inputs, self.vocab, self.params, self.cfg)
        assert src.oov_list == []
        assert src.ext_ids[0] == self.vocab.id_of("int")

    def test_target_extended_id(self):
        inputs = make_inputs(method_tokens=["zap", "int"])
        src = encode_source(inputs, self.vocab, self.params, self.cfg)
        assert target_extended_id("int", self.vocab, src) == self.vocab.id_of("int")
        assert target_extended_id("zap", self.vocab, src) == len(self.vocab)
        assert target_extended_id("nowhere", self.vocab, src) is None


class FixtureModel:
    def __init__(self, **config_overrides):
        self.vocab = make_vocab(VOCAB_TOKENS)
        self.cfg = tiny_config(vocab_size=len(self.vocab), **config_overrides)
        self.params = init_params(self.cfg, seed=7)

    def source(self, inputs=None):
        return encode_source(inputs or make_inputs(), self.vocab, self.params,
                             self.cfg)


class TestDecodeStep:
    def test_final_dist_is_probability_distribution(self):
        for flags in [{}, {"use_features": False},
                      {"use_class_name_encoder": False},
                      {"use_specificity": False, "use_coherence": False}]:
            fm = FixtureModel(**flags)
            src = fm.source(make_inputs(method_tokens=["zap", "int", "zap"]))
            state = init_decoder(src, fm.params, fm.cfg)
            prev = BOS_ID
            for _ in range(4):
                dist, p_gen, state, attn = decode_step(
                    state, prev, 3, 2, src, fm.params, fm.cfg)
                assert dist.data.min() >= 0.0
                assert abs(dist.data.sum() - 1.0) < 1e-6
                assert 0.0 < p_gen.data < 1.0
                assert abs(attn.data.sum() - 1.0) < 1e-9
                prev = int(np.argmax(dist.data[:len(fm.vocab)]))

    def test_pgen_one_reduces_to_vocab_softmax(self):
        fm = FixtureModel()
        fm.params["pgen.b"].data = np.asarray(60.0)
        src = fm.source(make_inputs(method_tokens=["zap", "int"]))
        state = init_decoder(src, fm.params, fm.cfg)
        dist, p_gen, _, _ = decode_step(state, BOS_ID, 5, 5, src, fm.params, fm.cfg)
        assert p_gen.data > 1.0 - 1e-12
        V = len(fm.vocab)
        assert dist.data[V:].max() < 1e-12
        npt.assert_allclose(dist.data[:V].sum(), 1.0, atol=1e-9)

    def test_pgen_zero_gives_pure_copy_distribution(self):
        fm = FixtureModel()
        fm.params["pgen.b"].data = np.asarray(-60.0)
        inputs = make_inputs(method_tokens=["zap", "int", "zap"])
        src = fm.source(inputs)
        state = init_decoder(src, fm.params, fm.cfg)
        dist, p_gen, _, attn = decode_step(state, BOS_ID, 5, 5, src, fm.params, fm.cfg)
        assert p_gen.data < 1e-12
        zap_id = len(fm.vocab)
        zap_attn = attn.data[0] + attn.data[2]
        npt.assert_allclose(dist.data[zap_id], zap_attn, atol=1e-12)
        assert dist.data[zap_id] > 0

    def test_source_only_token_receives_copy_mass(self):
        fm = FixtureModel()
        src = fm.source(make_inputs(method_tokens=["zap", "int"]))
        state = init_decoder(src, fm.params, fm.cfg)
        dist, p_gen, _, attn = decode_step(state, BOS_ID, 1, 1, src, fm.params, fm.cfg)
        assert dist.data[len(fm.vocab)] > 0.0

    def test_level_out_of_range_rejected(self):
        fm = FixtureModel()
        src = fm.source()
        state = init_decoder(src, fm.params, fm.cfg)
        with pytest.raises(ValueError, match="specificity level"):
            decode_step(state, BOS_ID, 0, 3, src, fm.params, fm.cfg)
        with pytest.raises(ValueError, match="coherence level"):
            decode_step(state, BOS_ID, 3, 6, src, fm.params, fm.cfg)

    def test_levels_ignored_when_conditioning_off(self):
        fm = FixtureModel(use_specificity=False, use_coherence=False)
        src = fm.source()
        state = init_decoder(src, fm.params, fm.cfg)
        dist, _, _, _ = decode_step(state, BOS_ID, None, None, src, fm.params, fm.cfg)
        assert abs(dist.data.sum() - 1.0) < 1e-6

    def test_spec_level_changes_decoder_input(self):
        fm = FixtureModel()
        src = fm.source()
        state = init_decoder(src, fm.params, fm.cfg)
        d1, _, _, _ = decode_step(state, BOS_ID, 1, 3, src, fm.params, fm.cfg)
        state = init_decoder(src, fm.params, fm.cfg)
        d5, _, _, _ = decode_step(state, BOS_ID, 5, 3, src, fm.params, fm.cfg)
        assert not np.array_equal(d1.data, d5.data)

    def test_batched_rows_match_single_hypothesis_steps(self):
        for flags in [{}, {"use_specificity": False, "use_coherence": False}]:
            fm = FixtureModel(**flags)
            for method in (["zap", "int", "zap"], ["int", "x"]):
                src = fm.source(make_inputs(method_tokens=method))
                state = init_decoder(src, fm.params, fm.cfg)
                # three hypotheses with different histories
                singles = []
                for prev in (BOS_ID, 5, 9):
                    _, _, st, _ = decode_step(state, prev, 3, 2, src, fm.params, fm.cfg)
                    singles.append(st)
                batch = M.DecoderState(
                    hidden=[T.const(np.stack([st.hidden[layer].data for st in singles]))
                            for layer in range(fm.cfg.dec_layers)])
                prev_ids = np.array([7, 7, 11])
                dist, p_gen, new, attn = decode_step(batch, prev_ids, 3, 2, src,
                                                     fm.params, fm.cfg)
                assert dist.data.shape == (3, src.ext_vocab_size)
                assert p_gen.data.shape == (3,)
                for b, st in enumerate(singles):
                    d1, g1, n1, a1 = decode_step(st, int(prev_ids[b]), 3, 2, src,
                                                 fm.params, fm.cfg)
                    npt.assert_allclose(dist.data[b], d1.data, atol=1e-12)
                    npt.assert_allclose(p_gen.data[b], g1.data, atol=1e-12)
                    npt.assert_allclose(attn.data[b], a1.data, atol=1e-12)
                    for layer in range(fm.cfg.dec_layers):
                        npt.assert_allclose(new.hidden[layer].data[b],
                                            n1.hidden[layer].data, atol=1e-12)

    def test_batched_step_gradient_check(self):
        fm = FixtureModel()
        inputs = make_inputs(method_tokens=["zap", "int", "zap"])
        targets = np.array([3, len(fm.vocab), 8])

        def build():
            src = fm.source(inputs)
            state = init_decoder(src, fm.params, fm.cfg)
            batch = M.DecoderState(hidden=[T.reshape(h, (1, -1)) for h in state.hidden])
            batch = batch.select(np.array([0, 0, 0]))
            dist, _, _, _ = decode_step(batch, np.array([BOS_ID, 4, 6]), 2, 4, src,
                                        fm.params, fm.cfg)
            picked = T.mul(dist, T.const(np.eye(dist.shape[1])[targets]))
            return T.tsum(T.log(T.tsum(picked, axis=1)))
        err = T.grad_check(build, fm.params, max_coords=20, seed=3)
        assert err < 1e-4

    def test_select_gathers_rows_in_order(self):
        state = M.DecoderState(hidden=[T.const(np.arange(6.0).reshape(3, 2))])
        picked = state.select(np.array([2, 0, 2]))
        npt.assert_allclose(picked.hidden[0].data, [[4, 5], [0, 1], [4, 5]])


class TestInitDecoder:
    def test_shapes(self):
        fm = FixtureModel()
        state = init_decoder(fm.source(), fm.params, fm.cfg)
        assert len(state.hidden) == fm.cfg.dec_layers
        for h in state.hidden:
            assert h.shape == (fm.cfg.dec_hidden,)

    def test_all_zero_finals_give_tanh_bias(self):
        fm = FixtureModel()
        fm.params["init.b"].data = np.linspace(-1, 1, fm.cfg.dec_layers * fm.cfg.dec_hidden)
        src = fm.source()
        src.enc = {}
        state = init_decoder(src, fm.params, fm.cfg)
        expected = np.tanh(fm.params["init.b"].data)
        npt.assert_allclose(state.hidden[0].data, expected[:fm.cfg.dec_hidden])
        npt.assert_allclose(state.hidden[1].data, expected[fm.cfg.dec_hidden:])

    def test_ablated_stream_slot_is_zero_padded(self):
        fm_off = FixtureModel(use_class_name_encoder=False)
        src = fm_off.source()
        assert "class_name" not in src.enc
        state = init_decoder(src, fm_off.params, fm_off.cfg)
        assert state.hidden[0].shape == (fm_off.cfg.dec_hidden,)


class TestAblationFaithfulness:
    def test_class_name_stream_cannot_influence_anything(self):
        # features off too: overlap features legitimately read the class
        # name even when its encoder stream is ablated
        fm = FixtureModel(use_class_name_encoder=False, use_features=False)
        a = make_inputs(sub_name_tokens=["info", "access", "syntax"])
        b = make_inputs(sub_name_tokens=["totally", "different", "curve"])
        nll_a = forward_nll(fm.source(a), a.target_tokens, 3, 3,
                            fm.vocab, fm.params, fm.cfg)
        nll_b = forward_nll(fm.source(b), b.target_tokens, 3, 3,
                            fm.vocab, fm.params, fm.cfg)
        assert nll_a.data == nll_b.data
        out_a = generate(a, fm.vocab, fm.params, fm.cfg, beam_size=3, max_len=6)
        out_b = generate(b, fm.vocab, fm.params, fm.cfg, beam_size=3, max_len=6)
        assert out_a == out_b

    def test_sup_comment_stream_cannot_influence_anything(self):
        fm = FixtureModel(use_sup_comment_encoder=False, use_features=False)
        a = make_inputs(sup_comment_tokens=["returns", "the", "value", "."])
        b = make_inputs(sup_comment_tokens=["unrelated", "words", "here", "!"])
        nll_a = forward_nll(fm.source(a), a.target_tokens, 2, 2,
                            fm.vocab, fm.params, fm.cfg)
        nll_b = forward_nll(fm.source(b), b.target_tokens, 2, 2,
                            fm.vocab, fm.params, fm.cfg)
        assert nll_a.data == nll_b.data


class TestForwardNll:
    def test_matches_stepwise_hand_accumulation(self):
        fm = FixtureModel()
        inputs = make_inputs()
        target = ["returns", "the", "syntax"]
        src = fm.source(inputs)
        total = forward_nll(src, target, 4, 2, fm.vocab, fm.params, fm.cfg)

        src2 = fm.source(inputs)
        state = init_decoder(src2, fm.params, fm.cfg)
        prev = BOS_ID
        acc = 0.0
        for tok in target + ["<eos>"]:
            tid = (EOS_ID if tok == "<eos>"
                   else target_extended_id(tok, fm.vocab, src2))
            dist, _, state, _ = decode_step(state, prev, 4, 2, src2,
                                            fm.params, fm.cfg)
            acc += -math.log(max(dist.data[tid], 1e-10))
            prev = fm.vocab.id_of(tok) if tok != "<eos>" else EOS_ID
        npt.assert_allclose(total.data, acc, rtol=0, atol=1e-12)

    def test_empty_target_is_single_eos_step(self):
        fm = FixtureModel()
        total = forward_nll(fm.source(), [], 1, 1, fm.vocab, fm.params, fm.cfg)
        assert total.data > 0
        assert total.data < 50

    def test_unreachable_gold_token_costs_fixed_floor(self):
        fm = FixtureModel()
        inputs = make_inputs()
        a = forward_nll(fm.source(inputs), ["qqqq"], 1, 1, fm.vocab,
                        fm.params, fm.cfg)
        b = forward_nll(fm.source(inputs), ["wwww"], 1, 1, fm.vocab,
                        fm.params, fm.cfg)
        assert a.data == b.data
        assert a.data > M.UNREACHABLE_NLL

    def test_oov_gold_token_in_source_is_reachable(self):
        fm = FixtureModel()
        inputs = make_inputs(method_tokens=["zap", "int"])
        reachable = forward_nll(fm.source(inputs), ["zap"], 1, 1, fm.vocab,
                                fm.params, fm.cfg)
        unreachable = forward_nll(fm.source(inputs), ["zzq"], 1, 1, fm.vocab,
                                  fm.params, fm.cfg)
        assert reachable.data != unreachable.data

    def test_gradients_flow_to_all_used_parameters(self):
        fm = FixtureModel()
        total = forward_nll(fm.source(), ["returns", "the"], 2, 2,
                            fm.vocab, fm.params, fm.cfg)
        total.backward()
        for name in ("embed.token", "attn.w", "out.w", "pgen.w", "init.w",
                     "enc.method.l0.f.wi", "dec.l1.wh", "embed.spec_level"):
            g = fm.params[name].grad
            assert g is not None and np.abs(g).sum() > 0, name


class TestForwardUnlikelihood:
    def test_matches_hand_accumulation(self):
        fm = FixtureModel()
        inputs = make_inputs()
        neg = ["returns", "value"]
        total = forward_unlikelihood(fm.source(inputs), neg, 3, 3, fm.vocab,
                                     fm.params, fm.cfg)
        src2 = fm.source(inputs)
        state = init_decoder(src2, fm.params, fm.cfg)
        prev = BOS_ID
        acc = 0.0
        for tok in neg:
            tid = target_extended_id(tok, fm.vocab, src2)
            dist, _, state, _ = decode_step(state, prev, 3, 3, src2,
                                            fm.params, fm.cfg)
            acc += -math.log(max(1.0 - dist.data[tid], 1e-10))
            prev = fm.vocab.id_of(tok)
        npt.assert_allclose(total.data, acc, rtol=0, atol=1e-12)

    def test_no_eos_step(self):
        fm = FixtureModel()
        total = forward_unlikelihood(fm.source(), [], 1, 1, fm.vocab,
                                     fm.params, fm.cfg)
        assert total.data == 0.0

    def test_unreachable_negative_tokens_contribute_zero(self):
        fm = FixtureModel()
        total = forward_unlikelihood(fm.source(), ["qqqq", "wwww"], 1, 1,
                                     fm.vocab, fm.params, fm.cfg)
        assert total.data == 0.0


def reference_teacher_forced(src, tokens, spec_level, coh_level, vocab, params,
                             config, rng, train):
    """The per-token walk: one single-hypothesis decode_step per token,
    yielding (distribution, extended target id or None)."""
    state = init_decoder(src, params, config)
    prev = BOS_ID
    for tok in tokens:
        final_dist, _, state, _ = decode_step(
            state, prev, spec_level, coh_level, src, params, config, rng, train)
        yield final_dist, EOS_ID if tok is None else target_extended_id(tok, vocab, src)
        prev = vocab.id_of(tok)


def reference_forward_nll(src, target_tokens, spec_level, coh_level, vocab, params,
                          config, rng=None, train=False):
    total = None
    unreachable = 0
    for final_dist, target in reference_teacher_forced(
            src, list(target_tokens) + [None], spec_level, coh_level, vocab,
            params, config, rng, train):
        if target is None:
            unreachable += 1
            continue
        p = T.clamp_min(T.gather_scalar(final_dist, int(target)), M.PROB_FLOOR)
        term = T.sub(T.const(np.asarray(0.0)), T.log(p))
        total = term if total is None else T.add(total, term)
    if unreachable:
        penalty = T.const(np.asarray(unreachable * M.UNREACHABLE_NLL))
        total = penalty if total is None else T.add(total, penalty)
    return total


def reference_forward_unlikelihood(src, negative_tokens, spec_level, coh_level, vocab,
                                   params, config, rng=None, train=False):
    total = T.const(np.asarray(0.0))
    for final_dist, target in reference_teacher_forced(
            src, negative_tokens, spec_level, coh_level, vocab, params, config,
            rng, train):
        if target is not None:
            p = T.gather_scalar(final_dist, int(target))
            comp = T.clamp_min(T.sub(T.const(np.asarray(1.0)), p), M.PROB_FLOOR)
            total = T.add(total, T.sub(T.const(np.asarray(0.0)), T.log(comp)))
    return total


OOV_INPUTS = dict(method_tokens=["zap", "int", "x", "(", ")", "qux", ";"])


class TestWholeSequenceMatchesReference:
    """forward_nll and forward_unlikelihood run each decoder layer over the
    whole sequence; they must agree with the per-token reference walk in
    the loss and in every parameter gradient."""

    def run(self, fm, nll_fn, ul_fn, target, negative, seed=None, train=False):
        rng = None if seed is None else np.random.default_rng(seed)
        inputs = make_inputs(**OOV_INPUTS)
        spec, coh = (3, 4) if fm.cfg.use_specificity or fm.cfg.use_coherence else (None, None)
        src = encode_source(inputs, fm.vocab, fm.params, fm.cfg, rng=rng, train=train)
        nll = nll_fn(src, target, spec, coh, fm.vocab, fm.params, fm.cfg, rng=rng,
                     train=train)
        ul = ul_fn(src, negative, spec, coh, fm.vocab, fm.params, fm.cfg, rng=rng,
                   train=train)
        values = (float(nll.data), float(ul.data))
        T.add(nll, ul).backward()
        grads = {name: p.grad for name, p in fm.params.items()}
        for p in fm.params.values():
            p.grad = None
        return values, grads, rng

    def assert_agree(self, fm, target, negative, seed=None, train=False):
        got, got_grads, got_rng = self.run(fm, forward_nll, forward_unlikelihood,
                                           target, negative, seed, train)
        want, want_grads, want_rng = self.run(fm, reference_forward_nll,
                                              reference_forward_unlikelihood,
                                              target, negative, seed, train)
        npt.assert_allclose(got, want, rtol=1e-12, atol=0)
        for name, want_g in want_grads.items():
            got_g = got_grads[name]
            assert (got_g is None) == (want_g is None), name
            if want_g is not None:
                scale = max(np.abs(want_g).max(), 1e-300)
                assert np.abs(got_g - want_g).max() <= 1e-12 * scale, name
        if seed is not None:
            # the same number of draws from the same generator
            assert got_rng.random() == want_rng.random()
        return got

    def test_copy_only_and_unreachable_targets(self):
        fm = FixtureModel()
        self.assert_agree(fm, ["zap", "returns", "qux", "."], ["zap", "the", "qux"])
        self.assert_agree(fm, ["returns", "qqqq", "zap", "wwww"], ["qqqq", "value"])

    def test_all_unreachable_target_and_negative(self):
        fm = FixtureModel()
        nll, ul = self.assert_agree(fm, ["qqqq", "wwww"], ["qqqq", "wwww"])
        assert nll > 2 * M.UNREACHABLE_NLL
        assert ul == 0.0

    def test_empty_negative_is_exact_zero(self):
        fm = FixtureModel()
        _, ul = self.assert_agree(fm, ["returns", "zap"], [])
        assert ul == 0.0

    def test_every_ablation(self):
        from hiercomment.cli import ABLATION_FLAGS
        for flags in ABLATION_FLAGS.values():
            self.assert_agree(FixtureModel(**flags), ["returns", "the", "zap", "."],
                              ["returns", "zap"])

    def test_one_and_three_decoder_layers(self):
        for layers in (1, 3):
            self.assert_agree(FixtureModel(dec_layers=layers), ["returns", "zap", "."],
                              ["the", "syntax", "zap"])

    def test_dropout_masks_match_in_train_mode(self, monkeypatch):
        fm = FixtureModel(dropout=0.5)
        masks = []
        dropout = T.dropout

        def recording(x, p, rng, train):
            out = dropout(x, p, rng, train)
            masks.append((out.data != 0).ravel())
            return out
        monkeypatch.setattr(T, "dropout", recording)
        target, negative = ["returns", "the", "zap", "."], ["returns", "zap"]
        drawn = []
        for nll_fn, ul_fn in ((forward_nll, forward_unlikelihood),
                              (reference_forward_nll, reference_forward_unlikelihood)):
            masks.clear()
            self.run(fm, nll_fn, ul_fn, target, negative, seed=11, train=True)
            drawn.append(np.concatenate(masks))
        assert 0 < drawn[0].mean() < 1
        npt.assert_array_equal(drawn[0], drawn[1])
        self.assert_agree(fm, target, negative, seed=11, train=True)


    def test_vocab_sized_nodes_do_not_grow_with_target_length(self, monkeypatch):
        """The output head runs once over all target rows, not per token."""
        fm = FixtureModel(dec_hidden=10)
        src = fm.source(make_inputs(**OOV_INPUTS))
        widths = {len(fm.vocab), src.ext_vocab_size}
        # the per-step GRU gate rows (3 * dec_hidden wide) must not count
        assert 3 * fm.cfg.dec_hidden not in widths
        make = T._make
        counts = []

        def counting(data, parents, vjp):
            if np.ndim(data) and np.shape(data)[-1] in widths:
                counts[-1] += 1
            return make(data, parents, vjp)
        monkeypatch.setattr(T, "_make", counting)
        for length in (3, 20):
            counts.append(0)
            forward_nll(src, (["returns", "the", "zap", "."] * 5)[:length], 3, 4,
                        fm.vocab, fm.params, fm.cfg)
        assert counts[0] == counts[1] > 0


class TestEndToEndGradient:
    def test_mle_gradient_check(self):
        fm = FixtureModel()
        inputs = make_inputs(method_tokens=["int", "x", "zap"])

        def build():
            src = encode_source(inputs, fm.vocab, fm.params, fm.cfg)
            return forward_nll(src, ["returns", "zap", "."], 4, 2,
                               fm.vocab, fm.params, fm.cfg)
        err = T.grad_check(build, fm.params, max_coords=50, seed=0)
        assert err < 1e-4

    def test_unlikelihood_gradient_check(self):
        fm = FixtureModel()
        inputs = make_inputs()

        def build():
            src = encode_source(inputs, fm.vocab, fm.params, fm.cfg)
            return forward_unlikelihood(src, ["returns", "the"], 2, 5,
                                        fm.vocab, fm.params, fm.cfg)
        err = T.grad_check(build, fm.params, max_coords=50, seed=1)
        assert err < 1e-4


def enumerate_best(step_table, eos_id, n_tokens, max_len, min_len=1):
    """Exhaustive oracle: best length-normalized sequence under a table
    mapping prefix tuples to log-prob arrays."""
    best = (None, -np.inf)
    for length in range(max_len + 1):
        for seq in itertools.product(range(n_tokens), repeat=length):
            if eos_id in seq:
                continue
            logp = 0.0
            ok = True
            for t, tok in enumerate(seq):
                logp += step_table[seq[:t]][tok]
            if length < max_len:
                if length < min_len:
                    continue
                logp_end = logp + step_table[seq][eos_id]
                score = logp_end / (length + 1)
            else:
                score = logp / length if length else -np.inf
            if score > best[1] + 1e-15:
                best = (list(seq), score)
    return best


@dataclass
class Hypothesis:
    tokens: tuple
    logp: float
    state: object
    steps: int
    last: int

    @property
    def score(self) -> float:
        return self.logp / max(self.steps, 1)


def reference_beam_search(step_fn, bos_id, eos_id, beam_size, max_len, min_len=1):
    """Per-hypothesis beam search: one `step_fn(state, prev_id)` call per
    live hypothesis and a full stable sort of the beam x W scores per step.
    The batched `beam_search` must agree with it exactly."""
    live = [Hypothesis(tokens=(), logp=0.0, state=None, steps=0, last=bos_id)]
    finished = []
    for _ in range(max_len):
        if not live:
            break
        all_scores = []
        new_states = []
        for hyp in live:
            log_probs, new_state = step_fn(hyp.state, hyp.last)
            log_probs = np.asarray(log_probs, dtype=np.float64).copy()
            if len(hyp.tokens) < min_len:
                log_probs[eos_id] = -np.inf
            all_scores.append(hyp.logp + log_probs)
            new_states.append(new_state)
        flat = np.concatenate(all_scores)
        width = len(all_scores[0])
        k = min(beam_size, flat.size)
        order = np.argsort(-flat, kind="stable")[:k]
        next_live = []
        for idx in order:
            h_idx, token = divmod(int(idx), width)
            logp = float(flat[idx])
            if not np.isfinite(logp):
                continue
            parent = live[h_idx]
            steps = parent.steps + 1
            if token == eos_id:
                finished.append(Hypothesis(tokens=parent.tokens, logp=logp,
                                           state=None, steps=steps, last=token))
            else:
                next_live.append(Hypothesis(tokens=parent.tokens + (token,),
                                            logp=logp, state=new_states[h_idx],
                                            steps=steps, last=token))
        live = next_live
    finished.extend(live)
    if not finished:
        return [], -np.inf
    best = max(finished, key=lambda h: h.score)
    return list(best.tokens), best.score


@dataclass
class Rows:
    """Batched beam state of per-hypothesis step functions: one state per row."""
    states: list
    t: int = 0

    def select(self, rows):
        return Rows([self.states[i] for i in rows], self.t)


def batched(step_fn):
    """A batched step function that calls per-hypothesis `step_fn` per row."""
    def step(state, prev_ids):
        states = [None] if state is None else state.states
        out = [step_fn(s, int(p)) for s, p in zip(states, prev_ids)]
        t = 0 if state is None else state.t
        return np.stack([lp for lp, _ in out]), Rows([s for _, s in out], t + 1)
    return step


def table_step(table):
    """Per-hypothesis step function over a table keyed by token prefix."""
    def step(state, prev):
        prefix = () if state is None else state + (prev,)
        return table[prefix], prefix
    return step


class TestBeamSearch:
    def build_table(self, seed, n_tokens=4, max_len=3):
        rng = np.random.default_rng(seed)
        table = {}
        for length in range(max_len + 1):
            for seq in itertools.product(range(n_tokens), repeat=length):
                p = rng.dirichlet(np.ones(n_tokens))
                table[seq] = np.log(p)
        return table

    def test_matches_exhaustive_enumeration(self):
        eos = 3
        for seed in range(8):
            table = self.build_table(seed)
            got_tokens, got_score = beam_search(batched(table_step(table)), bos_id=99,
                                                eos_id=eos, beam_size=64,
                                                max_len=3)
            want_tokens, want_score = enumerate_best(table, eos, 4, 3)
            assert got_tokens == want_tokens, seed
            npt.assert_allclose(got_score, want_score, atol=1e-12)

    def test_beam_one_equals_greedy(self):
        eos = 3
        table = self.build_table(123)
        tokens, _ = beam_search(batched(table_step(table)), bos_id=99, eos_id=eos,
                                beam_size=1, max_len=3)
        prefix = ()
        greedy = []
        for _ in range(3):
            lp = table[prefix].copy()
            if len(greedy) < 1:
                lp[eos] = -np.inf
            tok = int(np.argmax(lp))
            if tok == eos:
                break
            greedy.append(tok)
            prefix = prefix + (tok,)
        assert tokens == greedy

    def test_forced_single_token(self):
        eos = 2
        lp = np.log(np.array([1e-9, 1.0 - 2e-9, 1e-9]))

        def step(state, prev):
            n = 0 if state is None else state
            if n == 0:
                return lp, 1
            return np.log(np.array([1e-9, 1e-9, 1.0 - 2e-9])), n + 1

        tokens, _ = beam_search(batched(step), bos_id=9, eos_id=eos, beam_size=5,
                                max_len=4)
        assert tokens == [1]

    def test_wider_beam_never_scores_worse(self):
        eos = 4
        for seed in range(20):
            rng = np.random.default_rng(seed)
            table = {}
            for length in range(5):
                for seq in itertools.product(range(5), repeat=length):
                    table[seq] = np.log(rng.dirichlet(np.ones(5)))
            step = batched(table_step(table))
            _, s1 = beam_search(step, 9, eos, beam_size=1, max_len=4)
            _, s8 = beam_search(step, 9, eos, beam_size=8, max_len=4)
            assert s8 >= s1 - 1e-12

    def test_min_len_blocks_immediate_eos(self):
        eos = 1

        def step(state, prev):
            return np.log(np.array([0.01, 0.98, 0.01])), None

        tokens, _ = beam_search(batched(step), 9, eos, beam_size=2, max_len=3,
                                min_len=2)
        assert len(tokens) >= 2
        assert eos not in tokens

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            beam_search(lambda s, p: (np.zeros((1, 3)), s), 0, 1, beam_size=0, max_len=3)
        with pytest.raises(ValueError):
            beam_search(lambda s, p: (np.zeros((1, 3)), s), 0, 1, beam_size=2, max_len=0)

    def test_step_fn_must_return_one_row_per_hypothesis(self):
        with pytest.raises(ValueError, match="shape"):
            beam_search(lambda s, p: (np.zeros(3), s), 0, 1, beam_size=2, max_len=3)

    def test_one_step_fn_call_per_step(self):
        table = self.build_table(5)
        calls = []
        step = batched(table_step(table))

        def counting(state, prev_ids):
            calls.append(len(prev_ids))
            return step(state, prev_ids)

        beam_search(counting, 99, 3, beam_size=4, max_len=3)
        assert len(calls) == 3
        assert calls[0] == 1 and max(calls) <= 4

    @staticmethod
    def agree_with_reference(n_cases, bad):
        """Random tables of log-probs rounded to 0.1 (so ties are common)
        with ~15% `bad` entries; tokens and scores must match exactly."""
        for case in range(n_cases):
            rng = np.random.default_rng(case)
            width = int(rng.integers(2, 6))
            eos = int(rng.integers(0, width))
            beam = int(rng.integers(1, 9))
            max_len = int(rng.integers(1, 5))
            min_len = int(rng.integers(0, 3))

            def step(state, prev, case=case, width=width):
                prefix = () if state is None else state + (prev,)
                r = np.random.default_rng([case, len(prefix), *prefix])
                lp = np.round(r.uniform(-3.0, 0.0, size=width), 1)
                lp[r.random(width) < 0.15] = bad
                return lp, prefix

            want = reference_beam_search(step, 99, eos, beam, max_len, min_len)
            got = beam_search(batched(step), 99, eos, beam, max_len, min_len)
            assert got[0] == want[0], case
            assert got[1] == want[1], case

    def test_agrees_with_reference_on_tie_heavy_tables(self):
        self.agree_with_reference(400, -np.inf)

    def test_nan_log_probs_rank_last_as_in_reference(self):
        self.agree_with_reference(100, np.nan)


class TestGenerate:
    def test_deterministic_and_bounded(self):
        fm = FixtureModel()
        inputs = make_inputs()
        out1 = generate(inputs, fm.vocab, fm.params, fm.cfg, beam_size=4,
                        max_len=7)
        out2 = generate(inputs, fm.vocab, fm.params, fm.cfg, beam_size=4,
                        max_len=7)
        assert out1 == out2
        assert 1 <= len(out1) <= 7
        assert all(isinstance(t, str) for t in out1)

    def test_default_levels_are_maximum(self):
        fm = FixtureModel()
        inputs = make_inputs()
        top = generate(inputs, fm.vocab, fm.params, fm.cfg, beam_size=3,
                       max_len=5, spec_level=fm.cfg.k_levels,
                       coh_level=fm.cfg.k_levels)
        default = generate(inputs, fm.vocab, fm.params, fm.cfg, beam_size=3,
                           max_len=5)
        assert top == default

    def test_matches_per_hypothesis_reference(self):
        """The batched decoder under beam search picks what the reference
        beam search picks over one single-hypothesis decode_step per call."""
        fm = FixtureModel()
        for method in (["zap", "int", "zap"], ["int", "x", "(", ")"]):
            inputs = make_inputs(method_tokens=method)
            got = generate(inputs, fm.vocab, fm.params, fm.cfg, beam_size=4, max_len=6)
            with T.no_grad():
                src = fm.source(inputs)
                state0 = init_decoder(src, fm.params, fm.cfg)

                def step(state, prev_id):
                    prev = prev_id if prev_id < len(fm.vocab) else UNK_ID
                    dist, _, new_state, _ = decode_step(
                        state0 if state is None else state, prev, 5, 5, src,
                        fm.params, fm.cfg)
                    return np.log(np.maximum(dist.data, 1e-300)), new_state
                ids, _ = reference_beam_search(step, BOS_ID, EOS_ID, 4, 6)
            want = [fm.vocab.token_of(i) if i < len(fm.vocab)
                    else src.oov_list[i - len(fm.vocab)] for i in ids]
            assert got == want

    def test_copy_only_model_emits_source_surface_tokens(self):
        fm = FixtureModel()
        fm.params["pgen.b"].data = np.asarray(-60.0)
        inputs = make_inputs(method_tokens=["zap", "zap", "zap", "zap"],
                             sub_name_tokens=["zap"],
                             sup_comment_tokens=["zap", "zap"])
        out = generate(inputs, fm.vocab, fm.params, fm.cfg, beam_size=2,
                       max_len=3, min_len=1)
        assert out
        assert set(out) == {"zap"}


class TestExampleInputs:
    def make_example(self):
        return OverrideExample(
            id="proj:a.b.Sub.run/0",
            project_id="proj",
            sub_class_name="InfoAccessSyntax",
            sup_class_name="Value",
            sub_method_raw="int run() { return 2; }",
            sup_method_raw="int run() { return 0; }",
            sub_comment_first="Returns the encoded syntax.",
            sub_comment_full="Returns the encoded syntax. Never null.",
            sup_comment_first="Returns the value.",
            sup_comment_full="Returns the value. May be null.",
        )

    def test_first_mode_tokenization(self):
        inputs = ExampleInputs.from_example(self.make_example(), "first")
        assert inputs.sub_name_tokens == ["info", "access", "syntax"]
        assert inputs.sup_name_tokens == ["value"]
        assert inputs.target_tokens == ["returns", "the", "encoded", "syntax", "."]
        assert inputs.sup_comment_tokens == ["returns", "the", "value", "."]
        assert "{" in inputs.method_tokens and "2" in inputs.method_tokens

    def test_full_mode_uses_full_descriptions(self):
        inputs = ExampleInputs.from_example(self.make_example(), "full")
        assert inputs.target_tokens[-2] == "null"
        assert "may" in inputs.sup_comment_tokens

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            ExampleInputs.from_example(self.make_example(), "middle")


class TestCheckpointRoundtrip:
    def test_params_survive_checkpoint(self, tmp_path):
        from hiercomment.tensor import load_checkpoint, save_checkpoint
        cfg = tiny_config()
        params = init_params(cfg, seed=2)
        path = str(tmp_path / "model.ckpt")
        save_checkpoint(path, M.params_to_arrays(params),
                        {"config": cfg.to_dict()})
        arrays, meta = load_checkpoint(path)
        back = M.arrays_to_params(arrays)
        assert set(back) == set(params)
        for name in params:
            npt.assert_array_equal(back[name].data, params[name].data)
        assert ModelConfig.from_dict(meta["config"]) == cfg
