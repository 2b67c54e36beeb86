"""Hierarchy-aware comment generator.

Three bidirectional GRU encoders read the subclass method body, the
subclass class-name subtokens, and the superclass comment, each token
embedding optionally concatenated with a projected feature vector.  A
unidirectional GRU decoder, conditioned on specificity and coherence
level embeddings, attends jointly over all encoder states and mixes a
vocabulary softmax with a copy distribution over source positions
(pointer-generator).  Decoding is length-normalized beam search.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, asdict

import numpy as np

from . import features as feats
from . import tensor as T
from .text import (
    BOS_ID,
    EOS_ID,
    PAD,
    PAD_ID,
    RESERVED,
    UNK_ID,
    Vocabulary,
    subtokenize,
    tokenize,
    tokenize_code,
)

# the ExampleInputs field each stream of feats.STREAMS encodes
STREAM_FIELDS = {"method": "method_tokens", "class_name": "sub_name_tokens",
                 "sup_comment": "sup_comment_tokens"}


@dataclass
class ModelConfig:
    vocab_size: int
    embed_dim: int = 64
    enc_hidden: int = 64
    enc_layers: int = 2
    dec_hidden: int = 128
    dec_layers: int = 2
    dropout: float = 0.7
    k_levels: int = 5
    level_embed_dim: int = 32
    feature_proj_dim: int = 16
    feature_dims: dict = field(default_factory=lambda: dict(feats.RAW_FEATURE_DIMS))
    use_class_name_encoder: bool = True
    use_sup_comment_encoder: bool = True
    use_features: bool = True
    use_specificity: bool = True
    use_coherence: bool = True
    use_unlikelihood: bool = True

    def active_streams(self) -> tuple[str, ...]:
        out = ["method"]
        if self.use_class_name_encoder:
            out.append("class_name")
        if self.use_sup_comment_encoder:
            out.append("sup_comment")
        return tuple(out)

    @property
    def enc_input_dim(self) -> int:
        return self.embed_dim + (self.feature_proj_dim if self.use_features else 0)

    @property
    def dec_input_dim(self) -> int:
        d = self.embed_dim
        if self.use_specificity:
            d += self.level_embed_dim
        if self.use_coherence:
            d += self.level_embed_dim
        return d

    @property
    def init_width(self) -> int:
        # one slot per stream regardless of flags; ablated streams feed zeros
        return len(feats.STREAMS) * self.enc_layers * 2 * self.enc_hidden

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(d) - known
        if extra:
            raise ValueError("unknown ModelConfig fields: %s" % ", ".join(sorted(extra)))
        return cls(**d)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]


# parameter construction ---------------------------------------------------

def _xavier(rng, fan_in: int, fan_out: int, shape) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _gru_weights(rng, in_dim: int, hidden: int) -> dict:
    return {
        "wi": _xavier(rng, in_dim, 3 * hidden, (in_dim, 3 * hidden)),
        "bi": np.zeros(3 * hidden),
        "wh": _xavier(rng, hidden, 3 * hidden, (hidden, 3 * hidden)),
        "bh": np.zeros(3 * hidden),
    }


def init_params(config: ModelConfig, seed: int = 0) -> dict:
    """All weight tensors, keyed by dotted names, in a fixed build order."""
    rng = np.random.default_rng(seed)
    arrays: dict[str, np.ndarray] = {}
    arrays["embed.token"] = rng.normal(0.0, 0.1, size=(config.vocab_size, config.embed_dim))
    if config.use_specificity:
        arrays["embed.spec_level"] = rng.normal(0.0, 0.1, size=(config.k_levels, config.level_embed_dim))
    if config.use_coherence:
        arrays["embed.coh_level"] = rng.normal(0.0, 0.1, size=(config.k_levels, config.level_embed_dim))
    for stream in config.active_streams():
        if config.use_features:
            raw = config.feature_dims[stream]
            arrays["feat_proj.%s.w" % stream] = _xavier(
                rng, raw, config.feature_proj_dim, (raw, config.feature_proj_dim))
            arrays["feat_proj.%s.b" % stream] = np.zeros(config.feature_proj_dim)
        for layer in range(config.enc_layers):
            in_dim = config.enc_input_dim if layer == 0 else 2 * config.enc_hidden
            for direction in ("f", "b"):
                w = _gru_weights(rng, in_dim, config.enc_hidden)
                for part, arr in w.items():
                    arrays["enc.%s.l%d.%s.%s" % (stream, layer, direction, part)] = arr
    for layer in range(config.dec_layers):
        in_dim = config.dec_input_dim if layer == 0 else config.dec_hidden
        w = _gru_weights(rng, in_dim, config.dec_hidden)
        for part, arr in w.items():
            arrays["dec.l%d.%s" % (layer, part)] = arr
    out_width = config.dec_layers * config.dec_hidden
    arrays["init.w"] = _xavier(rng, config.init_width, out_width,
                               (config.init_width, out_width))
    arrays["init.b"] = np.zeros(out_width)
    arrays["attn.w"] = _xavier(rng, 2 * config.enc_hidden, config.dec_hidden,
                               (2 * config.enc_hidden, config.dec_hidden))
    hc = config.dec_hidden + 2 * config.enc_hidden
    arrays["out.w"] = _xavier(rng, hc, config.vocab_size, (hc, config.vocab_size))
    arrays["out.b"] = np.zeros(config.vocab_size)
    arrays["pgen.w"] = _xavier(rng, hc + config.dec_input_dim, 1,
                               (hc + config.dec_input_dim,))
    arrays["pgen.b"] = np.zeros(())
    return {name: T.parameter(arr) for name, arr in arrays.items()}


def params_to_arrays(params: dict) -> dict:
    return {name: p.data for name, p in params.items()}


def arrays_to_params(arrays: dict) -> dict:
    return {name: T.parameter(arr) for name, arr in arrays.items()}


# encoding ------------------------------------------------------------------

@dataclass
class EncoderOutput:
    stream: str
    per_step: "T.Tensor"          # (T, 2*enc_hidden)
    finals: list                  # per layer, each (2*enc_hidden,)
    surface: list                 # surface token strings, aligned to rows


@dataclass
class ExampleInputs:
    """Tokenized source streams for one override example."""
    example_id: str
    method_tokens: list
    sup_method_tokens: list
    sub_name_tokens: list
    sup_name_tokens: list
    sup_comment_tokens: list
    target_tokens: list

    @classmethod
    def from_example(cls, ex, mode: str) -> "ExampleInputs":
        if mode not in ("first", "full"):
            raise ValueError("mode must be 'first' or 'full', got %r" % mode)
        sub_comment = ex.sub_comment_first if mode == "first" else ex.sub_comment_full
        sup_comment = ex.sup_comment_first if mode == "first" else ex.sup_comment_full
        return cls(
            example_id=ex.id,
            method_tokens=tokenize_code(ex.sub_method_raw),
            sup_method_tokens=tokenize_code(ex.sup_method_raw),
            sub_name_tokens=subtokenize(ex.sub_class_name),
            sup_name_tokens=subtokenize(ex.sup_class_name),
            sup_comment_tokens=tokenize(sup_comment),
            target_tokens=tokenize(sub_comment),
        )

    def stream_tokens(self, stream: str) -> list:
        return getattr(self, STREAM_FIELDS[stream])


def _stream_feature_matrix(inputs: ExampleInputs, stream: str) -> np.ndarray:
    if stream == "method":
        return feats.method_stream_features(
            inputs.method_tokens, inputs.sup_method_tokens,
            inputs.sub_name_tokens, inputs.sup_name_tokens,
            inputs.sup_comment_tokens)
    if stream == "class_name":
        return feats.class_name_stream_features(
            inputs.sub_name_tokens, inputs.sup_name_tokens,
            inputs.method_tokens)
    if stream == "sup_comment":
        return feats.sup_comment_stream_features(
            inputs.sup_comment_tokens, inputs.sub_name_tokens,
            inputs.method_tokens)
    raise ValueError("unknown stream %r" % stream)


def encode_stream(token_ids, feat_matrix, stream: str, params: dict,
                  config: ModelConfig, rng, train: bool,
                  surface=None) -> EncoderOutput:
    """Embed one stream (plus projected features) and run its biGRU stack."""
    if len(token_ids) == 0:
        token_ids = [PAD_ID]
        surface = [PAD]
        if config.use_features:
            feat_matrix = np.zeros((1, config.feature_dims[stream]))
    x = T.embedding_gather(params["embed.token"], token_ids)
    if config.use_features:
        proj = T.add(T.matmul(T.const(np.asarray(feat_matrix, dtype=np.float64)),
                              params["feat_proj.%s.w" % stream]),
                     params["feat_proj.%s.b" % stream])
        x = T.concat([x, proj], axis=1)
    layer_weights = []
    for layer in range(config.enc_layers):
        layer_weights.append({
            d: {part: params["enc.%s.l%d.%s.%s" % (stream, layer, d, part)]
                for part in ("wi", "bi", "wh", "bh")}
            for d in ("f", "b")
        })
    per_step, finals = T.bigru_encode(
        x, layer_weights,
        dropout_p=config.dropout if train else 0.0, rng=rng, train=train)
    return EncoderOutput(stream=stream, per_step=per_step, finals=finals,
                         surface=list(surface) if surface is not None else None)


@dataclass
class EncodedSource:
    """Per-example encoder states plus copy bookkeeping."""
    enc: dict                     # stream -> EncoderOutput (active streams)
    h_all: "T.Tensor"             # (T_total, 2*enc_hidden)
    surface: list                 # concatenated surface tokens
    ext_ids: np.ndarray           # extended-vocabulary id per source position
    oov_list: list                # source-only tokens, first-occurrence order
    oov_index: dict               # token -> offset into oov_list
    vocab_size: int
    _attn_keys: object = None

    @property
    def ext_vocab_size(self) -> int:
        return self.vocab_size + len(self.oov_list)

    def attention_keys(self, params: dict) -> "T.Tensor":
        if self._attn_keys is None:
            self._attn_keys = T.matmul(self.h_all, params["attn.w"])
        return self._attn_keys

    def extended_id(self, token: str):
        """Vocabulary id, source-copy id, or None when unreachable."""
        i = self.oov_index.get(token)
        if i is not None:
            return self.vocab_size + i
        return None


def encode_source(inputs: ExampleInputs, vocab: Vocabulary, params: dict,
                  config: ModelConfig, rng=None, train: bool = False) -> EncodedSource:
    enc = {}
    for stream in config.active_streams():
        tokens = inputs.stream_tokens(stream)
        feat_matrix = _stream_feature_matrix(inputs, stream) if config.use_features else None
        ids = [vocab.id_of(t) for t in tokens]
        enc[stream] = encode_stream(ids, feat_matrix, stream, params, config,
                                    rng, train, surface=tokens)
    h_all = T.concat([enc[s].per_step for s in config.active_streams()], axis=0)
    surface = [t for s in config.active_streams() for t in enc[s].surface]
    ext_ids = np.zeros(len(surface), dtype=np.int64)
    oov_list: list[str] = []
    oov_index: dict[str, int] = {}
    for pos, tok in enumerate(surface):
        i = vocab.id_of(tok)
        if i == UNK_ID and tok not in RESERVED:
            if tok not in oov_index:
                oov_index[tok] = len(oov_list)
                oov_list.append(tok)
            ext_ids[pos] = len(vocab) + oov_index[tok]
        else:
            ext_ids[pos] = i
    return EncodedSource(enc=enc, h_all=h_all, surface=surface, ext_ids=ext_ids,
                         oov_list=oov_list, oov_index=oov_index,
                         vocab_size=len(vocab))


def target_extended_id(token: str, vocab: Vocabulary, src: EncodedSource):
    """Id of a gold/negative token in the extended vocabulary, else None."""
    i = vocab.id_of(token)
    if i != UNK_ID or token in RESERVED:
        return i
    return src.extended_id(token)


# decoding ------------------------------------------------------------------

@dataclass
class DecoderState:
    hidden: list                  # per layer, each (dec_hidden,) or (B, dec_hidden)

    def select(self, rows) -> "DecoderState":
        """The batched state of `rows` (indices into the batch), in that order."""
        return DecoderState(hidden=[T.embedding_gather(h, rows) for h in self.hidden])


def init_decoder(src: EncodedSource, params: dict, config: ModelConfig) -> DecoderState:
    """Project the concatenated encoder finals into per-layer initial states.

    The projection input keeps a fixed slot for every stream; an ablated
    stream contributes exact zeros in its slot.
    """
    parts = []
    for stream in feats.STREAMS:
        if stream in src.enc:
            parts.extend(src.enc[stream].finals)
        else:
            parts.append(T.const(np.zeros(config.enc_layers * 2 * config.enc_hidden)))
    full = T.concat(parts, axis=0)
    proj = T.tanh(T.add(T.matmul(full, params["init.w"]), params["init.b"]))
    hidden = [T.vec_slice(proj, layer * config.dec_hidden, (layer + 1) * config.dec_hidden)
              for layer in range(config.dec_layers)]
    return DecoderState(hidden=hidden)


def _check_level(level: int, k: int, what: str) -> None:
    if not isinstance(level, (int, np.integer)) or not 1 <= int(level) <= k:
        raise ValueError("%s level must be an integer in 1..%d, got %r" % (what, k, level))


def _decoder_inputs(ids, spec_level, coh_level, params: dict, config: ModelConfig):
    """Token embedding plus the enabled level embeddings of every id in
    `ids` (an int, or an int array of any shape) -> ids.shape + (dec_input_dim,)."""
    ids = np.asarray(ids, dtype=np.int64)
    parts = [T.embedding_gather(params["embed.token"], ids)]
    if config.use_specificity:
        _check_level(spec_level, config.k_levels, "specificity")
        parts.append(T.embedding_gather(params["embed.spec_level"],
                                        np.full(ids.shape, int(spec_level) - 1)))
    if config.use_coherence:
        _check_level(coh_level, config.k_levels, "coherence")
        parts.append(T.embedding_gather(params["embed.coh_level"],
                                        np.full(ids.shape, int(coh_level) - 1)))
    return parts[0] if len(parts) == 1 else T.concat(parts, axis=-1)


def _decoder_layers(x, hidden: list, params: dict, config: ModelConfig,
                    rng, train: bool) -> list:
    """Per-layer (T, ..., dec_hidden) states of the GRU stack run over the
    leading time axis of `x` from the initial states `hidden`; dropout
    between layers in train mode."""
    out = []
    inp = x
    for layer in range(config.dec_layers):
        weights = {part: params["dec.l%d.%s" % (layer, part)]
                   for part in ("wi", "bi", "wh", "bh")}
        h = T.gru_run(inp, hidden[layer], weights)
        out.append(h)
        inp = h
        if train and layer < config.dec_layers - 1 and config.dropout > 0:
            inp = T.dropout(inp, config.dropout, rng, train)
    return out


def _output_rows(h_top, x, src: EncodedSource, params: dict):
    """Attention, vocabulary softmax and copy mix for top-layer states
    `h_top` (..., dec_hidden) fed inputs `x` (..., dec_input_dim); every
    output keeps the leading axes.  Returns (final_dist over vocab plus
    source-only tokens, p_gen, attention weights over source positions)."""
    attn = T.softmax(T.matmul(h_top, T.transpose(src.attention_keys(params))), axis=-1)
    context = T.matmul(attn, src.h_all)          # (..., 2*enc_hidden)
    hc = T.concat([h_top, context], axis=-1)
    p_vocab = T.softmax(T.add(T.matmul(hc, params["out.w"]), params["out.b"]), axis=-1)
    p_gen = T.sigmoid(T.add(T.matmul(T.concat([hc, x], axis=-1), params["pgen.w"]),
                            params["pgen.b"]))
    gate = T.reshape(p_gen, p_gen.shape + (1,))

    gen_part = T.mul(p_vocab, gate)
    if src.oov_list:
        gen_part = T.concat([gen_part, T.const(np.zeros(p_gen.shape + (len(src.oov_list),)))],
                            axis=-1)
    copy_part = T.mul(T.scatter_sum(attn, src.ext_ids, src.ext_vocab_size),
                      T.sub(T.const(np.asarray(1.0)), gate))
    return T.add(gen_part, copy_part), p_gen, attn


def decode_step(state: DecoderState, prev_token_id, spec_level, coh_level,
                src: EncodedSource, params: dict, config: ModelConfig,
                rng=None, train: bool = False):
    """One decoder step, for one hypothesis or a batch of B.

    `prev_token_id` is an int with per-layer hidden states of shape
    (dec_hidden,), or an int array of shape (B,) with hidden states of
    shape (B, dec_hidden); every output gains the same leading axis.
    Returns (final_dist over vocab plus source-only tokens, p_gen,
    new DecoderState, attention weights over source positions).
    """
    x = _decoder_inputs(prev_token_id, spec_level, coh_level, params, config)
    hidden = [T.reshape(h, h.shape[1:]) for h in _decoder_layers(
        T.reshape(x, (1,) + x.shape), state.hidden, params, config, rng, train)]
    final_dist, p_gen, attn = _output_rows(hidden[-1], x, src, params)
    return final_dist, p_gen, DecoderState(hidden=hidden), attn


# the -log floor for gold tokens that neither the vocabulary nor the
# copy mechanism can reach
UNREACHABLE_NLL = -float(np.log(1e-10))
PROB_FLOOR = 1e-10


def _teacher_forced(src: EncodedSource, tokens: list, spec_level, coh_level,
                    vocab: Vocabulary, params: dict, config: ModelConfig, rng, train):
    """(probability of each reachable target, number of unreachable ones)
    over the nonempty `tokens`, the decoder fed the previous gold token
    (UNK outside the vocabulary) at each step.  A None token stands for
    EOS.  Every decoder layer runs over the whole gold prefix at once."""
    prev = [BOS_ID] + [vocab.id_of(tok) for tok in tokens[:-1]]
    x = _decoder_inputs(prev, spec_level, coh_level, params, config)
    hidden = _decoder_layers(x, init_decoder(src, params, config).hidden, params,
                             config, rng, train)
    final_dist, _, _ = _output_rows(hidden[-1], x, src, params)   # (T, W)
    width = final_dist.shape[1]
    targets = [EOS_ID if tok is None else target_extended_id(tok, vocab, src)
               for tok in tokens]
    flat = [step * width + t for step, t in enumerate(targets) if t is not None]
    picked = T.embedding_gather(T.reshape(final_dist, (-1,)), flat)
    return picked, len(targets) - len(flat)


def forward_nll(src: EncodedSource, target_tokens: list, spec_level, coh_level,
                vocab: Vocabulary, params: dict, config: ModelConfig,
                rng=None, train: bool = False):
    """Teacher-forced negative log likelihood of the gold comment plus EOS."""
    p, unreachable = _teacher_forced(
        src, list(target_tokens) + [None], spec_level, coh_level, vocab,
        params, config, rng, train)
    # EOS is always reachable, so p is never empty
    total = T.sub(T.const(np.asarray(0.0)), T.tsum(T.log(T.clamp_min(p, PROB_FLOOR))))
    if unreachable:
        total = T.add(total, T.const(np.asarray(unreachable * UNREACHABLE_NLL)))
    return total


def forward_unlikelihood(src: EncodedSource, negative_tokens: list, spec_level,
                         coh_level, vocab: Vocabulary, params: dict,
                         config: ModelConfig, rng=None, train: bool = False):
    """Teacher-forced sum of -log(1 - p) over the negative sequence.

    No EOS step: the negative states only which token prefixes should
    become less likely.  A negative token the model cannot produce at
    all contributes exactly zero.
    """
    total = T.const(np.asarray(0.0))
    if not negative_tokens:
        return total
    p, _ = _teacher_forced(src, list(negative_tokens), spec_level, coh_level, vocab,
                           params, config, rng, train)
    if p.shape[0] == 0:
        return total
    comp = T.clamp_min(T.sub(T.const(np.asarray(1.0)), p), PROB_FLOOR)
    return T.sub(total, T.tsum(T.log(comp)))


# beam search -----------------------------------------------------------------

def beam_search(step_fn, bos_id: int, eos_id: int, beam_size: int,
                max_len: int, min_len: int = 1):
    """Length-normalized beam search over a batched step function.

    `step_fn(state, prev_ids)` steps every live hypothesis at once:
    `prev_ids` is an int array of shape (B,) and the result is
    `(log_probs, new_state)` with `log_probs` of shape (B, W) over the
    output alphabet.  The initial state is None (B = 1, prev BOS);
    afterwards `new_state.select(rows)` must give the state of those
    rows, in that order.  Each step keeps the `beam_size` best of the
    B x W extensions, ties going to the lower (hypothesis, token) index.
    A hypothesis ends at EOS (the EOS step counts toward its length) or
    at max_len.  The returned pair is (token ids without EOS,
    score = logp / steps).  EOS is masked until `min_len` content tokens
    have been emitted.
    """
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    state = None
    last = np.array([bos_id], dtype=np.int64)
    logp = np.zeros(1)
    tokens = [()]                 # per live hypothesis; all have taken `step` steps
    finished = []                 # (tokens, score) in the order they ended
    for step in range(max_len):
        log_probs, new_state = step_fn(state, last)
        if np.ndim(log_probs) != 2 or len(log_probs) != len(last):
            raise ValueError("step_fn must return log-probs of shape (%d, W), got %r"
                             % (len(last), np.shape(log_probs)))
        cand = logp[:, None] + np.asarray(log_probs, dtype=np.float64)
        if step < min_len:
            cand[:, eos_id] = -np.inf
        width = cand.shape[1]
        flat = cand.ravel()
        neg = -flat
        neg[np.isnan(neg)] = np.inf       # NaN ranks last, as in a full sort
        k = min(beam_size, flat.size)
        kth = neg[np.argpartition(neg, k - 1)[k - 1]]
        top = np.flatnonzero(neg <= kth)  # every candidate tied with the k-th too
        top = top[np.argsort(neg[top], kind="stable")[:k]]
        top = top[np.isfinite(flat[top])]
        parent, token = np.divmod(top, width)
        ended = token == eos_id
        for i in np.flatnonzero(ended):
            finished.append((tokens[parent[i]], flat[top[i]] / (step + 1)))
        keep = ~ended
        tokens = [tokens[p] + (int(t),) for p, t in zip(parent[keep], token[keep])]
        if not tokens:
            break
        logp, last = flat[top[keep]], token[keep]
        state = new_state.select(parent[keep])
    finished.extend(zip(tokens, logp / max_len))
    if not finished:
        return [], -np.inf
    best_tokens, best_score = max(finished, key=lambda f: f[1])
    return list(best_tokens), float(best_score)


def generate(inputs: ExampleInputs, vocab: Vocabulary, params: dict,
             config: ModelConfig, beam_size: int = 20, max_len: int = 30,
             spec_level=None, coh_level=None, min_len: int = 1) -> list:
    """Beam-decode one example into surface tokens (copies included)."""
    spec = config.k_levels if spec_level is None else spec_level
    coh = config.k_levels if coh_level is None else coh_level
    with T.no_grad():
        src = encode_source(inputs, vocab, params, config, rng=None, train=False)
        state0 = init_decoder(src, params, config)
        start = DecoderState(hidden=[T.reshape(h, (1, -1)) for h in state0.hidden])

        def step(state, prev_ids):
            # copied source-only tokens have no embedding row; feed UNK
            prev = np.where(prev_ids < len(vocab), prev_ids, UNK_ID)
            final_dist, _, new_state, _ = decode_step(
                start if state is None else state, prev, spec, coh, src, params,
                config, rng=None, train=False)
            return np.log(np.maximum(final_dist.data, 1e-300)), new_state

        ids, _ = beam_search(step, BOS_ID, EOS_ID, beam_size, max_len,
                             min_len=min_len)
    out = []
    for i in ids:
        if i < len(vocab):
            out.append(vocab.token_of(i))
        else:
            out.append(src.oov_list[i - len(vocab)])
    return out
