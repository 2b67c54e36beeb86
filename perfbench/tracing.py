"""Outside-in tracing of the hiercomment modules.

`Tracer.install()` replaces public functions of the package with wrappers
that record spans (name, start, end, parent span, run id) and counts;
`uninstall()` puts the originals back.  A function is patched under every
name any hiercomment module binds it to, because several modules import
functions by name (`training` binds `encode_source`, `cli` binds
`build_vocab`, and so on).

Two kinds of wrapper exist.  A span wrapper keeps one span per call.  A
leaf wrapper is for functions called up to millions of times (tensor ops,
tokenizers, per-example metrics): it keeps no span, only time and call
totals per name and per enclosing span, which `self_times` subtracts from
that span's duration.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

_perf = time.perf_counter

TENSOR_OPS = ("add", "sub", "mul", "matmul", "sigmoid", "tanh", "relu", "log",
              "clamp_min", "softmax", "concat", "stack_rows", "row", "vec_slice",
              "gather_scalar", "embedding_gather", "scatter_sum", "dropout", "tsum",
              "gru_step")

# (module, attribute, metric name); a dotted attribute is a class method
SPANS = [
    ("cli", "cmd_mine", "cli.mine"), ("cli", "cmd_split", "cli.split"),
    ("cli", "cmd_fit", "cli.fit"), ("cli", "cmd_train", "cli.train"),
    ("cli", "cmd_generate", "cli.generate"), ("cli", "cmd_baseline", "cli.baseline"),
    ("cli", "cmd_eval", "cli.eval"), ("cli", "cmd_compare", "cli.compare"),
    ("corpus", "mine_tree", "corpus.mine_tree"),
    ("corpus", "link_overrides", "corpus.link_overrides"),
    ("corpus", "filter_examples", "corpus.filter_examples"),
    ("corpus", "read_examples", "corpus.read_examples"),
    ("corpus", "write_examples", "corpus.write_examples"),
    ("corpus", "partition_by_project", "corpus.partition_by_project"),
    ("text", "build_vocab", "text.build_vocab"),
    ("features", "train_static_embeddings", "features.train_static_embeddings"),
    ("features", "FeatureArtifacts.save", "features.FeatureArtifacts.save"),
    ("features", "FeatureArtifacts.load", "features.FeatureArtifacts.load"),
    ("training", "train", "training.train"),
    ("training", "fit_artifacts", "training.fit_artifacts"),
    ("training", "assign_levels", "training.assign_levels"),
    ("model", "encode_source", "model.encode_source"),
    ("model", "forward_nll", "model.forward_nll"),
    ("model", "forward_unlikelihood", "model.forward_unlikelihood"),
    ("model", "decode_step", "model.decode_step"),
    ("model", "beam_search", "model.beam_search"),
    ("model", "generate", "model.generate"),
    ("tensor", "Tensor.backward", "tensor.backward"),
    ("tensor", "AdamState.step", "tensor.AdamState.step"),
    ("tensor", "save_checkpoint", "tensor.save_checkpoint"),
    ("tensor", "load_checkpoint", "tensor.load_checkpoint"),
    ("metrics", "bootstrap_test", "metrics.bootstrap_test"),
    ("metrics", "wilcoxon_signed_rank", "metrics.wilcoxon_signed_rank"),
]
LEAVES = [
    ("corpus", "parse_java_file", "corpus.parse_java_file"),
    ("text", "tokenize", "text.tokenize"), ("text", "tokenize_code", "text.tokenize"),
    ("text", "tokenize_comment", "text.tokenize"), ("text", "subtokenize", "text.tokenize"),
    ("features", "coherence", "features.coherence"),
    ("features", "method_stream_features", "features.stream_features"),
    ("features", "class_name_stream_features", "features.stream_features"),
    ("features", "sup_comment_stream_features", "features.stream_features"),
    ("training", "make_negative", "training.make_negative"),
    ("metrics", "bleu4", "metrics.bleu4"), ("metrics", "meteor", "metrics.meteor"),
    ("metrics", "rouge_l", "metrics.rouge_l"),
    ("baselines", "copy_baseline", "baselines.copy_baseline"),
    ("baselines", "class_name_substitution", "baselines.class_name_substitution"),
] + [("tensor", op, "tensor." + op) for op in TENSOR_OPS]

ROOT = -1


class Tracer:
    """Spans, leaf totals and counts of one traced run, kept in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []                      # [id, name, start, end, parent]
        self.leaf_time = defaultdict(float)  # name -> seconds
        self.leaf_calls = defaultdict(int)   # name -> calls
        self.leaf_by_parent = defaultdict(float)  # span id -> leaf seconds inside
        self.counts = defaultdict(int)
        self.samples = defaultdict(list)     # name -> list of values
        self._stack = []
        self._in_leaf = False
        self._beam_steps = 0
        self._patched = []
        self._tensor = None

    # recording ------------------------------------------------------------

    def _open(self, name: str) -> list:
        rec = [len(self.spans), name, _perf(), None,
               self._stack[-1][0] if self._stack else ROOT]
        self.spans.append(rec)
        self._stack.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = _perf()
        self._stack.pop()

    def span_wrapper(self, name: str, fn, post=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if post is not None:
                post(self, args, kwargs, out)
            return out
        return wrapper

    def leaf_wrapper(self, name: str, fn, count_tape: bool = False):
        tensor = self._tensor

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._in_leaf:
                return fn(*args, **kwargs)
            self._in_leaf = True
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                self._in_leaf = False
                self.leaf_time[name] += dt
                self.leaf_calls[name] += 1
                self.leaf_by_parent[self._stack[-1][0] if self._stack else ROOT] += dt
                if count_tape and tensor._GRAD_ENABLED:
                    self.counts["tensor.ops.calls"] += 1
        return wrapper

    # patching -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target under every binding in the hiercomment modules."""
        mods = {name: sys.modules["hiercomment." + name]
                for name in ("cli", "corpus", "text", "features", "tensor", "model",
                             "training", "baselines", "metrics")}
        self._tensor = mods["tensor"]
        hooks = {"training.train": _after_train,
                 "corpus.filter_examples": _after_filter,
                 "features.train_static_embeddings": _after_embeddings}
        for mod_name, attr, name in SPANS:
            if name == "model.beam_search":
                wrapper = self._beam_search_wrapper(getattr(mods[mod_name], attr))
                self._patch_everywhere(mods, getattr(mods[mod_name], attr), wrapper)
            elif "." in attr:
                self._patch_method(mods[mod_name], attr, name)
            else:
                fn = getattr(mods[mod_name], attr)
                self._patch_everywhere(mods, fn, self.span_wrapper(name, fn, hooks.get(name)))
        for mod_name, attr, name in LEAVES:
            fn = getattr(mods[mod_name], attr)
            self._patch_everywhere(mods, fn, self.leaf_wrapper(
                name, fn, count_tape=mod_name == "tensor"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    def _patch_everywhere(self, mods: dict, fn, wrapper) -> None:
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, mod, dotted: str, name: str) -> None:
        cls_name, meth = dotted.split(".")
        cls = getattr(mod, cls_name)
        raw = cls.__dict__[meth]
        self._patched.append((cls, meth, raw))
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(self.span_wrapper(name, raw.__func__)))
        else:
            setattr(cls, meth, self.span_wrapper(name, raw))

    def _beam_search_wrapper(self, fn):
        """Time `step_fn` as a child span so selection shows as self time."""
        def traced_step(step_fn):
            def step(state, prev_id):
                rec = self._open("model.beam_search.step_fn")
                try:
                    log_probs, new_state = step_fn(state, prev_id)
                finally:
                    self._close(rec)
                self.counts["model.beam_search.step_fn_calls"] += 1
                self._beam_steps = max(self._beam_steps, getattr(new_state, "t", 0))
                return log_probs, new_state
            return step

        @functools.wraps(fn)
        def wrapper(step_fn, *args, **kwargs):
            self._beam_steps = 0
            rec = self._open("model.beam_search")
            try:
                return fn(traced_step(step_fn), *args, **kwargs)
            finally:
                self._close(rec)
                self.counts["model.beam_search.steps"] += self._beam_steps
        return wrapper


def _after_train(tracer, args, kwargs, result) -> None:
    tracer.samples["training.epoch_s"].extend(e.seconds for e in result.log)


def _after_filter(tracer, args, kwargs, result) -> None:
    tracer.counts["corpus.override_pairs"] += len(args[0])
    tracer.counts["corpus.examples"] += len(result)


def _after_embeddings(tracer, args, kwargs, result) -> None:
    tracer.samples["features.train_static_embeddings.n"].append(len(result.tokens))


# arithmetic over recorded spans ---------------------------------------------

def self_times(spans: list, leaf_by_parent: dict) -> dict:
    """Span id -> duration minus its child spans and the leaf calls inside it.

    `spans` holds [id, name, start, end, parent] records of one call stack,
    so child spans never overlap each other.
    """
    out = {sid: (end - start) - leaf_by_parent.get(sid, 0.0)
           for sid, _, start, end, _ in spans}
    for _, _, start, end, parent in spans:
        if parent != ROOT:
            out[parent] -= end - start
    return out


def busy_time(spans: list, name: str) -> float:
    """Total time of the spans called `name` (a call stack never nests a
    target inside itself)."""
    return sum(e - s for _, n, s, e, _ in spans if n == name)


def percentile_report(values: list) -> dict:
    """Median, maximum, sample count and the highest of p75/p90/p99/p99.9
    that has at least ten samples beyond it (None when none does)."""
    vals = sorted(values)
    n = len(vals)
    if n == 0:
        return {"count": 0, "p50": None, "max": None, "tail": None}
    tail = None
    for q in (99.9, 99.0, 90.0, 75.0):
        rank = math.ceil(q * n / 100.0 - 1e-9)   # 1-based nearest-rank
        if n - rank >= 10:
            tail = {"percentile": q, "value": vals[rank - 1]}
            break
    mid = n // 2
    p50 = vals[mid] if n % 2 else 0.5 * (vals[mid - 1] + vals[mid])
    return {"count": n, "p50": p50, "max": vals[-1], "tail": tail}


def span_records(tracer: Tracer) -> list:
    """Spans as plain dicts for the trace file."""
    return [{"id": sid, "name": name, "start": start, "end": end,
             "parent": parent, "run": tracer.run_id}
            for sid, name, start, end, parent in tracer.spans]


# per-layer metrics ------------------------------------------------------------

_BUSY = ("cli.mine", "cli.split", "cli.fit", "cli.train", "cli.generate",
         "cli.baseline", "cli.eval", "cli.compare",
         "corpus.link_overrides", "corpus.filter_examples", "corpus.read_examples",
         "corpus.write_examples", "corpus.partition_by_project", "text.build_vocab",
         "features.train_static_embeddings", "features.FeatureArtifacts.save",
         "features.FeatureArtifacts.load", "training.fit_artifacts",
         "training.assign_levels", "model.encode_source", "model.decode_step",
         "tensor.backward", "tensor.AdamState.step", "tensor.save_checkpoint",
         "tensor.load_checkpoint", "metrics.bootstrap_test",
         "metrics.wilcoxon_signed_rank")
_SELF = ("training.train", "model.forward_nll", "model.forward_unlikelihood",
         "model.beam_search")
_SPAN_CALLS = ("model.encode_source", "model.decode_step", "tensor.backward")
_LEAF_TIME = ("corpus.parse_java_file", "text.tokenize", "features.coherence",
              "features.stream_features", "training.make_negative", "metrics.meteor",
              "metrics.bleu4", "metrics.rouge_l", "baselines.copy_baseline",
              "baselines.class_name_substitution") + tuple(
    "tensor." + op for op in ("matmul", "gru_step", "softmax", "scatter_sum",
                              "concat", "row", "embedding_gather"))
_LEAF_CALLS = ("corpus.parse_java_file", "text.tokenize", "features.coherence",
               "features.stream_features", "metrics.meteor", "metrics.bleu4",
               "metrics.rouge_l") + tuple(
    "tensor." + op for op in ("matmul", "gru_step", "softmax", "scatter_sum",
                              "concat", "row", "embedding_gather"))

LAYER_METRICS = (
    [(n + ".s", "s") for n in _BUSY]
    + [(n + ".self_s", "s") for n in _SELF]
    + [(n + ".calls", "count") for n in _SPAN_CALLS]
    + [(n + ".s", "s") for n in _LEAF_TIME]
    + [(n + ".calls", "count") for n in _LEAF_CALLS]
    + [("tensor.ops.calls", "count"), ("model.beam_search.steps", "count"),
       ("model.beam_search.step_fn_calls", "count"), ("corpus.yield", "ratio"),
       ("features.train_static_embeddings.n", "count"), ("features.ppmi_bytes", "bytes"),
       ("training.epoch_s.p50", "s"), ("training.epoch_s.max", "s"),
       ("model.generate.p50_s", "s"), ("model.generate.max_s", "s"),
       ("model.generate.count", "count"), ("trace.spans", "count"),
       ("trace.overhead_s", "s"), ("trace.overhead_share", "ratio")]
)


def layer_metrics(tracer: Tracer, overhead_s: float, untraced_s: float) -> dict:
    """Every per-layer metric of one traced pass, as {name: (value, unit)}."""
    spans = tracer.spans
    selfs = self_times(spans, tracer.leaf_by_parent)
    out = {}
    for name in _BUSY:
        out[name + ".s"] = busy_time(spans, name)
    for name in _SELF:
        out[name + ".self_s"] = sum(selfs[s[0]] for s in spans if s[1] == name)
    for name in _SPAN_CALLS:
        out[name + ".calls"] = sum(1 for s in spans if s[1] == name)
    for name in _LEAF_TIME:
        out[name + ".s"] = tracer.leaf_time.get(name, 0.0)
    for name in _LEAF_CALLS:
        out[name + ".calls"] = tracer.leaf_calls.get(name, 0)
    for name in ("tensor.ops.calls", "model.beam_search.steps",
                 "model.beam_search.step_fn_calls"):
        out[name] = tracer.counts.get(name, 0)
    pairs = tracer.counts.get("corpus.override_pairs", 0)
    out["corpus.yield"] = tracer.counts.get("corpus.examples", 0) / pairs if pairs else 0.0
    sizes = tracer.samples.get("features.train_static_embeddings.n", [])
    out["features.train_static_embeddings.n"] = max(sizes, default=0)
    out["features.ppmi_bytes"] = max(sizes, default=0) ** 2 * 8
    epochs = percentile_report(tracer.samples.get("training.epoch_s", []))
    out["training.epoch_s.p50"] = epochs["p50"] or 0.0
    out["training.epoch_s.max"] = epochs["max"] or 0.0
    gen = percentile_report([e - s for _, n, s, e, _ in spans if n == "model.generate"])
    out["model.generate.p50_s"] = gen["p50"] or 0.0
    out["model.generate.max_s"] = gen["max"] or 0.0
    out["model.generate.count"] = gen["count"]
    out["trace.spans"] = len(spans)
    out["trace.overhead_s"] = overhead_s
    out["trace.overhead_share"] = overhead_s / untraced_s if untraced_s else 0.0
    units = dict(LAYER_METRICS)
    return {name: (out[name], units[name]) for name, _ in LAYER_METRICS}
