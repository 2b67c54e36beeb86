"""The three benchmark workloads and the command sequence they share.

Every workload runs the whole command loop of the README in one process,
closed loop, one command after the other: mine, split, fit, train,
generate, both baselines, three evals and two compares.  The workloads
differ in their inputs and sizes, so a different stage dominates each:

- toy-pipeline: the bundled 64-pair corpus at `configs/toy.json` dims and
  one epoch, decoding every mined example; `train` and `generate` take
  nearly all of the time.
- paper-dims: a generated tree whose example pool yields a V=10,000
  vocabulary, the paper's model dims and beam 20.  The vocabulary and an
  untrained seeded checkpoint are built in set-up; the pass fits features
  on a slice of the training split, trains on a smaller slice, and
  decodes the test slice from the set-up checkpoint, whose untrained
  weights emit almost no EOS, so decode work does not depend on training.
- corpus-scale: a generated tree of ~1,500 files with ~6,000 distinct
  tokens, so the PPMI fit reaches its 5,000-token cap; the neural stage is
  a toy-dims model on a small slice.

toy-pipeline and corpus-scale score the baselines on every mined example;
paper-dims scores them on its whole test split.
"""

from __future__ import annotations

import contextlib
import copy
import gc
import hashlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import asdict, dataclass, field

import javagen
from hiercomment.cli import _vocab_sequences

_perf = time.perf_counter

TOY_CORPUS = os.path.join("data", "toy_java")
PAPER_VOCAB_SIZE = 10000

# configs/toy.json, frozen here so the workload stays fixed if the file changes
_TOY_CONFIG = {
    "corpus": {"mode": "first", "ratios": [0.8, 0.1, 0.1], "seed": 0},
    "text": {"vocab_cap": 10000, "min_freq": 2},
    "features": {"k_levels": 3, "embed_dim": 32, "window": 5, "seed": 0},
    "model": {"embed_dim": 32, "enc_hidden": 32, "dec_hidden": 64,
              "level_embed_dim": 8, "feature_proj_dim": 8},
    "training": {"learning_rate": 0.001, "dropout": 0.3, "batch_size": 16,
                 "patience": 10, "max_epochs": 40, "seed": 0},
    "eval": {"beam_size": 5, "max_len": 30, "bootstrap_n": 10000, "seed": 0},
}


def _config(base: dict, **sections) -> dict:
    cfg = copy.deepcopy(base)
    for section, values in sections.items():
        cfg[section].update(values)
    return cfg


@dataclass(frozen=True)
class Workload:
    name: str
    tree: object                # javagen.TreeSpec, or None for the bundled corpus
    config: dict                # run config written for fit and train
    fit_slice: int | None       # train-split examples `fit` reads (None: all)
    neural_slice: tuple | None  # (train, valid, test) examples for train/generate
    beam: int
    max_len: int
    baselines_on_all: bool      # baselines on every mined example, else the test split
    paper_vocab: int | None     # fixed vocabulary size built in set-up
    split_seed: int | None = None  # fixed `split --seed` (None: the run's seed)
    decode_all: bool = False    # generate for every mined example, not the test split
    setup_repeats: int = 3


def workloads(smoke: bool = False) -> dict:
    """Workload definitions; `smoke` shrinks every size for a quick check."""
    # the bundled corpus has only ten projects, so the split is fixed: a
    # seeded split would move test-set size 2x and valid_nll by 10% between
    # seeds, which is input variance rather than speed; the run's seed still
    # drives training
    toy = Workload(
        name="toy-pipeline", tree=None,
        config=_config(_TOY_CONFIG, training={"max_epochs": 1}),
        fit_slice=None, neural_slice=None, beam=5, max_len=8 if smoke else 30,
        baselines_on_all=True, paper_vocab=None, split_seed=0, decode_all=True,
        setup_repeats=2 if smoke else 3)
    # quantile bins need k distinct specificity values in the fitted
    # examples; the smoke tree is too small for the paper's k=5
    k = 3 if smoke else 5
    paper = Workload(
        name="paper-dims", tree=javagen.SMOKE if smoke else javagen.PAPER_DIMS,
        config=_config(_TOY_CONFIG,
                       features={"k_levels": k, "embed_dim": 64},
                       training={"dropout": 0.7, "batch_size": 4, "max_epochs": 1},
                       model={"embed_dim": 64, "enc_hidden": 64, "dec_hidden": 128,
                              "enc_layers": 2, "dec_layers": 2, "k_levels": k,
                              "level_embed_dim": 32, "feature_proj_dim": 16}),
        fit_slice=None if smoke else 64,
        neural_slice=(2, 2, 2) if smoke else (8, 8, 4),
        beam=20, max_len=5 if smoke else 30, baselines_on_all=False,
        paper_vocab=None if smoke else PAPER_VOCAB_SIZE, setup_repeats=2)
    corpus = Workload(
        name="corpus-scale", tree=javagen.SMOKE if smoke else javagen.CORPUS_SCALE,
        config=_config(_TOY_CONFIG,
                       features={"k_levels": k, "embed_dim": 64},
                       training={"max_epochs": 1}),
        fit_slice=None, neural_slice=(4, 2, 2) if smoke else (16, 16, 16),
        beam=5, max_len=8 if smoke else 30, baselines_on_all=True, paper_vocab=None,
        setup_repeats=2 if smoke else 3)
    return {w.name: w for w in (toy, paper, corpus)}


# --------------------------------------------------------------------- set-up

@dataclass
class Setup:
    root: str
    tree_dir: str
    config_path: str
    vocab_json: str | None = None    # paper-dims: fixed vocabulary
    setup_ckpt: str | None = None    # paper-dims: untrained seeded checkpoint
    info: dict = field(default_factory=dict)
    digest: str = ""
    write_s: float = 0.0             # time spent creating the tree's files


def _tree_digest(path: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for fn in sorted(filenames):
            full = os.path.join(dirpath, fn)
            h.update(os.path.relpath(full, path).encode())
            with open(full, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _stream_stats(inputs: list, vocab) -> dict:
    n = max(len(inputs), 1)
    src = [t for ex in inputs for s in (ex.method_tokens, ex.sub_name_tokens,
                                        ex.sup_comment_tokens) for t in s]
    return {
        "mean_method_len": sum(len(ex.method_tokens) for ex in inputs) / n,
        "mean_sup_comment_len": sum(len(ex.sup_comment_tokens) for ex in inputs) / n,
        "mean_target_len": sum(len(ex.target_tokens) for ex in inputs) / n,
        "distinct_tokens": len({t for s in _vocab_sequences(inputs) for t in s}),
        "source_oov_share": sum(1 for t in src if t not in vocab) / max(len(src), 1),
    }


def build_setup(w: Workload, seed: int, root: str) -> Setup:
    """Generate this workload's inputs under `root` (created)."""
    from hiercomment import corpus as C
    from hiercomment import model as M
    from hiercomment import training as TR
    from hiercomment.text import build_vocab

    os.makedirs(root)
    config_path = os.path.join(root, "config.json")
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(w.config, fh, indent=2, sort_keys=True)
    write_s = 0.0
    if w.tree is None:
        tree_dir = TOY_CORPUS
        info = {"java_files": _count_java(tree_dir)}
    else:
        tree_dir = os.path.join(root, "tree")
        files, manifest = javagen.generate_tree(w.tree, seed)
        t0 = _perf()
        javagen.write_files(tree_dir, files)
        write_s = _perf() - t0
        info = asdict(manifest)
    setup = Setup(root=root, tree_dir=tree_dir, config_path=config_path, info=info,
                  write_s=write_s)
    if w.name == "paper-dims":
        examples = C.filter_examples(C.mine_tree(tree_dir))
        inputs = [M.ExampleInputs.from_example(ex, "first") for ex in examples]
        cap = (w.paper_vocab - 4) if w.paper_vocab else 10000
        vocab = build_vocab(_vocab_sequences(inputs), cap=cap, min_freq=2)
        if w.paper_vocab is not None and len(vocab) != w.paper_vocab:
            raise RuntimeError("paper-dims pool gives V=%d, expected %d"
                               % (len(vocab), w.paper_vocab))
        setup.vocab_json = vocab.to_json()
        mcfg = M.ModelConfig(vocab_size=len(vocab), **w.config["model"])
        params = M.init_params(mcfg, seed=seed)
        setup.setup_ckpt = os.path.join(root, "setup.ckpt")
        TR.save_train_checkpoint(setup.setup_ckpt, M.params_to_arrays(params), mcfg,
                                 vocab, extra={"mode": "first"})
        info.update({"pool_examples": len(inputs), "vocab_size": len(vocab)},
                    **_stream_stats(inputs, vocab))
    setup.digest = _tree_digest(root) if w.tree is not None else ""
    return setup


def _count_java(path: str) -> int:
    return sum(1 for _, _, files in os.walk(path) for f in files if f.endswith(".java"))


# ------------------------------------------------------------------ the pass

@dataclass
class PassResult:
    seconds: float                         # wall time of the pass
    stage_s: dict                          # command label -> seconds
    metrics: dict                          # end-to-end values of this pass
    hashes: dict                           # output file -> sha256
    attempted: int = 0
    failures: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def pipeline_s(self) -> float:
        """The command sequence's time: the sum of its commands' times."""
        return sum(self.stage_s.values())


def _sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class _Runner:
    """Runs CLI commands in-process, timing each and counting failures."""

    def __init__(self, result: PassResult, tracer=None):
        self.result = result
        self.tracer = tracer

    def __call__(self, label: str, argv: list, env: dict | None = None) -> bool:
        from hiercomment import cli
        saved = {k: os.environ.get(k) for k in (env or {})}
        os.environ.update(env or {})
        err = io.StringIO()
        # garbage left by earlier commands (training leaves millions of
        # objects) would otherwise be collected inside whichever command
        # happens to cross the collector's threshold
        gc.collect()
        # only the command is traced, not the glue and checks around it
        if self.tracer is not None:
            self.tracer.install()
        t0 = _perf()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            dt = _perf() - t0
            if self.tracer is not None:
                self.tracer.uninstall()
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        self.result.stage_s[label] = self.result.stage_s.get(label, 0.0) + dt
        self.result.attempted += 1
        if code != 0:
            self.result.failures.append("%s exited %s: %s"
                                        % (label, code, err.getvalue().strip()[:300]))
            return False
        return True


def _write_slice(src: str, dst: str, n: int | None) -> list:
    from hiercomment import corpus as C
    examples = C.read_examples(src)
    if n is not None:
        examples = examples[:n]
    C.write_examples(dst, examples)
    return examples


def run_pass(w: Workload, setup: Setup, seed: int, work: str, tracer=None) -> PassResult:
    """One pass of the command sequence in a fresh directory `work`; with a
    `tracing.Tracer`, each command runs traced."""
    os.makedirs(work)
    result = PassResult(seconds=0.0, stage_s={}, metrics={}, hashes={})
    run = _Runner(result, tracer)
    p = lambda *parts: os.path.join(work, *parts)  # noqa: E731
    split_dir, neural, art, ckpt = p("split"), p("neural"), p("artifacts"), p("ckpt")

    t0 = _perf()
    ok = run("mine", ["mine", setup.tree_dir, p("mined.jsonl")])
    split_seed = seed if w.split_seed is None else w.split_seed
    ok = ok and run("split", ["split", p("mined.jsonl"), split_dir, "--seed", str(split_seed)])
    if not ok:
        result.seconds = _perf() - t0
        return result
    # glue between commands: slices of the split for fit and the neural stage
    os.makedirs(neural)
    n_tr, n_va, n_te = w.neural_slice or (None, None, None)
    train_ex = _write_slice(p("split", "train.jsonl"), p("neural", "train.jsonl"), n_tr)
    _write_slice(p("split", "valid.jsonl"), p("neural", "valid.jsonl"), n_va)
    test_src = p("mined.jsonl") if w.decode_all else p("split", "test.jsonl")
    test_ex = _write_slice(test_src, p("neural", "test.jsonl"), n_te)
    fit_input = p("split", "train.jsonl")
    if w.fit_slice is not None:
        fit_input = p("fit.jsonl")
        _write_slice(p("split", "train.jsonl"), fit_input, w.fit_slice)
    eval_gold = p("mined.jsonl") if w.baselines_on_all else p("split", "test.jsonl")

    ok = run("fit", ["fit", fit_input, art, "--config", setup.config_path,
                     "--seed", str(seed)])
    if ok and setup.vocab_json is not None:
        with open(os.path.join(art, "vocab.json"), "w", encoding="utf-8") as fh:
            fh.write(setup.vocab_json + "\n")
    ok = ok and run("train", ["train", setup.config_path, neural, ckpt, "--seed", str(seed)],
                    env={"HIERCOMMENT_ARTIFACTS_DIR": art})
    gen_ckpt = setup.setup_ckpt or os.path.join(ckpt, "full.ckpt")
    ok = ok and run("generate", ["generate", gen_ckpt, p("neural", "test.jsonl"),
                                 p("preds.jsonl"), "--beam", str(w.beam),
                                 "--max-len", str(w.max_len)])
    ok = ok and run("baseline", ["baseline", eval_gold, p("copy.jsonl"), "--which", "copy"])
    ok = ok and run("baseline", ["baseline", eval_gold, p("classsub.jsonl"),
                                 "--which", "classsub"])
    ok = ok and run("eval", ["eval", p("preds.jsonl"), p("neural", "test.jsonl"),
                             p("model_report.json")])
    ok = ok and run("eval", ["eval", p("copy.jsonl"), eval_gold, p("copy_report.json")])
    ok = ok and run("eval", ["eval", p("classsub.jsonl"), eval_gold,
                             p("classsub_report.json")])
    ok = ok and run("compare", ["compare", p("copy_report.json"), p("classsub_report.json"),
                                "--out", p("compare_bootstrap.json")])
    ok = ok and run("compare", ["compare", p("copy_report.json"), p("classsub_report.json"),
                                "--test", "wilcoxon", "--out", p("compare_wilcoxon.json")])
    result.seconds = _perf() - t0
    if not ok:
        return result

    for rel in ("mined.jsonl", "split/train.jsonl", "split/valid.jsonl", "split/test.jsonl",
                "split/split_assignment.json", "artifacts/features.bin",
                "artifacts/vocab.json", "ckpt/full.ckpt", "ckpt/full.log.json",
                "preds.jsonl", "copy.jsonl", "classsub.jsonl", "model_report.json",
                "copy_report.json", "classsub_report.json", "compare_bootstrap.json",
                "compare_wilcoxon.json"):
        result.hashes[rel] = _sha(p(*rel.split("/")))
    _check_outputs(w, setup, work, result, train_ex, test_ex, eval_gold, gen_ckpt)
    result.metrics = _pass_metrics(w, setup, work, result, train_ex, test_ex, eval_gold)
    return result


# ------------------------------------------------------------------- checks

def _check(result: PassResult, name: str, fn) -> None:
    result.attempted += 1
    try:
        problem = fn()
    except Exception as e:  # a crashing check is a failed check
        problem = "%s: %r" % (type(e).__name__, e)
    if problem:
        result.failures.append("check %s: %s" % (name, problem))


def _pred_ids(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line)["id"] for line in fh if line.strip()]


def _check_outputs(w, setup, work, result, train_ex, test_ex, eval_gold, gen_ckpt) -> None:
    from hiercomment import corpus as C
    from hiercomment import model as M
    from hiercomment import tensor as T
    from hiercomment import training as TR
    from hiercomment.text import BOS_ID, tokenize

    p = lambda *parts: os.path.join(work, *parts)  # noqa: E731
    gold = C.read_examples(eval_gold)

    def preds_cover():
        want = sorted(ex.id for ex in test_ex)
        if sorted(_pred_ids(p("preds.jsonl"))) != want:
            return "model predictions do not cover exactly the test ids"
        gold_ids = sorted(ex.id for ex in gold)
        for name in ("copy.jsonl", "classsub.jsonl"):
            if sorted(_pred_ids(p(name))) != gold_ids:
                return "%s does not cover exactly the gold ids" % name
        return None

    def split_disjoint():
        with open(p("split", "split_assignment.json"), encoding="utf-8") as fh:
            assignment = json.load(fh)
        seen = {}
        for part in ("train", "valid", "test"):
            for ex in C.read_examples(p("split", part + ".jsonl")):
                if seen.setdefault(ex.project_id, part) != part:
                    return "project %s in %s and %s" % (ex.project_id, seen[ex.project_id], part)
                if assignment.get(ex.project_id) != part:
                    return "assignment map disagrees for %s" % ex.project_id
        return None

    def training_ok():
        with open(p("ckpt", "full.log.json"), encoding="utf-8") as fh:
            log = json.load(fh)
        if log["diverged"]:
            return "training diverged"
        values = [log["best_valid"]] + [e[k] for e in log["epochs"]
                                        for k in ("train_mle", "train_ul", "valid_mle")]
        if not log["epochs"] or not all(math.isfinite(v) for v in values):
            return "non-finite loss"
        return None

    def copy_equals_sup():
        rows = {}
        with open(p("copy.jsonl"), encoding="utf-8") as fh:
            for line in fh:
                row = json.loads(line)
                rows[row["id"]] = row["prediction"]
        bad = [ex.id for ex in gold if rows.get(ex.id) != tokenize(ex.sup_comment_first)]
        return "copy baseline differs from the overridden comment for %d" % len(bad) if bad else None

    def decode_sums():
        params, mcfg, vocab, meta = TR.load_train_checkpoint(gen_ckpt)
        worst = 0.0
        with T.no_grad():
            for ex in test_ex[:2]:
                inputs = M.ExampleInputs.from_example(ex, "first")
                src = M.encode_source(inputs, vocab, params, mcfg)
                state = M.init_decoder(src, params, mcfg)
                prev = BOS_ID
                for _ in range(3):
                    dist, _, state, _ = M.decode_step(state, prev, mcfg.k_levels,
                                                      mcfg.k_levels, src, params, mcfg)
                    worst = max(worst, abs(float(dist.data.sum()) - 1.0))
                    prev = int(dist.data[:len(vocab)].argmax())
        return "decode distribution sums off by %.3g" % worst if worst > 1e-9 else None

    _check(result, "preds_cover_test_ids", preds_cover)
    _check(result, "split_projects_disjoint", split_disjoint)
    _check(result, "training_finite", training_ok)
    _check(result, "copy_baseline_is_overridden_comment", copy_equals_sup)
    _check(result, "decode_step_sums_to_one", decode_sums)


def _pass_metrics(w, setup, work, result, train_ex, test_ex, eval_gold) -> dict:
    from hiercomment import corpus as C
    from hiercomment.text import tokenize

    with open(os.path.join(work, "ckpt", "full.log.json"), encoding="utf-8") as fh:
        log = json.load(fh)
    tokens = sum(len(tokenize(ex.sub_comment_first)) + 1 for ex in train_ex) \
        * len(log["epochs"])
    valid = C.read_examples(os.path.join(work, "neural", "valid.jsonl"))
    valid_tokens = sum(len(tokenize(ex.sub_comment_first)) + 1 for ex in valid)
    n_gold = len(C.read_examples(eval_gold))
    s = result.stage_s
    result.info = {"train_examples": len(train_ex), "valid_examples": len(valid),
                   "test_examples": len(test_ex), "eval_gold_examples": n_gold, "epochs": len(log["epochs"]),
                   "train_target_tokens": tokens}
    return {
        "pipeline_s": result.pipeline_s,
        "train_tokens_per_s": tokens / s["train"],
        # best_valid is a mean over examples; per token it does not move
        # with the lengths of whichever examples the seed put in valid
        "valid_nll": log["best_valid"] * len(valid) / valid_tokens,
        "generate_examples_per_s": len(test_ex) / s["generate"],
        "eval_examples_per_s": (len(test_ex) + 2 * n_gold) / s["eval"],
        "compare_s": s["compare"],
        "mine_files_per_s": setup.info["java_files"] / s["mine"],
        "fit_s": s["fit"],
    }


def describe_inputs(work: str) -> dict:
    """Sizes of what a finished pass in `work` mined and fitted."""
    from hiercomment import corpus as C
    from hiercomment import model as M
    from hiercomment.text import Vocabulary

    inputs = [M.ExampleInputs.from_example(ex, "first")
              for ex in C.read_examples(os.path.join(work, "mined.jsonl"))]
    with open(os.path.join(work, "artifacts", "vocab.json"), encoding="utf-8") as fh:
        vocab = Vocabulary.from_json(fh.read())
    return {"mined_examples": len(inputs), "vocab_size": len(vocab),
            **_stream_stats(inputs, vocab)}


def check_same(result: PassResult, first: PassResult) -> None:
    """Count a failed check when outputs differ from the first pass."""
    def same():
        diff = sorted(k for k in first.hashes if result.hashes.get(k) != first.hashes[k])
        return "outputs differ from the first pass: %s" % ", ".join(diff) if diff else None
    _check(result, "byte_identical_rerun", same)


def remove(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
