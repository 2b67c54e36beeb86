"""Pipeline driver: mine -> split -> fit -> train -> generate -> eval.

Every command reads and writes plain files (JSONL for data, JSON for
configs and reports) and is deterministic for a given seed, so reruns
produce byte-identical outputs.  Exit codes: 0 on success, 2 for usage
and schema problems, 1 for anything unexpected.

Checkpoints embed the vocabulary and model configuration, so `generate`
needs only a checkpoint and a split file.  Feature artifacts live in
`<data_dir>/artifacts` unless HIERCOMMENT_ARTIFACTS_DIR points elsewhere.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import json
import os
import sys

from . import baselines as BL
from . import corpus as C
from . import metrics as MT
from . import model as M
from . import training as TR
from .corpus import SchemaError
from .features import FeatureArtifacts, dataset_hash
from .text import Vocabulary, build_vocab, tokenize
# perfbench builds its vocabularies through this name
from .training import token_sequences as _vocab_sequences


class CliError(ValueError):
    """Bad arguments or malformed input files; exits with status 2."""


ARTIFACTS_ENV = "HIERCOMMENT_ARTIFACTS_DIR"
VOCAB_FILE = "vocab.json"
FEATURES_FILE = "features.bin"

# flag overrides per ablation; encoder ablations are measured on top of
# the no-unlikelihood, no-conditioning variant so one change moves at a
# time
_NO_COND = {"use_unlikelihood": False, "use_specificity": False,
            "use_coherence": False}
ABLATION_FLAGS = {
    "full": {},
    "-ul": {"use_unlikelihood": False},
    "-ul-spec": dict(_NO_COND),
    "-ul-spec-feats": dict(_NO_COND, use_features=False),
    "-classname": dict(_NO_COND, use_class_name_encoder=False),
    "-supcomment": dict(_NO_COND, use_sup_comment_encoder=False),
    "seq2seq": dict(_NO_COND, use_features=False, use_class_name_encoder=False,
                    use_sup_comment_encoder=False),
}

METRIC_NAMES = ("bleu4", "meteor", "rouge_l")


# ------------------------------------------------------------ run config

DEFAULT_RUN_CONFIG = {
    "corpus": {"mode": "first", "ratios": [0.8, 0.1, 0.1], "seed": 0},
    "text": {"vocab_cap": 10000, "min_freq": 2},
    "features": {"k_levels": 5, "embed_dim": 64, "window": 5, "seed": 0},
    "model": {},
    "training": {},
    "eval": {"beam_size": 20, "max_len": None, "bootstrap_n": 10000, "seed": 0},
}

# section -> accepted key -> its default, whose type a value must have.
# The model's dropout is training.dropout, and its feature widths are
# those of the feature extractors, so neither is a model key.
_SECTION_KEYS = dict(
    DEFAULT_RUN_CONFIG,
    model={f.name: f.default for f in dataclasses.fields(M.ModelConfig)
           if f.name not in ("vocab_size", "dropout", "feature_dims")},
    training={f.name: f.default for f in dataclasses.fields(TR.TrainingConfig)},
)


def _type_ok(value, default) -> bool:
    """Whether `value` has the type of `default`: an int passes for a float,
    a bool never for a number, and null only where the default is null
    (eval.max_len, which otherwise takes an int)."""
    if value is None:
        return default is None
    kind = int if default is None else type(default)
    if kind is float:
        kind = (int, float)
    return isinstance(value, kind) and isinstance(value, bool) == (kind is bool)


def load_run_config(path: str | None) -> dict:
    """Defaults merged with the JSON at `path`; unknown keys and values
    of another type than the default's rejected."""
    cfg = copy.deepcopy(DEFAULT_RUN_CONFIG)
    if path is None:
        return cfg
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise CliError("%s: invalid JSON (%s)" % (path, e))
    if not isinstance(raw, dict):
        raise CliError("%s: run config must be a JSON object" % path)
    unknown = set(raw) - set(_SECTION_KEYS)
    if unknown:
        raise CliError("%s: unknown config sections: %s"
                       % (path, ", ".join(sorted(unknown))))
    for section, values in raw.items():
        if not isinstance(values, dict):
            raise CliError("%s: section %r must be an object" % (path, section))
        extra = set(values) - set(_SECTION_KEYS[section])
        if extra:
            raise CliError("%s: unknown keys in section %r: %s"
                           % (path, section, ", ".join(sorted(extra))))
        for key, value in values.items():
            default = _SECTION_KEYS[section][key]
            if not _type_ok(value, default):
                raise CliError("%s: %s.%s must be %s, got %s"
                               % (path, section, key,
                                  "int or null" if default is None else type(default).__name__,
                                  json.dumps(value)))
        cfg[section].update(values)
    if cfg["corpus"]["mode"] not in ("first", "full"):
        raise CliError("corpus.mode must be 'first' or 'full'")
    return cfg


def _check(fn, *args, **kwargs):
    """Turn validation ValueErrors from library calls into usage errors."""
    try:
        return fn(*args, **kwargs)
    except CliError:
        raise
    except ValueError as e:
        raise CliError(str(e))


# -------------------------------------------------------------- file io

def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_predictions(path: str, rows: list) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def _read_predictions(path: str) -> dict:
    preds = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as e:
                raise CliError("%s:%d: invalid JSON (%s)" % (path, lineno, e))
            if not isinstance(row, dict) or set(row) != {"id", "prediction"}:
                raise CliError("%s:%d: expected an object with exactly "
                               "'id' and 'prediction'" % (path, lineno))
            if not isinstance(row["id"], str) or not isinstance(row["prediction"], list) \
                    or not all(isinstance(t, str) for t in row["prediction"]):
                raise CliError("%s:%d: 'id' must be a string and 'prediction' "
                               "a list of tokens" % (path, lineno))
            if row["id"] in preds:
                raise CliError("%s:%d: duplicate prediction id %r"
                               % (path, lineno, row["id"]))
            preds[row["id"]] = row["prediction"]
    return preds


def _artifacts_dir(data_dir: str) -> str:
    return os.environ.get(ARTIFACTS_ENV) or os.path.join(data_dir, "artifacts")


def _load_vocab(art_dir: str) -> Vocabulary:
    path = os.path.join(art_dir, VOCAB_FILE)
    if not os.path.exists(path):
        raise CliError("no vocabulary at %s; run 'hiercomment fit' first" % path)
    with open(path, "r", encoding="utf-8") as fh:
        return Vocabulary.from_json(fh.read())


# -------------------------------------------------------------- commands

def cmd_mine(args) -> int:
    diagnostics = []
    pairs = C.mine_tree(args.src_dir, diagnostics)
    examples = C.filter_examples(pairs, mode=args.mode)
    C.write_examples(args.out, examples)
    kinds = [d["kind"] for d in diagnostics]
    print("mined %d examples (from %d override pairs) -> %s; skipped %d files with "
          "unbalanced braces; %d classes with an ambiguous parent"
          % (len(examples), len(pairs), args.out, kinds.count("parse"), kinds.count("link")))
    return 0


def cmd_split(args) -> int:
    parts = args.ratios.split(",")
    if len(parts) != 3:
        raise CliError("--ratios needs three comma-separated numbers")
    try:
        ratios = tuple(float(p) for p in parts)
    except ValueError:
        raise CliError("--ratios needs three comma-separated numbers")
    examples = C.read_examples(args.data)
    split = _check(C.partition_by_project, examples, ratios=ratios, seed=args.seed)
    os.makedirs(args.out_dir, exist_ok=True)
    for name in ("train", "valid", "test"):
        C.write_examples(os.path.join(args.out_dir, name + ".jsonl"),
                         getattr(split, name))
    _write_json(os.path.join(args.out_dir, "split_assignment.json"),
                split.project_assignment)
    print("split %d examples -> train=%d valid=%d test=%d"
          % (len(examples), len(split.train), len(split.valid), len(split.test)))
    return 0


def cmd_fit(args) -> int:
    cfg = load_run_config(args.config)
    mode = args.mode or cfg["corpus"]["mode"]
    examples = C.read_examples(args.train)
    if not examples:
        raise CliError("%s holds no examples" % args.train)
    inputs = [M.ExampleInputs.from_example(ex, mode) for ex in examples]
    vocab = build_vocab(_vocab_sequences(inputs),
                        cap=cfg["text"]["vocab_cap"],
                        min_freq=cfg["text"]["min_freq"])
    fcfg = cfg["features"]
    artifacts = _check(
        TR.fit_artifacts, inputs, mode, dataset_hash(args.train),
        k_levels=fcfg["k_levels"], embed_dim=fcfg["embed_dim"],
        window=fcfg["window"],
        seed=args.seed if args.seed is not None else fcfg["seed"])
    os.makedirs(args.artifacts_out, exist_ok=True)
    with open(os.path.join(args.artifacts_out, VOCAB_FILE), "w",
              encoding="utf-8") as fh:
        fh.write(vocab.to_json())
        fh.write("\n")
    artifacts.save(os.path.join(args.artifacts_out, FEATURES_FILE))
    print("fit vocab (%d tokens) and feature artifacts -> %s"
          % (len(vocab), args.artifacts_out))
    return 0


def _model_config_for(cfg: dict, ablation: str, vocab_size: int) -> M.ModelConfig:
    kwargs = dict(cfg["model"])
    if "dropout" in cfg["training"]:
        kwargs["dropout"] = cfg["training"]["dropout"]
    kwargs.update(ABLATION_FLAGS[ablation])
    return _check(M.ModelConfig, vocab_size=vocab_size, **kwargs)


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    mode = cfg["corpus"]["mode"]
    train_ex = C.read_examples(os.path.join(args.data_dir, "train.jsonl"))
    valid_ex = C.read_examples(os.path.join(args.data_dir, "valid.jsonl"))
    train_inputs = [M.ExampleInputs.from_example(ex, mode) for ex in train_ex]
    valid_inputs = [M.ExampleInputs.from_example(ex, mode) for ex in valid_ex]

    art_dir = _artifacts_dir(args.data_dir)
    vocab = _load_vocab(art_dir)
    model_config = _model_config_for(cfg, args.ablation, len(vocab))
    tdict = dict(cfg["training"])
    if args.seed is not None:
        tdict["seed"] = args.seed
    training_config = _check(TR.TrainingConfig.from_dict, tdict)

    artifacts = None
    if model_config.use_specificity or model_config.use_coherence:
        artifacts = _check(FeatureArtifacts.load,
                           os.path.join(art_dir, FEATURES_FILE))

    result = _check(TR.train, train_inputs, valid_inputs, vocab, model_config,
                    training_config, artifacts=artifacts)

    os.makedirs(args.ckpt_dir, exist_ok=True)
    name = "no" + args.ablation if args.ablation.startswith("-") else args.ablation
    ckpt_path = os.path.join(args.ckpt_dir, name + ".ckpt")
    TR.save_train_checkpoint(ckpt_path, result.params, model_config, vocab,
                             extra={"mode": mode, "ablation": args.ablation,
                                    "best_epoch": result.best_epoch,
                                    "best_valid": result.best_valid,
                                    "training": training_config.to_dict()})
    log = {
        "ablation": args.ablation,
        "best_epoch": result.best_epoch,
        "best_valid": result.best_valid,
        "diverged": result.diverged,
        "stopped_early": result.stopped_early,
        "config_hash": result.config_hash,
        "epochs": [{"epoch": e.epoch, "train_mle": e.train_mle,
                    "train_ul": e.train_ul, "train_loss": e.train_loss,
                    "train_ppl": e.train_ppl, "valid_mle": e.valid_mle,
                    "valid_ppl": e.valid_ppl} for e in result.log],
    }
    _write_json(os.path.join(args.ckpt_dir, name + ".log.json"), log)
    status = "diverged; kept best checkpoint" if result.diverged else "done"
    print("train %s: %s (best epoch %d, valid %.4f) -> %s"
          % (args.ablation, status, result.best_epoch, result.best_valid,
             ckpt_path))
    return 0


def _eval_setting(args, attr: str, key: str):
    """(value, name): the flag `attr` when given, else eval.<key> of the run
    config, which without --config is DEFAULT_RUN_CONFIG's."""
    value = getattr(args, attr)
    if value is not None:
        return value, "--" + attr.replace("_", "-")
    return load_run_config(args.config)["eval"][key], "eval." + key


def cmd_generate(args) -> int:
    params, model_config, vocab, meta = _check(TR.load_train_checkpoint, args.ckpt)
    mode = meta.get("mode", "first")
    beam, beam_name = _eval_setting(args, "beam", "beam_size")
    max_len, max_len_name = _eval_setting(args, "max_len", "max_len")
    if max_len is None:
        max_len = 30 if mode == "first" else 60
    for name, value in ((beam_name, beam), (max_len_name, max_len)):
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise CliError("%s must be >= 1" % name)
    for label, level in (("--spec-level", args.spec_level),
                         ("--coh-level", args.coh_level)):
        if level is not None and not 1 <= level <= model_config.k_levels:
            raise CliError("%s must be in 1..%d" % (label, model_config.k_levels))
    examples = C.read_examples(args.split)
    rows = []
    for ex in examples:
        inputs = M.ExampleInputs.from_example(ex, mode)
        tokens = M.generate(inputs, vocab, params, model_config,
                            beam_size=beam, max_len=max_len,
                            spec_level=args.spec_level,
                            coh_level=args.coh_level)
        rows.append({"id": ex.id, "prediction": tokens})
    _write_predictions(args.out, rows)
    # a prediction of max_len tokens never emitted EOS (EOS takes a step)
    cut = sum(len(row["prediction"]) == max_len for row in rows)
    print("generated %d predictions (beam %d; %d reached --max-len %d without EOS) -> %s"
          % (len(rows), beam, cut, max_len, args.out))
    return 0


def cmd_baseline(args) -> int:
    examples = C.read_examples(args.split)
    rows = []
    for ex in examples:
        inputs = M.ExampleInputs.from_example(ex, args.mode)
        if args.which == "copy":
            tokens = BL.copy_baseline(inputs)
        else:
            tokens = BL.class_name_substitution(inputs)
        rows.append({"id": ex.id, "prediction": tokens})
    _write_predictions(args.out, rows)
    print("baseline %s: %d predictions -> %s" % (args.which, len(rows), args.out))
    return 0


def cmd_eval(args) -> int:
    preds = _read_predictions(args.pred)
    gold = C.read_examples(args.gold)
    if not gold:
        raise CliError("%s holds no examples" % args.gold)
    missing = [ex.id for ex in gold if ex.id not in preds]
    if missing:
        raise CliError("missing predictions for %d example(s), first: %s"
                       % (len(missing), missing[0]))
    triples = []
    for ex in gold:
        comment = ex.sub_comment_first if args.mode == "first" else ex.sub_comment_full
        triples.append((ex.id, tokenize(comment), preds[ex.id]))
    report = MT.score_corpus(triples)
    out = {"mode": args.mode, **report.to_dict()}
    _write_json(args.report, out)
    print("eval: n=%d bleu4=%.4f meteor=%.4f rouge_l=%.4f -> %s"
          % (report.n, report.bleu4, report.meteor, report.rouge_l, args.report))
    return 0


def _load_report(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            report = json.load(fh)
        except json.JSONDecodeError as e:
            raise CliError("%s: invalid JSON (%s)" % (path, e))
    if not isinstance(report, dict) or "per_example" not in report:
        raise CliError("%s: not an eval report (missing per_example)" % path)
    return report


def cmd_compare(args) -> int:
    report_a = _load_report(args.report_a)
    report_b = _load_report(args.report_b)
    by_id_a = {e["id"]: e for e in report_a["per_example"]}
    by_id_b = {e["id"]: e for e in report_b["per_example"]}
    if set(by_id_a) != set(by_id_b):
        raise CliError("reports cover different example ids")
    if not by_id_a:
        raise CliError("reports hold no per-example scores")
    ids = [e["id"] for e in report_a["per_example"]]
    name_a = os.path.splitext(os.path.basename(args.report_a))[0]
    name_b = os.path.splitext(os.path.basename(args.report_b))[0]
    comparison = {"model_a": name_a, "model_b": name_b, "test": args.test,
                  "n": len(ids), "metrics": {}}
    resamples, _ = _eval_setting(args, "resamples", "bootstrap_n")
    seed, _ = _eval_setting(args, "seed", "seed")
    for metric in METRIC_NAMES:
        a = [by_id_a[i][metric] for i in ids]
        b = [by_id_b[i][metric] for i in ids]
        if args.test == "bootstrap":
            res = _check(MT.bootstrap_test, a, b, n=resamples, seed=seed)
        else:
            res = _check(MT.wilcoxon_signed_rank, a, b)
        comparison["metrics"][metric] = {
            "mean_a": sum(a) / len(a),
            "mean_b": sum(b) / len(b),
            "statistic": res.statistic,
            "p_value": res.p_value,
        }
    if args.out:
        _write_json(args.out, comparison)
    else:
        print(json.dumps(comparison, indent=2, sort_keys=True))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["model"] + list(METRIC_NAMES))
            writer.writerow([name_a] + ["%.6f" % comparison["metrics"][m]["mean_a"]
                                        for m in METRIC_NAMES])
            writer.writerow([name_b] + ["%.6f" % comparison["metrics"][m]["mean_b"]
                                        for m in METRIC_NAMES])
            writer.writerow(["p_value"] + ["%.6f" % comparison["metrics"][m]["p_value"]
                                           for m in METRIC_NAMES])
    if args.out:
        print("compare %s vs %s (%s) -> %s" % (name_a, name_b, args.test, args.out))
    return 0


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hiercomment",
        description="Mine override comment pairs and train hierarchy-aware "
                    "comment generators.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="mine override method/comment pairs from Java sources")
    p.add_argument("src_dir", help="directory of Java projects")
    p.add_argument("out", help="output examples JSONL")
    p.add_argument("--mode", choices=("first", "full"), default="first",
                   help="comment scope used when filtering (default first)")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("split", help="cross-project train/valid/test split")
    p.add_argument("data", help="examples JSONL")
    p.add_argument("out_dir", help="directory for train/valid/test.jsonl")
    p.add_argument("--ratios", default="0.8,0.1,0.1")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("fit", help="fit vocabulary and feature artifacts on the training split")
    p.add_argument("train", help="train.jsonl")
    p.add_argument("artifacts_out", help="artifacts output directory")
    p.add_argument("--config", default=None, help="run config JSON")
    p.add_argument("--mode", choices=("first", "full"), default=None,
                   help="override the config's comment mode")
    p.add_argument("--seed", type=int, default=None,
                   help="accepted for features.seed; has no effect")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("train", help="train one model variant")
    p.add_argument("config", help="run config JSON")
    p.add_argument("data_dir", help="directory with train/valid.jsonl and artifacts/")
    p.add_argument("ckpt_dir", help="checkpoint output directory")
    p.add_argument("--ablation", choices=sorted(ABLATION_FLAGS), default="full",
                   help="model variant (use --ablation=-ul for the dashed names)")
    p.add_argument("--seed", type=int, default=None,
                   help="override training.seed from the config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", help="beam-decode comments for a split")
    p.add_argument("ckpt", help="checkpoint file")
    p.add_argument("split", help="examples JSONL")
    p.add_argument("out", help="predictions JSONL")
    p.add_argument("--config", default=None,
                   help="run config JSON whose eval section sets the defaults")
    p.add_argument("--beam", type=int, default=None, help="beam size (default 20)")
    p.add_argument("--max-len", type=int, default=None,
                   help="decode length cap (default 30 first / 60 full)")
    p.add_argument("--spec-level", type=int, default=None,
                   help="specificity level 1..K (default K)")
    p.add_argument("--coh-level", type=int, default=None,
                   help="coherence level 1..K (default K)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("baseline", help="rule-based baseline predictions")
    p.add_argument("split", help="examples JSONL")
    p.add_argument("out", help="predictions JSONL")
    p.add_argument("--which", choices=("copy", "classsub"), required=True)
    p.add_argument("--mode", choices=("first", "full"), default="first")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("eval", help="score predictions against gold comments")
    p.add_argument("pred", help="predictions JSONL")
    p.add_argument("gold", help="gold examples JSONL")
    p.add_argument("report", help="output report JSON")
    p.add_argument("--mode", choices=("first", "full"), default="first")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="significance test between two eval reports")
    p.add_argument("report_a")
    p.add_argument("report_b")
    p.add_argument("--config", default=None,
                   help="run config JSON whose eval section sets the defaults")
    p.add_argument("--test", choices=("bootstrap", "wilcoxon"), default="bootstrap")
    p.add_argument("--resamples", type=int, default=None,
                   help="bootstrap resamples (default 10000)")
    p.add_argument("--seed", type=int, default=None, help="bootstrap seed (default 0)")
    p.add_argument("--out", default=None, help="comparison JSON (stdout when omitted)")
    p.add_argument("--csv", default=None, help="optional model-by-metric CSV")
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, SchemaError, FileNotFoundError, NotADirectoryError,
            IsADirectoryError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except Exception as e:  # pragma: no cover - catch-all for exit code 1
        print("internal error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
