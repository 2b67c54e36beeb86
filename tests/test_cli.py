import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hiercomment import corpus as C
from hiercomment import metrics as MT
from hiercomment import model as M
from hiercomment import tensor as T
from hiercomment import training as TR
from hiercomment.cli import (
    ABLATION_FLAGS,
    DEFAULT_RUN_CONFIG,
    METRIC_NAMES,
    CliError,
    load_run_config,
    main,
)
from hiercomment.text import BOS_ID, EOS_ID, UNK_ID, tokenize
from hiercomment.training import load_train_checkpoint

TOY = str(Path(__file__).resolve().parent.parent / "data" / "toy_java")
TOY_CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "toy.json")

# small everything: these tests exercise wiring, not model quality
TINY_CONFIG = {
    "features": {"k_levels": 3, "embed_dim": 16, "window": 5, "seed": 0},
    "model": {"embed_dim": 16, "enc_hidden": 16, "dec_hidden": 32,
              "level_embed_dim": 4, "feature_proj_dim": 4},
    "training": {"max_epochs": 2, "patience": 10, "dropout": 0.3,
                 "batch_size": 16, "seed": 0},
    "eval": {"beam_size": 3, "bootstrap_n": 500, "seed": 0},
}


def write_config(path, extra=None):
    cfg = json.loads(json.dumps(TINY_CONFIG))
    for section, values in (extra or {}).items():
        cfg.setdefault(section, {}).update(values)
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """mine -> split -> fit -> train (two variants) -> generate, shared."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg = write_config(root / "config.json")
    corpus = root / "corpus.jsonl"
    data = root / "data"
    ckpts = root / "ckpts"
    assert main(["mine", TOY, str(corpus)]) == 0
    assert main(["split", str(corpus), str(data), "--seed", "0"]) == 0
    assert main(["fit", str(data / "train.jsonl"), str(data / "artifacts"),
                 "--config", cfg]) == 0
    assert main(["train", cfg, str(data), str(ckpts),
                 "--ablation", "seq2seq"]) == 0
    assert main(["train", cfg, str(data), str(ckpts),
                 "--ablation=-ul"]) == 0
    pred = root / "pred_seq2seq.jsonl"
    assert main(["generate", str(ckpts / "seq2seq.ckpt"),
                 str(data / "test.jsonl"), str(pred), "--beam", "2"]) == 0
    return {
        "root": root, "config": cfg, "corpus": corpus, "data": data,
        "ckpts": ckpts, "pred": pred,
        "test": data / "test.jsonl", "train": data / "train.jsonl",
    }


class TestRunConfig:
    def test_defaults_without_file(self):
        assert load_run_config(None) == DEFAULT_RUN_CONFIG

    def test_partial_file_keeps_other_defaults(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"training": {"max_epochs": 3}}', encoding="utf-8")
        cfg = load_run_config(str(p))
        assert cfg["training"]["max_epochs"] == 3
        assert cfg["corpus"]["mode"] == "first"
        assert cfg["eval"]["beam_size"] == 20

    def test_unknown_section_exits_2(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"modle": {}}', encoding="utf-8")
        assert main(["fit", "whatever.jsonl", str(tmp_path / "a"),
                     "--config", str(p)]) == 2

    def test_unknown_key_exits_2(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"training": {"max_epoch": 5}}', encoding="utf-8")
        assert main(["fit", "whatever.jsonl", str(tmp_path / "a"),
                     "--config", str(p)]) == 2

    def test_invalid_json_exits_2(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("{not json", encoding="utf-8")
        assert main(["fit", "x.jsonl", str(tmp_path / "a"),
                     "--config", str(p)]) == 2

    def test_non_object_section_exits_2(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"training": 5}', encoding="utf-8")
        assert main(["fit", "x.jsonl", str(tmp_path / "a"),
                     "--config", str(p)]) == 2

    def test_bad_corpus_mode_exits_2(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"corpus": {"mode": "summary"}}', encoding="utf-8")
        assert main(["fit", "x.jsonl", str(tmp_path / "a"),
                     "--config", str(p)]) == 2

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["fit", "x.jsonl", str(tmp_path / "a"),
                     "--config", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("key", ["dropout", "feature_dims"])
    def test_model_keys_set_elsewhere_are_unknown(self, tmp_path, key):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"model": {key: 0.5}}), encoding="utf-8")
        with pytest.raises(CliError, match="unknown keys"):
            load_run_config(str(p))

    @pytest.mark.parametrize("section,key,value", [
        ("training", "learning_rate", 1),     # an int where the default is a float
        ("training", "dropout", 0.5),
        ("eval", "max_len", None),
        ("eval", "max_len", 40),
        ("model", "use_features", False),
        ("corpus", "mode", "full"),
    ])
    def test_value_of_the_default_type_accepted(self, tmp_path, section, key, value):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({section: {key: value}}), encoding="utf-8")
        assert load_run_config(str(p))[section][key] == value

    @pytest.mark.parametrize("section,key,value", [
        ("features", "window", "5"),
        ("training", "batch_size", 4.0),
        ("training", "max_epochs", True),     # a bool is not an int
        ("training", "learning_rate", False),
        ("model", "use_features", 1),
        ("eval", "max_len", "30"),
        ("eval", "beam_size", None),
        ("corpus", "ratios", "0.8,0.1,0.1"),
    ])
    def test_value_of_another_type_rejected(self, tmp_path, section, key, value):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({section: {key: value}}), encoding="utf-8")
        with pytest.raises(CliError, match=re.escape("%s.%s must be" % (section, key))):
            load_run_config(str(p))

    def test_string_window_exits_2_in_fit(self, pipeline, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"features": {"window": "5"}})
        assert main(["fit", str(pipeline["train"]), str(tmp_path / "art"),
                     "--config", cfg]) == 2
        assert "features.window" in capsys.readouterr().err

    def test_string_batch_size_exits_2_in_train(self, pipeline, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", {"training": {"batch_size": "4"}})
        assert main(["train", cfg, str(pipeline["data"]), str(tmp_path / "ck")]) == 2
        assert "training.batch_size" in capsys.readouterr().err


class TestMine:
    def test_toy_corpus_yields_64_examples(self, pipeline):
        examples = C.read_examples(str(pipeline["corpus"]))
        assert len(examples) == 64
        assert len({e.id for e in examples}) == 64

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        again = tmp_path / "again.jsonl"
        assert main(["mine", TOY, str(again)]) == 0
        assert again.read_bytes() == pipeline["corpus"].read_bytes()

    def test_missing_directory_exits_2(self, tmp_path):
        assert main(["mine", str(tmp_path / "nope"),
                     str(tmp_path / "out.jsonl")]) == 2

    def test_file_as_source_exits_2(self, tmp_path):
        f = tmp_path / "afile"
        f.write_text("x", encoding="utf-8")
        assert main(["mine", str(f), str(tmp_path / "out.jsonl")]) == 2

    def test_summary_counts_skipped_files_and_ambiguous_parents(self, tmp_path, capsys):
        proj = tmp_path / "tree" / "proj"
        proj.mkdir(parents=True)
        (proj / "Broken.java").write_text("class Broken { void f() { }", encoding="utf-8")
        (proj / "A.java").write_text("package a.x; class Base { void f() {} }", encoding="utf-8")
        (proj / "B.java").write_text("package b.y; class Base { void f() {} }", encoding="utf-8")
        (proj / "Kid.java").write_text(
            "package c.z; class Kid extends Base { void f() {} }", encoding="utf-8")
        (proj / "Leaf.java").write_text(
            "package a.x; class Leaf extends Base { /** Reads the gzip stream fully. */"
            " void f() {} }", encoding="utf-8")
        assert main(["mine", str(tmp_path / "tree"), str(tmp_path / "out.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "from 1 override pairs" in out
        assert "skipped 1 files with unbalanced braces" in out
        assert "1 classes with an ambiguous parent" in out


class TestSplit:
    def test_writes_three_splits_and_assignment(self, pipeline):
        data = pipeline["data"]
        tr = C.read_examples(str(data / "train.jsonl"))
        va = C.read_examples(str(data / "valid.jsonl"))
        te = C.read_examples(str(data / "test.jsonl"))
        assert len(tr) + len(va) + len(te) == 64
        assert len(va) > 0 and len(te) > 0
        projects = [{e.project_id for e in part} for part in (tr, va, te)]
        assert not (projects[0] & projects[1])
        assert not (projects[0] & projects[2])
        assert not (projects[1] & projects[2])
        assignment = json.loads((data / "split_assignment.json").read_text())
        assert set(assignment.values()) <= {"train", "valid", "test"}
        assert len(assignment) == 10

    def test_malformed_ratios_exit_2(self, pipeline, tmp_path):
        assert main(["split", str(pipeline["corpus"]), str(tmp_path / "d"),
                     "--ratios", "0.5,0.5"]) == 2
        assert main(["split", str(pipeline["corpus"]), str(tmp_path / "d"),
                     "--ratios", "a,b,c"]) == 2

    def test_ratios_not_summing_exit_2(self, pipeline, tmp_path):
        assert main(["split", str(pipeline["corpus"]), str(tmp_path / "d"),
                     "--ratios", "0.5,0.4,0.5"]) == 2

    def test_missing_corpus_exits_2(self, tmp_path):
        assert main(["split", str(tmp_path / "no.jsonl"),
                     str(tmp_path / "d")]) == 2


class TestFit:
    def test_writes_vocab_and_artifacts(self, pipeline):
        art = pipeline["data"] / "artifacts"
        assert (art / "vocab.json").exists()
        assert (art / "features.bin").exists()
        vocab_blob = json.loads((art / "vocab.json").read_text())
        assert len(vocab_blob["tokens"]) > 100

    def test_empty_train_split_exits_2(self, tmp_path):
        empty = tmp_path / "train.jsonl"
        empty.write_text("", encoding="utf-8")
        assert main(["fit", str(empty), str(tmp_path / "a")]) == 2

    def test_missing_train_split_exits_2(self, tmp_path):
        assert main(["fit", str(tmp_path / "no.jsonl"),
                     str(tmp_path / "a")]) == 2


class TestTrain:
    def test_checkpoint_and_log_written(self, pipeline):
        ckpts = pipeline["ckpts"]
        assert (ckpts / "seq2seq.ckpt").exists()
        log = json.loads((ckpts / "seq2seq.log.json").read_text())
        assert log["ablation"] == "seq2seq"
        assert 1 <= len(log["epochs"]) <= 2
        assert set(log["epochs"][0]) == {"epoch", "train_mle", "train_ul",
                                         "train_loss", "train_ppl",
                                         "valid_mle", "valid_ppl"}

    def test_ablation_flag_table(self, pipeline, tmp_path, monkeypatch):
        # ablation -> (checkpoint file name, flags it turns off)
        cond = {"use_unlikelihood", "use_specificity", "use_coherence"}
        expected = {
            "full": ("full", set()),
            "-ul": ("no-ul", {"use_unlikelihood"}),
            "-ul-spec": ("no-ul-spec", cond),
            "-ul-spec-feats": ("no-ul-spec-feats", cond | {"use_features"}),
            "-classname": ("no-classname", cond | {"use_class_name_encoder"}),
            "-supcomment": ("no-supcomment", cond | {"use_sup_comment_encoder"}),
            "seq2seq": ("seq2seq", cond | {"use_features", "use_class_name_encoder",
                                           "use_sup_comment_encoder"}),
        }
        flags = ("use_class_name_encoder", "use_sup_comment_encoder", "use_features",
                 "use_specificity", "use_coherence", "use_unlikelihood")
        assert sorted(ABLATION_FLAGS) == sorted(expected)
        # the flags and file names are under test, not the training loop
        monkeypatch.setattr(TR, "train", lambda *a, **k: TR.TrainResult(
            params={}, best_epoch=1, best_valid=1.0))
        ckpts = tmp_path / "ck"
        configs = {}
        for ablation, (name, off) in expected.items():
            assert main(["train", pipeline["config"], str(pipeline["data"]), str(ckpts),
                         "--ablation=" + ablation]) == 0
            _, mc, _, meta = load_train_checkpoint(str(ckpts / (name + ".ckpt")))
            assert meta["ablation"] == ablation
            assert {f: getattr(mc, f) for f in flags} == {f: f not in off for f in flags}
            configs[ablation] = mc
        assert sorted(os.listdir(ckpts)) == sorted(
            name + ext for name, _ in expected.values() for ext in (".ckpt", ".log.json"))
        assert configs["seq2seq"].active_streams() == ("method",)
        assert configs["seq2seq"].config_hash() != configs["full"].config_hash()

    def test_checkpoint_meta_records_variant(self, pipeline):
        _, mc, vocab, meta = load_train_checkpoint(
            str(pipeline["ckpts"] / "no-ul.ckpt"))
        assert meta["ablation"] == "-ul"
        assert meta["mode"] == "first"
        assert meta["training"]["max_epochs"] == 2
        assert mc.use_unlikelihood is False
        assert mc.use_specificity is True
        assert len(vocab) > 100

    def test_epoch_log_carries_no_wall_time(self, pipeline):
        text = (pipeline["ckpts"] / "seq2seq.log.json").read_text()
        assert "seconds" not in text and "time" not in text

    def test_unfitted_data_dir_exits_2(self, pipeline, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        for name in ("train.jsonl", "valid.jsonl"):
            (data / name).write_bytes((pipeline["data"] / name).read_bytes())
        assert main(["train", pipeline["config"], str(data),
                     str(tmp_path / "ck")]) == 2
        assert "hiercomment fit" in capsys.readouterr().err

    def test_cut_features_file_exits_2(self, pipeline, tmp_path, monkeypatch, capsys):
        art = tmp_path / "art"
        art.mkdir()
        (art / "vocab.json").write_bytes(
            (pipeline["data"] / "artifacts" / "vocab.json").read_bytes())
        (art / "features.bin").write_bytes(
            (pipeline["data"] / "artifacts" / "features.bin").read_bytes()[:8])
        monkeypatch.setenv("HIERCOMMENT_ARTIFACTS_DIR", str(art))
        assert main(["train", pipeline["config"], str(pipeline["data"]),
                     str(tmp_path / "ck")]) == 2
        assert "truncated feature artifact header" in capsys.readouterr().err

    def test_features_header_without_mode_exits_2(self, pipeline, tmp_path,
                                                  monkeypatch, capsys):
        from hiercomment.features import FEATURE_MAGIC, FEATURE_SCHEMA_VERSION
        art = tmp_path / "art"
        art.mkdir()
        (art / "vocab.json").write_bytes(
            (pipeline["data"] / "artifacts" / "vocab.json").read_bytes())
        header, arrays = T.read_container(
            str(pipeline["data"] / "artifacts" / "features.bin"), FEATURE_MAGIC,
            FEATURE_SCHEMA_VERSION, "feature artifact", lambda h: [h["emb_shape"]],
            lambda h, a: (h, a))
        del header["mode"]
        T.write_container(str(art / "features.bin"), FEATURE_MAGIC,
                          FEATURE_SCHEMA_VERSION, header, arrays)
        monkeypatch.setenv("HIERCOMMENT_ARTIFACTS_DIR", str(art))
        assert main(["train", pipeline["config"], str(pipeline["data"]),
                     str(tmp_path / "ck")]) == 2
        assert "malformed feature artifact header" in capsys.readouterr().err

    def test_empty_train_split_exits_2(self, pipeline, tmp_path):
        data = tmp_path / "data"
        (data / "artifacts").mkdir(parents=True)
        (data / "train.jsonl").write_text("", encoding="utf-8")
        (data / "valid.jsonl").write_bytes(
            (pipeline["data"] / "valid.jsonl").read_bytes())
        for name in ("vocab.json", "features.bin"):
            (data / "artifacts" / name).write_bytes(
                (pipeline["data"] / "artifacts" / name).read_bytes())
        assert main(["train", pipeline["config"], str(data),
                     str(tmp_path / "ck")]) == 2

    def test_artifacts_dir_env_override(self, pipeline, tmp_path, monkeypatch):
        data = tmp_path / "data"
        data.mkdir()
        for name in ("train.jsonl", "valid.jsonl"):
            (data / name).write_bytes((pipeline["data"] / name).read_bytes())
        monkeypatch.setenv("HIERCOMMENT_ARTIFACTS_DIR",
                           str(pipeline["data"] / "artifacts"))
        assert main(["train", pipeline["config"], str(data),
                     str(tmp_path / "ck"), "--ablation", "seq2seq"]) == 0


class TestGenerate:
    def test_prediction_schema(self, pipeline):
        rows = [json.loads(line) for line in
                pipeline["pred"].read_text().splitlines()]
        gold_ids = {e.id for e in C.read_examples(str(pipeline["test"]))}
        assert {r["id"] for r in rows} == gold_ids
        for r in rows:
            assert set(r) == {"id", "prediction"}
            assert all(isinstance(t, str) for t in r["prediction"])

    def test_rerun_is_byte_identical(self, pipeline, tmp_path):
        again = tmp_path / "again.jsonl"
        assert main(["generate", str(pipeline["ckpts"] / "seq2seq.ckpt"),
                     str(pipeline["test"]), str(again), "--beam", "2"]) == 0
        assert again.read_bytes() == pipeline["pred"].read_bytes()

    def test_beam_1_matches_greedy_decode(self, pipeline, tmp_path):
        """Beam 1 over the batched decoder equals a greedy loop over the
        single-hypothesis decode_step."""
        out = tmp_path / "beam1.jsonl"
        assert main(["generate", str(pipeline["ckpts"] / "seq2seq.ckpt"),
                     str(pipeline["test"]), str(out), "--beam", "1"]) == 0
        params, mc, vocab, meta = load_train_checkpoint(
            str(pipeline["ckpts"] / "seq2seq.ckpt"))
        rows = {json.loads(l)["id"]: json.loads(l)["prediction"]
                for l in out.read_text().splitlines()}
        for ex in C.read_examples(str(pipeline["test"])):
            inputs = M.ExampleInputs.from_example(ex, meta["mode"])
            with T.no_grad():
                src = M.encode_source(inputs, vocab, params, mc)
                state = M.init_decoder(src, params, mc)
                prev, greedy = BOS_ID, []
                for _ in range(30):
                    dist, _, state, _ = M.decode_step(state, prev, mc.k_levels,
                                                      mc.k_levels, src, params, mc)
                    p = dist.data.copy()
                    if not greedy:
                        p[EOS_ID] = 0.0
                    tok = int(np.argmax(p))
                    if tok == EOS_ID:
                        break
                    greedy.append(vocab.token_of(tok) if tok < len(vocab)
                                  else src.oov_list[tok - len(vocab)])
                    # copied source-only tokens are fed back as UNK
                    prev = tok if tok < len(vocab) else UNK_ID
            assert rows[ex.id] == greedy, ex.id

    def test_beam_0_exits_2(self, pipeline, tmp_path):
        assert main(["generate", str(pipeline["ckpts"] / "seq2seq.ckpt"),
                     str(pipeline["test"]), str(tmp_path / "p.jsonl"),
                     "--beam", "0"]) == 2

    @pytest.mark.parametrize("max_len", ["0", "-3"])
    def test_max_len_0_exits_2(self, pipeline, tmp_path, capsys, max_len):
        assert main(["generate", str(pipeline["ckpts"] / "seq2seq.ckpt"),
                     str(pipeline["test"]), str(tmp_path / "p.jsonl"),
                     "--max-len", max_len]) == 2
        assert "--max-len must be >= 1" in capsys.readouterr().err

    def test_summary_counts_predictions_cut_off_at_max_len(self, pipeline, tmp_path,
                                                           capsys):
        out = tmp_path / "short.jsonl"
        assert main(["generate", str(pipeline["ckpts"] / "seq2seq.ckpt"),
                     str(pipeline["test"]), str(out), "--beam", "2",
                     "--max-len", "2"]) == 0
        preds = [json.loads(l)["prediction"] for l in out.read_text().splitlines()]
        cut = sum(len(p) == 2 for p in preds)
        assert cut > 0
        assert all(len(p) <= 2 for p in preds)
        assert ("(beam 2; %d reached --max-len 2 without EOS)" % cut
                in capsys.readouterr().out)

    def test_config_eval_section_sets_beam_and_max_len(self, pipeline, tmp_path, capsys):
        assert main(["generate", str(pipeline["ckpts"] / "seq2seq.ckpt"),
                     str(pipeline["test"]), str(tmp_path / "p.jsonl"),
                     "--config", TOY_CONFIG]) == 0
        out = capsys.readouterr().out
        assert "(beam 5; " in out and "reached --max-len 30 without EOS" in out
        assert json.loads(Path(TOY_CONFIG).read_text())["eval"] == {
            "beam_size": 5, "max_len": 30, "bootstrap_n": 10000, "seed": 0}

    def test_flags_override_config(self, pipeline, tmp_path, capsys):
        assert main(["generate", str(pipeline["ckpts"] / "seq2seq.ckpt"),
                     str(pipeline["test"]), str(tmp_path / "p.jsonl"),
                     "--config", TOY_CONFIG, "--beam", "3", "--max-len", "2"]) == 0
        out = capsys.readouterr().out
        assert "(beam 3; " in out and "reached --max-len 2 without EOS" in out

    def test_defaults_without_config(self, pipeline, tmp_path, capsys):
        assert main(["generate", str(pipeline["ckpts"] / "seq2seq.ckpt"),
                     str(pipeline["test"]), str(tmp_path / "p.jsonl"),
                     "--max-len", "1"]) == 0
        assert "(beam 20; " in capsys.readouterr().out

    @pytest.mark.parametrize("key", ["beam_size", "max_len"])
    def test_bad_config_eval_value_exits_2(self, pipeline, tmp_path, capsys, key):
        cfg = write_config(tmp_path / "bad.json", {"eval": {key: 0}})
        assert main(["generate", str(pipeline["ckpts"] / "seq2seq.ckpt"),
                     str(pipeline["test"]), str(tmp_path / "p.jsonl"),
                     "--config", cfg]) == 2
        assert "eval.%s must be >= 1" % key in capsys.readouterr().err

    def test_out_of_range_level_exits_2(self, pipeline, tmp_path):
        assert main(["generate", str(pipeline["ckpts"] / "no-ul.ckpt"),
                     str(pipeline["test"]), str(tmp_path / "p.jsonl"),
                     "--spec-level", "9"]) == 2

    def test_missing_checkpoint_exits_2(self, pipeline, tmp_path):
        assert main(["generate", str(tmp_path / "no.ckpt"),
                     str(pipeline["test"]), str(tmp_path / "p.jsonl")]) == 2

    def test_corrupt_checkpoint_exits_2(self, pipeline, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint at all")
        assert main(["generate", str(bad), str(pipeline["test"]),
                     str(tmp_path / "p.jsonl")]) == 2

    @pytest.mark.parametrize("header", [{"tensors": []}, {"tensors": [], "meta": {}}],
                             ids=["no-meta", "no-config"])
    def test_checkpoint_header_missing_key_exits_2(self, pipeline, tmp_path, capsys,
                                                   header):
        bad = tmp_path / "bad.ckpt"
        T.write_container(str(bad), T.CHECKPOINT_MAGIC, T.CHECKPOINT_SCHEMA_VERSION,
                          header, [])
        assert main(["generate", str(bad), str(pipeline["test"]),
                     str(tmp_path / "p.jsonl")]) == 2
        assert "malformed checkpoint header" in capsys.readouterr().err

    @pytest.mark.parametrize("damage,message", [
        (lambda blob: blob[:12], "truncated checkpoint header"),
        (lambda blob: blob + bytes(8), "trailing bytes"),
    ], ids=["cut-to-12-bytes", "8-bytes-appended"])
    def test_cut_or_padded_checkpoint_exits_2(self, pipeline, tmp_path, capsys,
                                              damage, message):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(damage((pipeline["ckpts"] / "seq2seq.ckpt").read_bytes()))
        assert main(["generate", str(bad), str(pipeline["test"]),
                     str(tmp_path / "p.jsonl")]) == 2
        assert message in capsys.readouterr().err


class TestBaseline:
    def test_copy_reproduces_sup_comment(self, pipeline, tmp_path):
        out = tmp_path / "copy.jsonl"
        assert main(["baseline", str(pipeline["test"]), str(out),
                     "--which", "copy"]) == 0
        rows = {json.loads(l)["id"]: json.loads(l)["prediction"]
                for l in out.read_text().splitlines()}
        for ex in C.read_examples(str(pipeline["test"])):
            assert rows[ex.id] == tokenize(ex.sup_comment_first)

    def test_classsub_rewrites_superclass_mention(self, tmp_path):
        ex = C.OverrideExample(
            id="p:a.B.m/0", project_id="p", sub_class_name="InfoAccessSyntax",
            sup_class_name="Object",
            sub_method_raw="int m() { return 1; }",
            sup_method_raw="int m() { return 0; }",
            sub_comment_first="ignored.", sub_comment_full="ignored.",
            sup_comment_first="Returns encoded form of the object.",
            sup_comment_full="Returns encoded form of the object.")
        gold = tmp_path / "gold.jsonl"
        C.write_examples(str(gold), [ex])
        out = tmp_path / "sub.jsonl"
        assert main(["baseline", str(gold), str(out),
                     "--which", "classsub"]) == 0
        row = json.loads(out.read_text())
        assert row["prediction"] == ["returns", "encoded", "form", "of",
                                     "the", "info", "access", "syntax", "."]

    def test_unknown_baseline_rejected_by_parser(self, pipeline, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["baseline", str(pipeline["test"]),
                  str(tmp_path / "x.jsonl"), "--which", "oracle"])
        assert err.value.code == 2


class TestEval:
    def make_identical_pair_corpus(self, tmp_path, n=3):
        """Synthetic examples whose sub and sup comments coincide (the
        miner would filter these; eval must still take them)."""
        rows = []
        for i in range(n):
            rows.append(C.OverrideExample(
                id="p:a.B.m%d/0" % i, project_id="p", sub_class_name="B",
                sup_class_name="A",
                sub_method_raw="void m%d() {}" % i,
                sup_method_raw="void m%d() {}" % i,
                sub_comment_first="Returns the widget count %d." % i,
                sub_comment_full="Returns the widget count %d." % i,
                sup_comment_first="Returns the widget count %d." % i,
                sup_comment_full="Returns the widget count %d." % i))
        gold = tmp_path / "gold.jsonl"
        C.write_examples(str(gold), rows)
        return gold

    def test_copy_on_identical_pairs_scores_bleu_1(self, tmp_path):
        gold = self.make_identical_pair_corpus(tmp_path)
        pred = tmp_path / "pred.jsonl"
        report = tmp_path / "report.json"
        assert main(["baseline", str(gold), str(pred), "--which", "copy"]) == 0
        assert main(["eval", str(pred), str(gold), str(report)]) == 0
        data = json.loads(report.read_text())
        assert data["bleu4"] == 1.0
        assert data["rouge_l"] == 1.0
        assert data["n"] == 3

    def test_report_structure(self, pipeline, tmp_path):
        report = tmp_path / "report.json"
        assert main(["eval", str(pipeline["pred"]), str(pipeline["test"]),
                     str(report)]) == 0
        data = json.loads(report.read_text())
        assert set(data) == {"mode", "n", "bleu4", "meteor", "rouge_l",
                             "per_example"}
        assert data["mode"] == "first"
        assert data["n"] == len(data["per_example"])
        for entry in data["per_example"]:
            assert set(entry) == {"id", "bleu4", "meteor", "rouge_l"}
            for m in METRIC_NAMES:
                assert 0.0 <= entry[m] <= 1.0

    def test_missing_prediction_exits_2(self, pipeline, tmp_path, capsys):
        lines = pipeline["pred"].read_text().splitlines()
        partial = tmp_path / "partial.jsonl"
        partial.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
        assert main(["eval", str(partial), str(pipeline["test"]),
                     str(tmp_path / "r.json")]) == 2
        assert "missing predictions" in capsys.readouterr().err

    def test_extra_prediction_field_exits_2(self, pipeline, tmp_path):
        row = json.loads(pipeline["pred"].read_text().splitlines()[0])
        row["score"] = 1.0
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(row) + "\n", encoding="utf-8")
        assert main(["eval", str(bad), str(pipeline["test"]),
                     str(tmp_path / "r.json")]) == 2

    def test_duplicate_prediction_id_exits_2(self, pipeline, tmp_path):
        line = pipeline["pred"].read_text().splitlines()[0]
        bad = tmp_path / "dup.jsonl"
        bad.write_text(line + "\n" + line + "\n", encoding="utf-8")
        assert main(["eval", str(bad), str(pipeline["test"]),
                     str(tmp_path / "r.json")]) == 2


class TestCompare:
    @pytest.fixture()
    def two_reports(self, pipeline, tmp_path):
        copy_pred = tmp_path / "copy.jsonl"
        main(["baseline", str(pipeline["test"]), str(copy_pred),
              "--which", "copy"])
        report_a = tmp_path / "copy_report.json"
        report_b = tmp_path / "model_report.json"
        main(["eval", str(copy_pred), str(pipeline["test"]), str(report_a)])
        main(["eval", str(pipeline["pred"]), str(pipeline["test"]),
              str(report_b)])
        return report_a, report_b

    def test_bootstrap_comparison_structure(self, two_reports, tmp_path):
        a, b = two_reports
        out = tmp_path / "cmp.json"
        assert main(["compare", str(a), str(b), "--test", "bootstrap",
                     "--resamples", "500", "--seed", "0",
                     "--out", str(out)]) == 0
        cmp = json.loads(out.read_text())
        assert cmp["test"] == "bootstrap"
        assert cmp["model_a"] == "copy_report"
        assert set(cmp["metrics"]) == set(METRIC_NAMES)
        for m in METRIC_NAMES:
            assert 0.0 <= cmp["metrics"][m]["p_value"] <= 1.0
            assert cmp["metrics"][m]["mean_a"] == pytest.approx(
                json.loads(a.read_text())[m])

    def test_wilcoxon_comparison(self, two_reports, tmp_path):
        a, b = two_reports
        out = tmp_path / "cmp.json"
        assert main(["compare", str(a), str(b), "--test", "wilcoxon",
                     "--out", str(out)]) == 0
        cmp = json.loads(out.read_text())
        assert cmp["test"] == "wilcoxon"
        for m in METRIC_NAMES:
            assert 0.0 <= cmp["metrics"][m]["p_value"] <= 1.0

    def test_stdout_when_no_out_file(self, two_reports, capsys):
        a, b = two_reports
        assert main(["compare", str(a), str(b), "--resamples", "200"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert set(printed["metrics"]) == set(METRIC_NAMES)

    def test_config_sets_bootstrap_resamples_and_seed(self, two_reports, tmp_path,
                                                      monkeypatch):
        calls = []
        real = MT.bootstrap_test
        monkeypatch.setattr(MT, "bootstrap_test",
                            lambda a, b, n, seed: calls.append((n, seed)) or real(a, b, n, seed))
        a, b = two_reports
        cfg = write_config(tmp_path / "c.json", {"eval": {"bootstrap_n": 321, "seed": 7}})
        assert main(["compare", str(a), str(b), "--config", cfg,
                     "--out", str(tmp_path / "c1.json")]) == 0
        assert set(calls) == {(321, 7)}
        calls.clear()
        assert main(["compare", str(a), str(b), "--config", cfg, "--resamples", "50",
                     "--seed", "2", "--out", str(tmp_path / "c2.json")]) == 0
        assert set(calls) == {(50, 2)}
        calls.clear()
        assert main(["compare", str(a), str(b), "--out", str(tmp_path / "c3.json")]) == 0
        assert set(calls) == {(10000, 0)}

    def test_zero_resamples_exit_2(self, two_reports, tmp_path, capsys):
        a, b = two_reports
        assert main(["compare", str(a), str(b), "--resamples", "0"]) == 2
        cfg = write_config(tmp_path / "c.json", {"eval": {"bootstrap_n": 0}})
        assert main(["compare", str(a), str(b), "--config", cfg]) == 2
        assert "at least one resample" in capsys.readouterr().err

    def test_csv_export_shape(self, two_reports, tmp_path):
        a, b = two_reports
        csv_path = tmp_path / "cmp.csv"
        assert main(["compare", str(a), str(b), "--resamples", "200",
                     "--out", str(tmp_path / "c.json"),
                     "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "model," + ",".join(METRIC_NAMES)
        assert len(lines) == 4
        assert lines[1].startswith("copy_report,")
        assert lines[3].startswith("p_value,")

    def test_mismatched_ids_exit_2(self, two_reports, tmp_path):
        a, _ = two_reports
        report = json.loads(a.read_text())
        report["per_example"] = report["per_example"][:-1]
        trimmed = tmp_path / "trimmed.json"
        trimmed.write_text(json.dumps(report), encoding="utf-8")
        assert main(["compare", str(a), str(trimmed)]) == 2

    def test_non_report_json_exits_2(self, two_reports, tmp_path):
        a, _ = two_reports
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"bleu4": 1.0}', encoding="utf-8")
        assert main(["compare", str(a), str(bogus)]) == 2


class TestParser:
    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2


# the README loop in a fresh interpreter; argv: corpus, config, output dir
_LOOP = """
import sys
from hiercomment.cli import main
toy, cfg, out = sys.argv[1:]
for argv in (["mine", toy, out + "/mined.jsonl"],
             ["split", out + "/mined.jsonl", out + "/data", "--seed", "0"],
             ["fit", out + "/data/train.jsonl", out + "/data/artifacts", "--config", cfg],
             ["train", cfg, out + "/data", out + "/ckpt", "--ablation", "full"],
             ["generate", out + "/ckpt/full.ckpt", out + "/data/test.jsonl",
              out + "/preds.jsonl", "--config", cfg],
             ["eval", out + "/preds.jsonl", out + "/data/test.jsonl", out + "/report.json"]):
    if main(argv) != 0:
        sys.exit("failed: %s" % " ".join(argv))
"""


def _file_digests(root):
    return {os.path.relpath(os.path.join(d, f), root):
            hashlib.sha256(Path(d, f).read_bytes()).hexdigest()
            for d, _, files in os.walk(root) for f in files}


class TestBlasThreads:
    def test_every_output_is_the_same_for_one_and_two_threads(self, tmp_path):
        cfg = json.loads(Path(TOY_CONFIG).read_text(encoding="utf-8"))
        cfg["training"]["max_epochs"] = 1
        cfg_path = tmp_path / "toy1.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        src = str(Path(__file__).resolve().parent.parent / "src")
        digests = []
        for threads in ("1", "2"):
            out = tmp_path / ("threads" + threads)
            out.mkdir()
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            subprocess.run([sys.executable, "-c", _LOOP, TOY, str(cfg_path), str(out)],
                           env=env, check=True, capture_output=True, timeout=600)
            digests.append(_file_digests(out))
        assert "data/artifacts/features.bin" in digests[0]
        assert len(digests[0]) >= 10
        assert digests[0] == digests[1]
