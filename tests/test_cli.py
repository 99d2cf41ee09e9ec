import json
import math
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import epistyle
from epistyle import cli, hetgraph
from epistyle import train as train_mod
from epistyle.cli import _load_run, _test_episodes, main
from epistyle.config import file_sha256, load_config
from epistyle.evaluation import RetrievalIndex, read_embeddings_index
from epistyle.model import make_episode_batch
from epistyle.numcore import load_checkpoint, save_checkpoint
from test_bench_contract import tracer, workloads

CONFIG = """\
[corpus]
authors_per_market = 6
posts_per_author = 30
migrant_count = 1
distinct_pair_count = 1
subforums_per_market = 4
communities = 2
weeks = 8

[tokenizer]
kind = char
size = 120

[graph]
walks_per_user = 10
walk_length = 9
dim = 12
window = 3
negatives = 2
epochs = 1

[model]
d_token = 8
d_text = 16
d_time = 8
d_context = 12
filter_sizes = 2, 3
filters_per_size = 8
max_tokens = 96

[train]
batch_size = 16
epochs = 2
episode_len = 2
p_cross = 0.3

[eval]
kappa = 100
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cliwork")
    cfg = root / "config.ini"
    cfg.write_text(CONFIG)
    c = ["--config", str(cfg)]

    assert main(["synth", *c, "--seed", "3", "--out", str(root / "raw")]) == 0
    assert main(["preprocess", *c, "--input", str(root / "raw"), "--out", str(root / "processed")]) == 0
    assert main(["split", *c, "--input", str(root / "processed"),
                 "--out", str(root / "split" / "split.csv")]) == 0
    assert main(["train-tokenizer", *c, "--input", str(root / "processed"),
                 "--split", str(root / "split" / "split.csv"),
                 "--out", str(root / "vocab" / "vocab.txt")]) == 0
    assert main(["train", *c, "--seed", "3", "--processed", str(root / "processed"),
                 "--split", str(root / "split" / "split.csv"),
                 "--vocab", str(root / "vocab" / "vocab.txt"),
                 "--market", "alpha", "--out", str(root / "run")]) == 0
    return root, c


def _data(root, *extra, processed=None):
    return ["--processed", str(processed or root / "processed"),
            "--split", str(root / "split" / "split.csv"),
            "--vocab", str(root / "vocab" / "vocab.txt"), *map(str, extra)]


@pytest.fixture(scope="module")
def multitask_run(workspace):
    """A multitask run with random graph init that no test evaluates in place."""
    root, c = workspace
    run = root / "run-mt"
    assert main(["train", *c, "--seed", "3", *_data(root), "--multitask",
                 "--labels", str(root / "raw" / "labels.csv"), "--out", str(run)]) == 0
    return run


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--help"])
    assert exc.value.code == 0


def test_pipeline_artifacts(workspace):
    root, c = workspace
    assert (root / "raw" / "alpha.jsonl").exists()
    assert (root / "raw" / "labels.csv").exists()
    assert (root / "processed" / "beta.columns.json").exists()
    assert (root / "split" / "split.csv").exists()
    assert (root / "vocab" / "vocab.txt").exists()
    assert (root / "run" / "checkpoint.bin").exists()
    assert (root / "run" / "runlog.jsonl").exists()
    assert (root / "run" / "model_meta.json").exists()
    for stage_dir in ("raw", "processed", "split", "vocab", "run"):
        assert (root / stage_dir / "manifest.json").exists()


def test_runlog_schema(workspace):
    root, _ = workspace
    lines = (root / "run" / "runlog.jsonl").read_text().splitlines()
    assert len(lines) == 2
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"epoch", "task_losses", "val_loss", "lr", "grad_norm"}
        norm = record["grad_norm"]
        assert set(norm) == {"mean", "max"}
        assert all(math.isfinite(v) and v > 0 for v in norm.values())
        assert norm["mean"] <= norm["max"]


def test_skip_if_fresh_no_op(workspace, capsys):
    root, c = workspace
    assert main(["synth", *c, "--seed", "3", "--out", str(root / "raw"), "--skip-if-fresh"]) == 0
    assert "skipping" in capsys.readouterr().out
    # changed seed -> stale -> regenerates (into a copy to keep fixture intact)
    assert main(["synth", *c, "--seed", "4", "--out", str(root / "raw2"), "--skip-if-fresh"]) == 0
    out = capsys.readouterr().out
    assert "skipping" not in out


def test_skip_if_fresh_reruns_when_an_output_changed(workspace, tmp_path, capsys):
    root, c = workspace
    split = tmp_path / "split.csv"
    argv = ["split", *c, "--input", str(root / "processed"), "--out", str(split), "--skip-if-fresh"]
    assert main(argv) == 0
    written = split.read_bytes()
    assert main(argv) == 0
    assert "skipping" in capsys.readouterr().out
    split.write_text("")
    assert main(argv) == 0
    assert "skipping" not in capsys.readouterr().out
    assert split.read_bytes() == written


def test_skip_if_fresh_reruns_over_a_manifest_that_is_not_utf8(tmp_path, capsys):
    config = tmp_path / "config.ini"
    config.write_text(CONFIG)
    out = tmp_path / "raw"
    argv = ["synth", "--config", str(config), "--out", str(out), "--skip-if-fresh"]
    assert main(argv) == 0
    written = (out / "alpha.jsonl").read_bytes()
    (out / "manifest.json").write_bytes(b"\xff\xfe")
    capsys.readouterr()
    assert main(argv) == 0
    assert "skipping" not in capsys.readouterr().out
    assert (out / "alpha.jsonl").read_bytes() == written
    assert json.loads((out / "manifest.json").read_text())["stage"] == "synth"


@pytest.mark.parametrize("argv", [
    ["sybil", "--run", "r", "--processed", "p", "--split", "s", "--vocab", "v", "--user", "m:u"],
    ["attribute", "--run", "r", "--processed", "p", "--split", "s", "--vocab", "v",
     "--market", "m", "--author", "u"],
    ["compare", "--group-a", "a.json", "--group-b", "b.json"],
])
def test_skip_if_fresh_is_rejected_where_no_manifest_is_written(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--skip-if-fresh"])
    assert exc.value.code == 2
    assert "--skip-if-fresh" in capsys.readouterr().err


def test_missing_artifact_exits_2(tmp_path, capsys):
    code = main(["eval", "--run", str(tmp_path / "nope"), "--processed", str(tmp_path),
                 "--split", str(tmp_path / "s.csv"), "--vocab", str(tmp_path / "v.txt")])
    assert code == 2
    assert "nope" in capsys.readouterr().err


def test_bad_config_section_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[nosuch]\nx = 1\n")
    assert main(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_eval_and_downstream(workspace):
    root, c = workspace
    assert main(["eval", *c, "--seed", "3", "--run", str(root / "run"),
                 "--processed", str(root / "processed"),
                 "--split", str(root / "split" / "split.csv"),
                 "--vocab", str(root / "vocab" / "vocab.txt")]) == 0
    metrics = json.loads((root / "run" / "metrics.json").read_text())
    assert "alpha" in metrics["markets"]
    block = metrics["markets"]["alpha"]["all"]
    assert 0.0 <= block["mrr"] <= 1.0
    assert (root / "run" / "embeddings-alpha.npy").exists()
    assert (root / "run" / "embeddings-alpha.json").exists()

    assert main(["attribute", *c, "--run", str(root / "run"),
                 "--processed", str(root / "processed"),
                 "--split", str(root / "split" / "split.csv"),
                 "--vocab", str(root / "vocab" / "vocab.txt"),
                 "--market", "alpha", "--author", "alpha_u00", "--steps", "10"]) == 0
    lines = (root / "run" / "attribution.jsonl").read_text().splitlines()
    rec = json.loads(lines[0])
    assert set(rec) == {"post_id", "token", "score"}


def test_eval_keeps_the_train_manifest(workspace, tmp_path, capsys):
    # eval writes into the run directory; its manifest must not replace
    # train's, or train --skip-if-fresh would retrain a finished run
    root, c = workspace
    run = tmp_path / "run"
    data = ["--seed", "3", "--processed", str(root / "processed"),
            "--split", str(root / "split" / "split.csv"),
            "--vocab", str(root / "vocab" / "vocab.txt"), "--skip-if-fresh"]
    train = ["train", *c, *data, "--market", "alpha", "--out", str(run)]
    evaluate = ["eval", *c, *data, "--run", str(run)]
    assert main(train) == 0
    assert main(evaluate) == 0
    capsys.readouterr()
    assert main(train) == 0
    assert main(evaluate) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [f"train: fresh, skipping ({run})", f"eval: fresh, skipping ({run})"]
    assert json.loads((run / "manifest.json").read_text())["stage"] == "train"
    assert json.loads((run / "eval-manifest.json").read_text())["stage"] == "eval"


def test_loaded_run_builds_no_autodiff_graph(workspace):
    root, _ = workspace
    meta, model, encoder = _load_run(root / "run", root / "vocab" / "vocab.txt")
    data = SimpleNamespace(processed=str(root / "processed"),
                           split=str(root / "split" / "split.csv"))
    episodes, _ = _test_episodes(meta, data)
    out = model.embed_episodes(make_episode_batch(episodes["alpha"][:4], encoder, model))
    assert out._parents == ()


def test_truncated_checkpoint_exits_1_with_one_line(workspace, tmp_path, capsys):
    root, c = workspace
    run = tmp_path / "run"
    shutil.copytree(root / "run", run)
    ckpt = run / "checkpoint.bin"
    ckpt.write_bytes(ckpt.read_bytes()[:20])  # cut inside the first block's header
    code = main(["eval", *c, "--run", str(run), "--processed", str(root / "processed"),
                 "--split", str(root / "split" / "split.csv"),
                 "--vocab", str(root / "vocab" / "vocab.txt")])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and "checkpoint.bin" in err


@pytest.mark.parametrize("damage, named", [
    (lambda raw: raw[:5] + struct.pack("<I", 2) + raw[9:] + raw[9:], "block 'w' appears twice"),
    (lambda raw: raw[:9] + struct.pack("<H", 2) + b"\xff\xfe" + raw[12:],
     "block name b'\\xff\\xfe' is not UTF-8"),
], ids=["repeated-name", "undecodable-name"])
def test_a_checkpoint_with_a_bad_block_name_makes_eval_exit_1_with_one_line(
        workspace, tmp_path, capsys, damage, named):
    root, c = workspace
    run = tmp_path / "run"
    shutil.copytree(root / "run", run)
    ckpt = run / "checkpoint.bin"
    save_checkpoint(ckpt, {"w": np.ones(3, dtype=np.float32)})
    ckpt.write_bytes(damage(ckpt.read_bytes()))
    assert main(["eval", *c, *_data(root, "--run", run, "--out", tmp_path / "eval")]) == 1
    assert capsys.readouterr().err == f"error: {ckpt}: {named}\n"
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("damage, named", [
    (lambda meta: json.dumps({k: v for k, v in json.loads(meta).items() if k != "episode_len"}),
     "not a JSON object with key(s) episode_len"),
    (lambda meta: meta[: len(meta) // 2], "not JSON ("),
    (lambda meta: json.dumps({**json.loads(meta), "subforum_maps": ["alpha"]}),
     "bad model config ("),
], ids=["missing-key", "truncated", "subforum-maps-list"])
def test_damaged_model_meta_exits_1_naming_the_file(workspace, tmp_path, capsys, damage, named):
    root, c = workspace
    run = tmp_path / "run"
    shutil.copytree(root / "run", run)
    meta = run / "model_meta.json"
    meta.write_text(damage(meta.read_text()))
    assert main(["eval", *c, *_data(root, "--run", run, "--out", tmp_path / "eval")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {meta}: {named}")


@pytest.mark.parametrize("doc", [
    "[]",
    '{"neighbors": [], "node_keys": {}}',
    '{"neighbors": {}, "node_keys": ["U0"]}',
    '{"neighbors": {"U0": {"T": "T0"}}, "node_keys": {"U0": "alice"}}',
    '{"neighbors": {"U0": {"T": [5]}}, "node_keys": {"U0": "alice"}}',
    '{"neighbors": {"U0": {"T": ["T9"]}}, "node_keys": {"U0": "alice"}}',
    '{"neighbors": {',
], ids=["list", "neighbors-list", "node-keys-list", "neighbors-not-lists", "neighbor-not-a-label",
        "unknown-neighbor", "truncated"])
def test_malformed_graph_json_exits_1_with_one_line(tmp_path, capsys, doc):
    graph = tmp_path / "graph.json"
    graph.write_text(doc + "\n")
    code = main(["walk", "--graph", str(graph), "--out", str(tmp_path / "walks.txt")])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and "Traceback" not in err and str(graph) in err


# case -> (file, exit code, corruption, text the error line must hold besides the path)
MALFORMED_INPUTS = {
    "truncated-vocab": ("vocab", 1, lambda text: text[:-20], ""),
    "wrong-kind-vocab": ("vocab", 1,
                         lambda text: text.replace('"kind": "char"', '"kind": "word"'), ""),
    "reserved-block-vocab": ("vocab", 1,
                             lambda text: text.replace('"[PAD]", "[UNK]"', '"[UNK]", "[PAD]"'), ""),
    "short-labels-row": ("labels", 1, lambda text: text + "alpha,alpha_u0,beta\n", ""),
    "config-without-section": ("config", 2, lambda text: "epochs = 1\n" + text, ""),
    "config-duplicate-key": ("config", 2,
                             lambda text: text.replace("[train]\n", "[train]\nepochs = 1\n"), ""),
    "config-non-integer": ("config", 2, lambda text: text.replace("epochs = 2\n", "epochs = x\n"),
                           "[train] epochs: expected an integer, got 'x'"),
    "config-fractional-integer": ("config", 2,
                                  lambda text: text.replace("walk_length = 9", "walk_length = 2.5"),
                                  "[graph] walk_length: expected an integer, got '2.5'"),
    "config-deleted-key": ("config", 2,
                           lambda text: text.replace("[train]\n", "[train]\ngrad_clip = 1\n"),
                           "[train] has no key 'grad_clip'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_vocab_labels_or_config_exits_with_one_line(workspace, tmp_path, capsys, case):
    root, _ = workspace
    paths = {"vocab": tmp_path / "vocab.txt", "labels": tmp_path / "labels.csv",
             "config": tmp_path / "config.ini"}
    shutil.copy(root / "vocab" / "vocab.txt", paths["vocab"])
    shutil.copy(root / "raw" / "labels.csv", paths["labels"])
    paths["config"].write_text(CONFIG)
    which, want, corrupt, named = MALFORMED_INPUTS[case]
    text = paths[which].read_text()
    paths[which].write_text(corrupt(text))
    assert paths[which].read_text() != text
    common = ["--config", str(paths["config"]), "--processed", str(root / "processed"),
              "--split", str(root / "split" / "split.csv"), "--vocab", str(paths["vocab"])]
    commands = [["train", *common, "--seed", "3", "--multitask", "--labels", str(paths["labels"]),
                 "--out", str(tmp_path / "run")]]
    if which != "labels":
        commands.append(["eval", *common, "--run", str(root / "run")])
    for argv in commands:
        code = main(argv)
        err = capsys.readouterr().err
        assert code == want, (argv[0], err)
        assert len(err.splitlines()) == 1 and "Traceback" not in err and str(paths[which]) in err
        assert named in err


@pytest.mark.parametrize("old, new, named", [
    ("[train]\n", "[train]\nloss = xx\n", "[train] loss: expected one of sm, cf, af, ms, got 'xx'"),
    ("[model]\n", "[model]\npooling = attention\n",
     "[model] pooling: expected one of mean, transformer, got 'attention'"),
    ("kind = char\n", "kind = word\n", "[tokenizer] kind: expected one of char, bpe, got 'word'"),
    ("kappa = 100\n", "kappa = 0\n", "[eval] kappa: expected at least 1, got 0"),
], ids=["loss", "pooling", "tokenizer-kind", "kappa"])
def test_bad_choice_or_kappa_in_config_exits_2_before_any_directory(workspace, tmp_path, capsys,
                                                                     old, new, named):
    root, _ = workspace
    config = tmp_path / "config.ini"
    config.write_text(CONFIG.replace(old, new))
    c = ["--config", str(config)]
    for argv in (["train", *c, *_data(root), "--market", "alpha", "--out", tmp_path / "run"],
                 ["train-tokenizer", *c, "--input", root / "processed",
                  "--split", root / "split" / "split.csv", "--out", tmp_path / "vocab" / "v.txt"],
                 ["eval", *c, *_data(root), "--run", root / "run", "--out", tmp_path / "eval"]):
        assert main(list(map(str, argv))) == 2
        assert capsys.readouterr().err == f"error: {config}: {named}\n"
    assert sorted(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("kappa", ["0", "-1"])
def test_kappa_flag_below_1_exits_2_before_any_embedding(workspace, tmp_path, capsys,
                                                         monkeypatch, kappa):
    root, c = workspace
    monkeypatch.setattr(RetrievalIndex, "from_episodes", classmethod(_refuse))
    assert main(["eval", *c, *_data(root, "--run", root / "run", "--kappa", kappa,
                                    "--out", tmp_path / "eval")]) == 2
    assert capsys.readouterr().err == f"error: --kappa: expected at least 1, got {kappa}\n"
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("argv, named", [
    (["sybil", "--user", "alpha:alpha_u00", "-k", "0"], "-k: expected at least 1, got 0"),
    (["attribute", "--market", "alpha", "--author", "alpha_u00", "--steps", "0"],
     "--steps: expected at least 1, got 0"),
    (["sybil", "--user", "alpha_u00"], "--user expects market:username"),
], ids=["k", "steps", "user"])
def test_bad_sybil_or_attribute_flag_exits_2_before_loading_the_run(workspace, tmp_path, capsys,
                                                                    monkeypatch, argv, named):
    root, c = workspace
    monkeypatch.setattr(cli, "_load_run", _refuse)
    assert main([argv[0], *c, *_data(root, "--run", root / "run", *argv[1:],
                                     "--out", tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {named}\n"


@pytest.mark.parametrize("labels", ["missing", "present"])
def test_labels_without_multitask_exits_2_before_any_work(workspace, tmp_path, capsys, labels):
    root, c = workspace
    path = root / "raw" / "labels.csv" if labels == "present" else tmp_path / "nope.csv"
    assert main(["train", *c, *_data(root, "--market", "alpha", "--labels", path,
                                     "--out", tmp_path / "run")]) == 2
    assert capsys.readouterr().err == "error: --labels needs --multitask\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("argv, named", [
    (["--market", "alpha", "--context-init", "alpha={ctx}"],
     "--context-init needs --graph-init pretrained"),
    (["--market", "alpha", "--graph-init", "pretrained", "--context-init", "alpha={ctx}",
      "--context-init", "beta={ctx}"], "--context-init for ['beta']: not a market this run trains"),
], ids=["random-init", "untrained-market"])
def test_a_context_init_that_nothing_reads_exits_2_before_any_directory(workspace, tmp_path,
                                                                        capsys, argv, named):
    root, c = workspace
    ctx = tmp_path / "context.tsv"
    ctx.write_text("subforum\tdim0\n")
    argv = [a.format(ctx=ctx) for a in argv]
    assert main(["train", *c, *_data(root, *argv, "--out", tmp_path / "run")]) == 2
    assert capsys.readouterr().err == f"error: {named}\n"
    assert sorted(tmp_path.iterdir()) == [ctx]


@pytest.mark.parametrize("old, new, flags, named", [
    ("", "", ["--p-cross", "2"], "--p-cross: must be in [0, 1], got 2.0"),
    ("episode_len = 2\n", "episode_len = 0\n", [], "[train] episode_len must be in 1..9, got 0"),
    ("batch_size = 16\n", "batch_size = 0\n", [], "[train] batch_size must be at least 1, got 0"),
    ("d_text = 16\n", "d_text = 0\n", [], "[model] d_text must be positive, got 0"),
    ("[model]\n", "[model]\ndropout = 1.5\n", [], "[model] dropout must be in [0, 1), got 1.5"),
    ("", "", ["--epochs", "0"], "--epochs: must be at least 1, got 0"),
    ("filter_sizes = 2, 3\n", "filter_sizes = 0\n", [],
     "[model] filter_sizes must be positive, got (0,)"),
    ("communities = 2\n", "communities = 0\n", [],
     "[corpus] communities must be at least 1, got 0"),
    ("subforums_per_market = 4\n", "subforums_per_market = 0\n", [],
     "[corpus] subforums_per_market must be at least 1, got 0"),
    ("weeks = 8\n", "weeks = 0\n", [], "[corpus] weeks must be in 1..416740, got 0"),
    ("dim = 12\n", "dim = 0\n", [], "[graph] dim must be at least 1, got 0"),
    ("walks_per_user = 10\n", "walks_per_user = 0\n", [],
     "[graph] walks_per_user must be at least 1, got 0"),
    ("walk_length = 9\n", "walk_length = 1\n", [], "[graph] walk_length must be at least 2, got 1"),
    ("negatives = 2\n", "negatives = 0\n", [], "[graph] negatives must be at least 1, got 0"),
    ("epochs = 1\n", "epochs = 0\n", [], "[graph] epochs must be at least 1, got 0"),
    ("", "", ["--walks-per-user", "0"], "--walks-per-user: must be at least 1, got 0"),
    ("max_tokens = 96\n", "max_tokens = 2\n", [],
     "[model] max_tokens must be at least the widest filter, 3, got 2"),
    ("size = 120\n", "size = 7\n", [],
     "[tokenizer] size must be at least 8 for a char vocabulary, got 7"),
    ("kind = char\n", "kind = bpe\n", [],
     "[tokenizer] size must be at least 264 for a bpe vocabulary, got 120"),
    ("posts_per_author = 30\n", "posts_per_author = 0\n", [],
     "[corpus] posts_per_author must be at least 1, got 0"),
    ("communities = 2\n", "communities = 5\n", [],
     "[corpus] communities must be at most subforums_per_market (4), got 5"),
], ids=["p-cross-flag", "episode-len", "batch-size", "d-text", "dropout", "epochs-flag",
        "filter-sizes", "communities", "subforums", "weeks", "graph-dim", "walks-per-user",
        "walk-length", "negatives", "graph-epochs", "walks-per-user-flag", "max-tokens",
        "char-size", "bpe-size", "posts-per-author", "communities-above-subforums"])
def test_a_bad_config_class_value_exits_2_before_any_directory(workspace, tmp_path, capsys,
                                                               old, new, flags, named):
    root, _ = workspace
    config = tmp_path / "config.ini"
    config.write_text(CONFIG.replace(old, new))
    c = ["--config", str(config)]
    commands = [["train", *c, *_data(root), "--market", "alpha", "--out", tmp_path / "run", *flags]]
    if "--walks-per-user" in flags:  # a flag of walk only
        commands = [["walk", *c, "--graph", root / "graph.json", "--out", tmp_path / "walks", *flags]]
    if not flags:  # a fault in the file fails every stage
        commands.append(["synth", *c, "--out", tmp_path / "raw"])
    for argv in commands:
        assert main(list(map(str, argv))) == 2
        assert capsys.readouterr().err == f"error: {'' if flags else f'{config}: '}{named}\n"
    assert sorted(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("command, flag", [(command, flag)
                                           for command, flags in cli.KEY_FLAGS.items()
                                           for flag in flags])
def test_a_bad_key_flag_value_exits_2_with_one_line_naming_the_flag(tmp_path, capsys, command,
                                                                    flag):
    section, key = cli.KEY_FLAGS[command][flag]
    bad = "nonsense" if isinstance(cli.SECTION_DEFAULTS[section][key], str) else "-1"
    out = tmp_path / "out"
    assert main([*_key_flag_command(command, out), flag, bad]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag}: ") and len(err.splitlines()) == 1 and bad in err
    assert not out.exists()


def _key_flag_command(command, out):
    """`command` with made-up values for its required arguments, `out` among them."""
    return [command, *map(str, {
        "walk": ["--graph", "g", "--out", out],
        "graph-embed": ["--walks", "w", "--graph", "g", "--out", out],
        "train": ["--processed", "p", "--split", "s", "--vocab", "v", "--out", out],
        "eval": ["--run", "r", "--processed", "p", "--split", "s", "--vocab", "v", "--out", out],
    }[command])]


@pytest.mark.parametrize("command, flag", [(command, flag)
                                           for command, flags in cli.KEY_FLAGS.items()
                                           for flag in flags])
def test_a_key_flag_value_that_does_not_parse_exits_2_with_one_line(tmp_path, capsys, command,
                                                                    flag):
    section, key = cli.KEY_FLAGS[command][flag]
    like = cli.SECTION_DEFAULTS[section][key]
    # argparse takes any word for a string key, but not one that looks like a flag
    bad, named = (("-x", "expected one argument") if isinstance(like, str) else
                  ("x", f"invalid {type(like).__name__} value: 'x'"))
    with pytest.raises(SystemExit) as exc:
        main([*_key_flag_command(command, tmp_path / "out"), flag, bad])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: {flag}: {named}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["missing", "directory", "non-utf-8"])
def test_a_config_that_cannot_be_read_exits_2_with_one_line_naming_it(tmp_path, capsys, kind):
    # a directory used to be skipped for the built-in defaults, a non-UTF-8
    # file to exit 1 without naming it
    config = tmp_path / "config.ini"
    if kind == "directory":
        config.mkdir()
    elif kind == "non-utf-8":
        config.write_bytes(b"\xff" + CONFIG.encode())
    assert main(["synth", "--config", str(config), "--out", str(tmp_path / "raw")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}: cannot read config file (")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "raw").exists()


# a value for each entry of cli.KEY_FLAGS, unlike the one that CONFIG, with
# pooling = transformer, sets in the file
KEY_FLAG_VALUES = {("walk", "--walks-per-user"): 3, ("graph-embed", "--epochs"): 2,
                   ("train", "--epochs"): 1, ("train", "--pooling"): "mean",
                   ("train", "--p-cross"): 0.5, ("eval", "--kappa"): 7}


def test_key_flag_values_cover_every_key_flag():
    assert set(KEY_FLAG_VALUES) == {(c, f) for c, flags in cli.KEY_FLAGS.items() for f in flags}


@pytest.mark.parametrize("command, flag", sorted(KEY_FLAG_VALUES))
def test_a_key_flag_overrides_its_config_key_in_the_manifest(workspace, tmp_path, command, flag):
    root, _ = workspace
    config = tmp_path / "config.ini"
    config.write_text(CONFIG.replace("[model]\n", "[model]\npooling = transformer\n"))
    c = ["--config", str(config), "--seed", "3"]
    section, key = cli.KEY_FLAGS[command][flag]
    value = KEY_FLAG_VALUES[command, flag]
    in_file = cli.section_values(load_config(config, cli.SECTION_DEFAULTS), section,
                                 cli.SECTION_DEFAULTS[section])
    assert in_file[key] != value
    graph, walks, out = tmp_path / "graph.json", tmp_path / "walks.txt", tmp_path / "out"
    if command in ("walk", "graph-embed"):
        assert main(["build-graph", *c, "--input", str(root / "processed"),
                     "--split", str(root / "split" / "split.csv"), "--market", "alpha",
                     "--out", str(graph)]) == 0
        assert main(["walk", *c, "--graph", str(graph), "--out", str(walks)]) == 0
    argv = {"walk": ["--graph", graph, "--out", out / "walks.txt"],
            "graph-embed": ["--walks", walks, "--graph", graph, "--out", out],
            "train": _data(root, "--market", "alpha", "--out", out),
            "eval": _data(root, "--run", root / "run", "--out", out)}[command]
    assert main([command, *c, *map(str, argv), flag, str(value)]) == 0
    manifest = json.loads((out / ("eval-manifest.json" if command == "eval" else "manifest.json"))
                          .read_text())
    recorded = manifest["config"][section] if command == "train" else manifest["config"]
    assert recorded[key] == value


@pytest.mark.parametrize("command, flag", [
    ("walk", "--walk-length"), ("graph-embed", "--dim"), ("train-tokenizer", "--kind"),
    ("train-tokenizer", "--size"), ("train", "--episode-len"), ("train", "--loss"),
    ("train", "--batch-size"), ("train", "--max-tokens"), ("train", "--tokenizer"),
])
def test_a_deleted_key_flag_exits_2(capsys, command, flag):
    required = {"walk": ["--graph", "g", "--out", "o"],
                "graph-embed": ["--walks", "w", "--graph", "g", "--out", "o"],
                "train-tokenizer": ["--input", "i", "--split", "s", "--out", "o"],
                "train": ["--processed", "p", "--split", "s", "--vocab", "v", "--out", "o"]}
    with pytest.raises(SystemExit) as exc:
        main([command, *required[command], flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


def test_eval_ranks_each_query_once_per_index(workspace, multitask_run, tmp_path, monkeypatch):
    root, c = workspace
    calls = []
    rank = RetrievalIndex.first_same_author_rank
    monkeypatch.setattr(RetrievalIndex, "first_same_author_rank",
                        lambda self, i: calls.append((id(self), i)) or rank(self, i))
    assert main(["eval", *c, "--seed", "3",
                 *_data(root, "--run", multitask_run, "--out", tmp_path)]) == 0
    blocks = json.loads((tmp_path / "metrics.json").read_text())["markets"].values()
    # the config's kappa exceeds every eligible count: "all" is seen and novel together
    assert all(b["all"]["n_queries"] == sum(b[g]["n_queries"] for g in ("seen", "novel") if g in b)
               for b in blocks)
    assert len(set(calls)) == len(calls) == sum(b["all"]["n_queries"] for b in blocks)


def _metrics_files(directory: Path) -> list[str]:
    """Five metrics files, one per train seed, each with recall@1, @5 and @10."""
    paths = []
    for seed in range(5):
        path = directory / f"metrics-{seed}.json"
        path.write_text(json.dumps({
            "config": {"episode_len": 5, "tokenizer": "char", "train_seed": seed},
            "markets": {"alpha": {"all": {"mrr": 0.5, "recall": {"1": 0.4, "5": 0.6, "10": 0.7}}}},
        }))
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("metric", ["foo", "recall", "recall@", "recall@x", "recall@0", "mrr@5"])
def test_compare_rejects_an_unknown_metric_with_one_line(tmp_path, capsys, metric):
    files = _metrics_files(tmp_path)
    code = main(["compare", "--metric", metric, "--group-a", *files, "--group-b", *files])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and "Traceback" not in err and repr(metric) in err


def test_compare_names_the_file_without_the_asked_recall(tmp_path, capsys):
    files = _metrics_files(tmp_path)
    code = main(["compare", "--metric", "recall@7", "--group-a", *files, "--group-b", *files])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert files[0] in err and "recall@7" in err and "1, 5, 10" in err
    assert main(["compare", "--metric", "recall@5", "--group-a", *files, "--group-b", *files]) == 0
    assert "mean_a=0.6000" in capsys.readouterr().out


@pytest.mark.parametrize("key", ["markets", "config"])
def test_compare_names_a_metrics_file_without_markets_or_config(tmp_path, capsys, key):
    files = _metrics_files(tmp_path)
    doc = json.loads(Path(files[2]).read_text())
    del doc[key]
    Path(files[2]).write_text(json.dumps(doc))
    assert main(["compare", "--group-a", *files, "--group-b", *files]) == 1
    assert capsys.readouterr().err == (f"error: {files[2]}: not a JSON object with key(s) "
                                       f"{key}\n")


def test_non_numeric_context_init_cell_exits_1_naming_its_line(workspace, tmp_path, capsys):
    root, c = workspace
    bad = tmp_path / "context.tsv"
    bad.write_text("subforum\tdim0\tdim1\ns0\t0.5\tabc\n")
    code = main(["train", *c, "--seed", "3", *_data(root), "--market", "alpha",
                 "--graph-init", "pretrained", "--context-init", f"alpha={bad}",
                 "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and "Traceback" not in err and f"{bad}:2:" in err


@pytest.mark.parametrize("text", ["", "subforum\tdim0\tdim1\n"])
def test_empty_context_init_exits_1_naming_the_file(workspace, tmp_path, capsys, text):
    root, c = workspace
    empty = tmp_path / "context.tsv"
    empty.write_text(text)
    code = main(["train", *c, "--seed", "3", *_data(root), "--market", "alpha",
                 "--graph-init", "pretrained", "--context-init", f"alpha={empty}",
                 "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {empty}: ")


@pytest.mark.parametrize("cell", ["nan", "-inf", "1e39"])
def test_non_finite_context_init_cell_exits_1_naming_its_line(workspace, tmp_path, capsys, cell):
    root, c = workspace
    bad = tmp_path / "context.tsv"
    header = "subforum\t" + "\t".join(f"dim{i}" for i in range(12))
    bad.write_text(f"{header}\nalpha_s0" + "\t0.5" * 12 + "\nalpha_s1" + "\t0.25" * 11
                   + f"\t{cell}\n")
    code = main(["train", *c, "--seed", "3", *_data(root), "--market", "alpha",
                 "--graph-init", "pretrained", "--context-init", f"alpha={bad}",
                 "--out", str(tmp_path / "run")])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: {bad}:3: a value is not a finite float32\n"


def _diverging_train(root, c, tmp_path, monkeypatch, capsys, batch_size):
    """Exit code, stderr and run directory of a one-epoch train at Adam rate
    1e30, which drives the loss non-finite after the first step."""
    cfg = tmp_path / "config.ini"
    cfg.write_text(CONFIG.replace("batch_size = 16", f"batch_size = {batch_size}"))
    monkeypatch.setattr(train_mod, "LR", 1e30)
    run = tmp_path / "run"
    code = main(["train", "--config", str(cfg), "--seed", "3", *_data(root),
                 "--market", "alpha", "--epochs", "1", "--out", str(run)])
    return code, capsys.readouterr().err, run


def test_non_finite_validation_loss_exits_1_without_a_checkpoint(workspace, tmp_path,
                                                                 monkeypatch, capsys):
    # one step per epoch: the step loss is finite, every validation loss is not
    code, err, run = _diverging_train(*workspace, tmp_path, monkeypatch, capsys, batch_size=512)
    assert code == 1
    assert err == "error: non-finite validation loss nan (task=alpha)\n"
    assert not (run / "checkpoint.bin").exists() and not (run / "manifest.json").exists()


def test_non_finite_step_loss_exits_1_with_one_line(workspace, tmp_path, monkeypatch, capsys):
    code, err, run = _diverging_train(*workspace, tmp_path, monkeypatch, capsys, batch_size=16)
    assert code == 1
    assert err == "error: non-finite loss nan (task=alpha, epoch=0, step=1)\n"
    assert not run.exists()  # no checkpoint, no manifest, no empty directory


def test_a_checkpoint_holding_nan_makes_eval_exit_1_naming_the_block(workspace, tmp_path,
                                                                     capsys):
    root, c = workspace
    run = tmp_path / "run"
    shutil.copytree(root / "run", run)
    params = load_checkpoint(run / "checkpoint.bin")
    params["text_fc.w"][:] = np.nan
    save_checkpoint(run / "checkpoint.bin", params)
    assert main(["eval", *c, *_data(root, "--run", run, "--out", tmp_path / "eval")]) == 1
    assert capsys.readouterr().err == (f"error: {run / 'checkpoint.bin'}: block 'text_fc.w' "
                                       f"holds a non-finite value\n")
    assert not (tmp_path / "eval").exists()


@pytest.fixture(scope="module")
def transformer_run(workspace):
    """A one-epoch transformer-pooling run on alpha."""
    root, c = workspace
    run = root / "run-tf"
    assert main(["train", *c, "--seed", "3", *_data(root), "--market", "alpha",
                 "--pooling", "transformer", "--epochs", "1", "--out", str(run)]) == 0
    return run


@pytest.mark.parametrize("into, named", [
    ("mean", "is (36, 128), the model of {meta} has no such block"),
    ("transformer", "is missing, the model of {meta} has (36, 128)"),
], ids=["transformer-into-mean", "mean-into-transformer"])
def test_a_checkpoint_of_another_model_makes_eval_exit_1_naming_the_block(
        workspace, transformer_run, tmp_path, capsys, into, named):
    # a transformer checkpoint in a mean-pooling run used to be evaluated
    # on borrowed weights, the reverse to fail with a bare KeyError
    root, c = workspace
    runs = {"mean": root / "run", "transformer": transformer_run}
    run = tmp_path / "run"
    shutil.copytree(runs[into], run)
    other = runs["transformer" if into == "mean" else "mean"]
    shutil.copy(other / "checkpoint.bin", run / "checkpoint.bin")
    assert main(["eval", *c, *_data(root, "--run", run, "--out", tmp_path / "eval")]) == 1
    assert capsys.readouterr().err == (f"error: {run / 'checkpoint.bin'}: block 'pool.in.w' "
                                       f"{named.format(meta=run / 'model_meta.json')}\n")
    assert not (tmp_path / "eval").exists()


def test_diverged_graph_embed_exits_1_without_output(workspace, tmp_path, monkeypatch, capsys):
    root, c = workspace
    graph, walks = tmp_path / "graph.json", tmp_path / "walks.txt"
    assert main(["build-graph", *c, "--input", str(root / "processed"),
                 "--split", str(root / "split" / "split.csv"), "--market", "alpha",
                 "--out", str(graph)]) == 0
    assert main(["walk", *c, "--seed", "3", "--graph", str(graph), "--out", str(walks)]) == 0
    monkeypatch.setattr(hetgraph, "SKIPGRAM_LR", 1e30)
    capsys.readouterr()
    code = main(["graph-embed", *c, "--seed", "3", "--walks", str(walks), "--graph", str(graph),
                 "--out", str(tmp_path / "emb")])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and "diverged in epoch 0" in err
    assert not (tmp_path / "emb" / "context.tsv").exists()
    assert not (tmp_path / "emb" / "manifest.json").exists()


def test_graph_embed_on_walks_without_pairs_exits_1_without_output(workspace, tmp_path, capsys):
    root, c = workspace
    graph = tmp_path / "graph.json"
    assert main(["build-graph", *c, "--input", str(root / "processed"),
                 "--split", str(root / "split" / "split.csv"), "--market", "alpha",
                 "--out", str(graph)]) == 0
    walks = tmp_path / "walks.txt"
    walks.write_text("U0\nU1\nU2\n")
    capsys.readouterr()
    assert main(["graph-embed", *c, "--seed", "3", "--walks", str(walks), "--graph", str(graph),
                 "--out", str(tmp_path / "emb")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "no (center, context) pair" in err
    assert not (tmp_path / "emb" / "context.tsv").exists()


def test_graph_stages_and_multitask(workspace, capsys):
    root, c = workspace
    for market in ("alpha", "beta"):
        assert main(["build-graph", *c, "--input", str(root / "processed"),
                     "--split", str(root / "split" / "split.csv"), "--market", market,
                     "--out", str(root / "graph" / market / "graph.json")]) == 0
        assert main(["walk", *c, "--seed", "3", "--graph", str(root / "graph" / market / "graph.json"),
                     "--out", str(root / "walks" / market / "walks.txt")]) == 0
        assert main(["graph-embed", *c, "--seed", "3",
                     "--walks", str(root / "walks" / market / "walks.txt"),
                     "--graph", str(root / "graph" / market / "graph.json"),
                     "--out", str(root / "emb" / market)]) == 0
        assert (root / "emb" / market / "context.tsv").exists()

    assert main(["train", *c, "--seed", "3", "--processed", str(root / "processed"),
                 "--split", str(root / "split" / "split.csv"),
                 "--vocab", str(root / "vocab" / "vocab.txt"),
                 "--multitask", "--labels", str(root / "raw" / "labels.csv"),
                 "--graph-init", "pretrained",
                 "--context-init", f"alpha={root}/emb/alpha/context.tsv",
                 "--context-init", f"beta={root}/emb/beta/context.tsv",
                 "--out", str(root / "run-multi")]) == 0
    meta = json.loads((root / "run-multi" / "model_meta.json").read_text())
    assert meta["multitask"] is True
    assert {h["name"] for h in meta["heads"]} == {"alpha", "beta", "cross"}

    assert main(["sybil", *c, "--run", str(root / "run-multi"),
                 "--processed", str(root / "processed"),
                 "--split", str(root / "split" / "split.csv"),
                 "--vocab", str(root / "vocab" / "vocab.txt"),
                 "--user", "alpha:alpha_u00", "-k", "3"]) == 0
    sybil = json.loads((root / "run-multi" / "sybil.json").read_text())
    assert sybil["candidate_market"] == "beta"

    short = root / "short-context.tsv"
    lines = (root / "emb" / "alpha" / "context.tsv").read_text().splitlines()
    short.write_text("\n".join([lines[0], lines[1].rsplit("\t", 1)[0], *lines[2:]]) + "\n")
    capsys.readouterr()
    assert main(["train", *c, "--seed", "3", "--processed", str(root / "processed"),
                 "--split", str(root / "split" / "split.csv"),
                 "--vocab", str(root / "vocab" / "vocab.txt"),
                 "--market", "alpha", "--graph-init", "pretrained",
                 "--context-init", f"alpha={short}", "--out", str(root / "run-short")]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and f"{short}:2:" in err


def test_pgp_pairs_stage(workspace):
    root, c = workspace
    assert main(["pgp-pairs", *c, "--input", str(root / "raw"),
                 "--out", str(root / "pgp" / "candidates.csv")]) == 0
    text = (root / "pgp" / "candidates.csv").read_text()
    assert text.splitlines()[0] == "market_a,user_a,market_b,user_b,same_author"


def _sybil(c, data, out):
    assert main(["sybil", *c, *data, "--user", "alpha:alpha_u00",
                 "-k", "3", "--out", str(out / "sybil.json")]) == 0
    return (out / "sybil.json").read_bytes()


def _link(c, data, out):
    """sybil and attribute on the run in `data`, writing into `out`; the
    bytes they wrote."""
    out.mkdir()
    sybil = _sybil(c, data, out)
    assert main(["attribute", *c, *data, "--market", "alpha",
                 "--author", "alpha_u00", "--steps", "4",
                 "--out", str(out / "attribution.jsonl")]) == 0
    return sybil, (out / "attribution.jsonl").read_bytes()


def _refuse(*args, **kwargs):
    raise AssertionError("called on a run whose embeddings eval has exported")


@pytest.mark.parametrize("command", ["sybil", "attribute", "compare"])
def test_out_in_a_new_directory_is_written(workspace, multitask_run, tmp_path, command):
    root, c = workspace
    data = _data(root, "--run", multitask_run)
    files = _metrics_files(tmp_path)
    argv = {"sybil": ["sybil", *c, *data, "--user", "alpha:alpha_u00", "-k", "3"],
            "attribute": ["attribute", *c, *data, "--market", "alpha", "--author", "alpha_u00",
                          "--steps", "4"],
            "compare": ["compare", "--group-a", *files, "--group-b", *files]}[command]
    out = tmp_path / "new" / "deeper" / "out.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.stat().st_size > 0


def test_sybil_and_attribute_reuse_eval_embeddings(workspace, multitask_run, tmp_path,
                                                   monkeypatch):
    root, c = workspace
    run = tmp_path / "run"
    shutil.copytree(multitask_run, run)
    fresh = _link(c, _data(root, "--run", run), tmp_path / "fresh")
    assert main(["eval", *c, "--seed", "3", *_data(root, "--run", run)]) == 0
    manifest = json.loads((run / "eval-manifest.json").read_text())
    assert "model_meta.json" in manifest["inputs"]

    monkeypatch.setattr(RetrievalIndex, "from_episodes", classmethod(_refuse))
    assert _link(c, _data(root, "--run", run), tmp_path / "reused") == fresh
    monkeypatch.setattr(cli, "load_posts", _refuse)
    assert _sybil(c, _data(root, "--run", run), tmp_path) == fresh[0]


def test_eval_enters_every_evaluation_span_the_benchmark_predicts(workspace, multitask_run,
                                                                  tmp_path):
    # desk-graph's pipeline ends in eval, so the evaluation spans it predicts
    # are the ones eval enters
    predicted = {span for _, _, span, _ in tracer.TIMED if span.startswith("evaluation.")}
    predicted -= workloads.WORKLOADS["desk-graph"].absent
    assert {"evaluation.metrics_report", "evaluation.seen_novel_report",
            "evaluation.random_baseline_mrr"} <= predicted
    root, c = workspace
    run = tmp_path / "run"
    shutil.copytree(multitask_run, run)
    traced = tracer.Tracer()
    traced.install(tracer.TIMED, [])
    try:
        assert main(["eval", *c, "--seed", "3", *_data(root, "--run", run)]) == 0
    finally:
        traced.uninstall()
    assert predicted <= set(traced.summary())


def test_train_enters_the_text_cnn_and_backward_spans_the_benchmark_predicts(workspace, tmp_path):
    # the tracer wraps these by name, so a rename or an inlined call would
    # otherwise only show as a missing span in a traced benchmark run
    root, c = workspace
    traced = tracer.Tracer()
    traced.install(tracer.TIMED, [])
    try:
        assert main(["train", *c, "--seed", "3", *_data(root), "--market", "alpha",
                     "--epochs", "1", "--out", str(tmp_path / "run")]) == 0
    finally:
        traced.uninstall()
    assert {"numcore.max_over_time", "numcore.sliding_window_conv", "numcore.Tensor.backward",
            "tokenization.encode"} <= set(traced.summary())


def test_eval_enters_the_text_cnn_spans_the_benchmark_predicts(workspace, multitask_run, tmp_path):
    # eval runs the model on parameters that track no gradient, so
    # max_over_time takes its forward-only route; it must stay the traced op
    root, c = workspace
    run = tmp_path / "run"
    shutil.copytree(multitask_run, run)
    traced = tracer.Tracer()
    traced.install(tracer.TIMED, [])
    try:
        assert main(["eval", *c, "--seed", "3", *_data(root), "--run", str(run)]) == 0
    finally:
        traced.uninstall()
    summary = set(traced.summary())
    assert {"numcore.max_over_time", "numcore.sliding_window_conv",
            "tokenization.encode"} <= summary
    assert "numcore.Tensor.backward" not in summary


def test_train_tokenizer_enters_the_corpus_spans_the_benchmark_reads(workspace, tmp_path):
    # the traced corpus.load_posts and corpus.read_split_manifest numbers
    # quoted for the parsers are those of this path
    root, c = workspace
    traced = tracer.Tracer()
    traced.install(tracer.TIMED, [])
    try:
        assert main(["train-tokenizer", *c, "--input", str(root / "processed"),
                     "--split", str(root / "split" / "split.csv"),
                     "--out", str(tmp_path / "vocab.txt")]) == 0
    finally:
        traced.uninstall()
    assert {"corpus.load_posts", "corpus.read_split_manifest"} <= set(traced.summary())
    corpus_size = sum(len(json.loads(path.read_text(encoding="utf-8"))["post_id"])
                      for path in (root / "processed").glob("*.columns.json"))
    assert corpus_size > 0
    assert traced.counts["corpus.load_posts.posts"] == corpus_size


def _negate_values(npy: Path) -> None:
    np.save(npy, -np.load(npy))


def _perturb_checkpoint(run: Path) -> None:
    rng = np.random.default_rng(0)
    params = load_checkpoint(run / "checkpoint.bin")
    noise = {n: rng.normal(0.0, 0.05, v.shape).astype(v.dtype) for n, v in params.items()}
    save_checkpoint(run / "checkpoint.bin", {n: v + noise[n] for n, v in params.items()})


@pytest.mark.parametrize("stale", ["npy", "checkpoint"])
def test_stale_eval_embeddings_are_recomputed(workspace, multitask_run, tmp_path, monkeypatch,
                                              stale):
    root, c = workspace
    reference, run = tmp_path / "reference", tmp_path / "run"
    shutil.copytree(multitask_run, reference)
    shutil.copytree(multitask_run, run)
    assert main(["eval", *c, "--seed", "3", *_data(root, "--run", run)]) == 0
    if stale == "npy":
        for market in ("alpha", "beta"):
            _negate_values(run / f"embeddings-{market}.npy")
    else:
        _perturb_checkpoint(reference)
        _perturb_checkpoint(run)
    fresh = _link(c, _data(root, "--run", reference), tmp_path / "fresh")

    calls = []
    embed = RetrievalIndex.from_episodes.__func__

    def counted(cls, model, encoder, episodes, **kwargs):
        calls.append({e.market for e in episodes})
        return embed(cls, model, encoder, episodes, **kwargs)

    monkeypatch.setattr(RetrievalIndex, "from_episodes", classmethod(counted))
    assert _link(c, _data(root, "--run", run), tmp_path / "again") == fresh
    assert calls == [{"alpha"}, {"beta"}, {"alpha"}]  # sybil per market, then attribute


def test_author_names_with_tabs_and_line_breaks_reuse_eval_embeddings(
        workspace, multitask_run, tmp_path, monkeypatch):
    root, c = workspace
    processed = tmp_path / "processed"
    shutil.copytree(root / "processed", processed)
    alpha = processed / "alpha.columns.json"
    alpha.write_text(alpha.read_text().replace('"alpha_u01"', '"alpha\\tu01"')
                     .replace('"alpha_u02"', '"alpha\\nu02"'))
    reference, run = tmp_path / "reference", tmp_path / "run"
    shutil.copytree(multitask_run, reference)
    shutil.copytree(multitask_run, run)
    fresh = _link(c, _data(root, "--run", reference, processed=processed), tmp_path / "fresh")
    assert main(["eval", *c, "--seed", "3", *_data(root, "--run", run, processed=processed)]) == 0

    meta, _, _ = _load_run(run, root / "vocab" / "vocab.txt")
    episodes, _ = _test_episodes(meta, SimpleNamespace(processed=str(processed),
                                                       split=str(root / "split" / "split.csv")))
    back = read_embeddings_index(run / "embeddings-alpha.npy")
    assert list(back.authors) == [e.author for e in episodes["alpha"]]
    assert {"alpha\tu01", "alpha\nu02"} <= set(back.authors)
    assert back.episode_ids == [f"alpha/{e.author}/{e.posts[0].post_id}"
                                for e in episodes["alpha"]]

    monkeypatch.setattr(RetrievalIndex, "from_episodes", classmethod(_refuse))
    assert _link(c, _data(root, "--run", run, processed=processed), tmp_path / "again") == fresh


def test_eval_reruns_over_a_manifest_that_lists_tsv_embeddings(workspace, multitask_run,
                                                               tmp_path, capsys):
    # a run directory evaluated when embeddings were TSV files
    root, c = workspace
    run = tmp_path / "run"
    shutil.copytree(multitask_run, run)
    argv = ["eval", *c, "--seed", "3", *_data(root, "--run", run), "--skip-if-fresh"]
    assert main(argv) == 0
    written = {p.name: p.read_bytes() for p in run.glob("embeddings-*")}
    manifest_path = run / "eval-manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for market in ("alpha", "beta"):
        for suffix in (".npy", ".json"):
            (run / f"embeddings-{market}{suffix}").unlink()
            del manifest["outputs"][f"embeddings-{market}{suffix}"]
        tsv = run / f"embeddings-{market}.tsv"
        tsv.write_text("episode_id\tmarket\tauthor\tdim0\n")
        manifest["outputs"][tsv.name] = file_sha256(tsv)
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    capsys.readouterr()
    assert main(argv) == 0
    assert "skipping" not in capsys.readouterr().out
    assert {p.name: p.read_bytes() for p in run.glob("embeddings-*.[nj]*")} == written


def test_moved_work_directory_stays_fresh(tmp_path, monkeypatch, capsys):
    work = tmp_path / "work"
    work.mkdir()
    (work / "config.ini").write_text(CONFIG)

    def plan(w):
        c = ["--config", str(w / "config.ini"), "--seed", "3"]
        split, vocab = w / "split" / "split.csv", w / "vocab" / "vocab.txt"
        data = ["--processed", str(w / "processed"), "--split", str(split),
                "--vocab", str(vocab)]
        graph = []
        for m in ("alpha", "beta"):
            g, walks = w / "graph" / m / "graph.json", w / "walks" / m / "walks.txt"
            graph += [
                ["build-graph", *c, "--input", str(w / "processed"), "--split", str(split),
                 "--market", m, "--out", str(g)],
                ["walk", *c, "--graph", str(g), "--out", str(walks)],
                ["graph-embed", *c, "--walks", str(walks), "--graph", str(g),
                 "--out", str(w / "emb" / m)],
            ]
        return [
            ["synth", *c, "--out", str(w / "raw")],
            ["ingest", *c, "--input", str(w / "raw" / "beta.jsonl"), "--market", "beta",
             "--out", str(w / "ingested")],
            ["preprocess", *c, "--input", str(w / "raw"), "--out", str(w / "processed")],
            ["split", *c, "--input", str(w / "processed"), "--out", str(split)],
            ["pgp-pairs", *c, "--input", str(w / "raw"), "--out", str(w / "pgp" / "pairs.csv")],
            ["train-tokenizer", *c, "--input", str(w / "processed"), "--split", str(split),
             "--out", str(vocab)],
            *graph,
            ["train", *c, *data, "--multitask", "--labels", str(w / "raw" / "labels.csv"),
             "--graph-init", "pretrained",
             "--context-init", f"alpha={w / 'emb' / 'alpha' / 'context.tsv'}",
             "--context-init", f"beta={w / 'emb' / 'beta' / 'context.tsv'}",
             "--out", str(w / "run")],
            ["eval", *c, *data, "--run", str(w / "run")],
        ]

    for argv in plan(work):
        assert main(argv) == 0, argv
    moved = tmp_path / "elsewhere" / "moved"
    moved.parent.mkdir()
    shutil.move(str(work), str(moved))
    capsys.readouterr()
    for argv in plan(moved):
        assert main([*argv, "--skip-if-fresh"]) == 0, argv
        assert "fresh, skipping" in capsys.readouterr().out, argv

    monkeypatch.setattr(RetrievalIndex, "from_episodes", classmethod(_refuse))
    c = ["--config", str(moved / "config.ini")]
    assert main(["sybil", *c, "--run", str(moved / "run"),
                 "--processed", str(moved / "processed"),
                 "--split", str(moved / "split" / "split.csv"),
                 "--vocab", str(moved / "vocab" / "vocab.txt"),
                 "--user", "alpha:alpha_u00", "-k", "3"]) == 0


def _fail_after(calls: int, fn):
    """`fn`, raising RuntimeError from its `calls`-th call on."""
    count = [0]

    def failing(*args, **kwargs):
        count[0] += 1
        if count[0] >= calls:
            raise RuntimeError("injected write failure")
        return fn(*args, **kwargs)

    return failing


def test_a_writer_failing_partway_leaves_the_old_file_or_none(workspace, tmp_path, monkeypatch,
                                                              capsys):
    root, c = workspace
    out = tmp_path / "processed"
    argv = ["preprocess", *c, "--input", str(root / "raw"), "--out", str(out), "--skip-if-fresh"]
    with monkeypatch.context() as m:
        m.setattr(json, "dumps", _fail_after(1, json.dumps))  # alpha's column document
        with pytest.raises(RuntimeError):
            main(argv)
    assert list(out.iterdir()) == []
    capsys.readouterr()
    assert main(argv) == 0
    assert "skipping" not in capsys.readouterr().out
    written = {p.name: p.read_bytes() for p in out.iterdir()}
    assert set(written) == {"alpha.columns.json", "beta.columns.json", "manifest.json"}

    # the second market fails after the first was replaced: every file keeps
    # whole old or new bytes, and the stale manifest makes the stage run again
    raw = tmp_path / "raw"
    shutil.copytree(root / "raw", raw)
    for market in ("alpha", "beta"):
        path = raw / f"{market}.jsonl"
        path.write_text(path.read_text().replace('"body": "', '"body": "edited '))
    argv[argv.index("--input") + 1] = str(raw)
    with monkeypatch.context() as m:
        # the freshness check's config hash, alpha's document, then beta's fails
        m.setattr(json, "dumps", _fail_after(3, json.dumps))
        with pytest.raises(RuntimeError):
            main(argv)
    assert sorted(p.name for p in out.iterdir()) == sorted(written)
    assert (out / "alpha.columns.json").read_bytes() != written["alpha.columns.json"]
    assert (out / "beta.columns.json").read_bytes() == written["beta.columns.json"]
    assert (out / "manifest.json").read_bytes() == written["manifest.json"]
    capsys.readouterr()
    assert main(argv) == 0
    assert "skipping" not in capsys.readouterr().out


def _with_cell(doc, name, value) -> str:
    """The column document as JSON text, with row 3 of column `name` set to
    `value`."""
    return json.dumps({**doc, name: doc[name][:3] + [value] + doc[name][4:]})


# each gives a faulty processed file's text from the market's column document
# and its raw JSONL text
PROCESSED_FAULTS = {
    "cut-in-half": lambda doc, raw: json.dumps(doc)[: len(json.dumps(doc)) // 2],
    "jsonl-content": lambda doc, raw: raw,
    "json-list": lambda doc, raw: json.dumps(list(doc.values())),
    "unequal-lengths": lambda doc, raw: json.dumps({**doc, "body": doc["body"][1:]}),
    "non-string-id": lambda doc, raw: _with_cell(doc, "post_id", 17),
    "empty-author": lambda doc, raw: _with_cell(doc, "author", ""),
    "timestamp-out-of-range": lambda doc, raw: _with_cell(doc, "timestamp", 253402300800.0),
    "duplicate-post-id": lambda doc, raw: _with_cell(doc, "post_id", doc["post_id"][0]),
}


@pytest.mark.parametrize("stage", ["split", "train"])
@pytest.mark.parametrize("fault", sorted(PROCESSED_FAULTS))
def test_a_faulty_processed_file_exits_1_naming_it_without_output(workspace, tmp_path, capsys,
                                                                   stage, fault):
    root, c = workspace
    processed = tmp_path / "processed"
    shutil.copytree(root / "processed", processed)
    alpha = processed / "alpha.columns.json"
    alpha.write_text(PROCESSED_FAULTS[fault](json.loads(alpha.read_text()),
                                             (root / "raw" / "alpha.jsonl").read_text()))
    out = tmp_path / "out"
    argv = (["split", *c, "--input", str(processed), "--out", str(out / "split.csv")]
            if stage == "split" else
            ["train", *c, *_data(root, processed=processed), "--market", "alpha",
             "--out", str(out)])
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {alpha}: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_processed_stages_read_only_column_files(workspace, tmp_path, capsys):
    root, c = workspace
    processed = tmp_path / "processed"
    shutil.copytree(root / "processed", processed)
    shutil.copy(root / "raw" / "alpha.jsonl", processed)
    split = tmp_path / "split.csv"
    assert main(["split", *c, "--input", str(processed), "--out", str(split)]) == 0
    assert split.read_bytes() == (root / "split" / "split.csv").read_bytes()
    for path in processed.glob("*.columns.json"):
        path.unlink()
    capsys.readouterr()
    assert main(["split", *c, "--input", str(processed), "--out", str(tmp_path / "s.csv")]) == 2
    assert capsys.readouterr().err == f"error: no .columns.json files in {processed}\n"


@pytest.mark.parametrize("stage", ["train-tokenizer", "build-graph", "train"])
def test_a_split_that_lists_none_of_a_markets_posts_exits_1(workspace, tmp_path, capsys, stage):
    root, c = workspace
    split = tmp_path / "split.csv"
    split.write_text("market,post_id,split\nalpha,zzz,train\n", encoding="utf-8")
    out = tmp_path / "out"
    argv = {
        "train-tokenizer": ["--input", root / "processed", "--out", out / "vocab.txt"],
        "build-graph": ["--input", root / "processed", "--market", "alpha",
                        "--out", out / "graph.json"],
        "train": ["--processed", root / "processed", "--vocab", root / "vocab" / "vocab.txt",
                  "--market", "alpha", "--out", out],
    }[stage]
    capsys.readouterr()
    assert main([stage, *c, "--split", str(split), *map(str, argv)]) == 1
    assert capsys.readouterr().err == (f"error: {split}: lists none of the 180 posts of "
                                       f"market 'alpha'\n")
    assert not out.exists()


def _run_patched(patch: str, *argv) -> subprocess.CompletedProcess:
    """`epistyle *argv` in a fresh interpreter after running `patch`, so that
    stderr shows what pytest's warning capture would hide."""
    src = str(Path(epistyle.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get(
        "PYTHONPATH")]))}
    script = f"import sys; {patch}; from epistyle.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run([sys.executable, "-c", script, *map(str, argv)],
                          env=env, capture_output=True, text=True)


@pytest.mark.parametrize("batch_size, error", [
    (16, "error: non-finite loss nan (task=alpha, epoch=0, step=1)\n"),
    (512, "error: non-finite validation loss nan (task=alpha)\n"),
])
def test_a_diverged_train_prints_only_its_error_line(workspace, tmp_path, batch_size, error):
    root, c = workspace
    cfg = tmp_path / "config.ini"
    cfg.write_text(CONFIG.replace("batch_size = 16", f"batch_size = {batch_size}"))
    # --p-cross 0: no warning that a single-market run has no cross task
    done = _run_patched("import epistyle.train; epistyle.train.LR = 1e30",
                        "train", "--config", cfg, "--seed", "3", *_data(root),
                        "--market", "alpha", "--epochs", "1", "--p-cross", "0",
                        "--out", tmp_path / "run")
    assert (done.returncode, done.stderr) == (1, error)


def test_a_diverged_graph_embed_prints_only_its_error_line(workspace, tmp_path):
    root, c = workspace
    graph, walks = tmp_path / "graph.json", tmp_path / "walks.txt"
    assert main(["build-graph", *c, "--input", str(root / "processed"),
                 "--split", str(root / "split" / "split.csv"), "--market", "alpha",
                 "--out", str(graph)]) == 0
    assert main(["walk", *c, "--seed", "3", "--graph", str(graph), "--out", str(walks)]) == 0
    done = _run_patched("import epistyle.hetgraph; epistyle.hetgraph.SKIPGRAM_LR = 1e30",
                        "graph-embed", *c, "--seed", "3", "--walks", walks, "--graph", graph,
                        "--out", tmp_path / "emb")
    assert done.returncode == 1
    assert done.stderr.startswith("error: train_skipgram: diverged in epoch 0")
    assert done.stderr.count("\n") == 1, done.stderr


def test_missing_market_file_exits_2_in_every_stage(workspace, multitask_run, tmp_path, capsys):
    root, c = workspace
    processed = tmp_path / "processed"
    processed.mkdir()
    shutil.copy(root / "processed" / "alpha.columns.json", processed)
    data = _data(root, "--run", multitask_run, processed=processed)
    for stage, *extra in (["eval", "--out", tmp_path / "eval"],
                          ["sybil", "--user", "alpha:alpha_u00", "--out", tmp_path / "s.json"],
                          ["attribute", "--market", "alpha", "--author", "alpha_u00",
                           "--out", tmp_path / "a.jsonl"]):
        capsys.readouterr()
        assert main([stage, *c, *data, *map(str, extra)]) == 2
        assert capsys.readouterr().err == "error: market 'beta' not among ['alpha']\n"


def test_runlog_does_not_depend_on_the_string_hash_seed(workspace, tmp_path):
    root, c = workspace
    src = str(Path(epistyle.__file__).resolve().parents[1])
    runlogs = []
    for hash_seed in ("0", "1", "2"):  # 0 and 1 happen to order the parameter set alike
        out = tmp_path / f"run-{hash_seed}"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-m", "epistyle.cli", "train", *c, "--seed", "3",
                        *_data(root), "--multitask", "--labels", str(root / "raw" / "labels.csv"),
                        "--out", str(out)], env=env, check=True, capture_output=True)
        runlogs.append((out / "runlog.jsonl").read_bytes())
    assert runlogs[0] == runlogs[1] == runlogs[2]
