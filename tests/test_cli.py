import json
import math
import shutil
from types import SimpleNamespace

import pytest

from epistyle.cli import _load_run, _test_episodes, main
from epistyle.model import make_episode_batch

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


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--help"])
    assert exc.value.code == 0


def test_pipeline_artifacts(workspace):
    root, c = workspace
    assert (root / "raw" / "alpha.jsonl").exists()
    assert (root / "raw" / "labels.csv").exists()
    assert (root / "processed" / "beta.jsonl").exists()
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
    assert (root / "run" / "embeddings-alpha.tsv").exists()

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
