"""The benchmark's workloads: which corpus each one synthesizes, which CLI
stages it runs, and which traced spans it is predicted to enter.

Every workload is one closed, single-process pipeline over a corpus that
`synth` generates from the run's seed. Every stage receives that seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
DESK_CONFIG = HERE.parent / "configs" / "desk.ini"
SCALE_CONFIG = HERE / "configs" / "scale.ini"


@dataclass(frozen=True)
class Workload:
    name: str
    config_path: Path
    # traced spans this workload must never enter; every other span the
    # tracer wraps must be entered at least once
    absent: frozenset[str]
    # extra flags per CLI stage, which shrink the config's settings so that
    # a pass repeats within the measured window
    flags: dict[str, tuple] = field(default_factory=dict)


_SKIPGRAM = {"hetgraph.train_skipgram", "hetgraph.read_walks", "hetgraph.write_embeddings_tsv",
             "cli.graph-embed"}
_GRAPH = _SKIPGRAM | {"hetgraph.build_graph", "hetgraph.sample_walks", "hetgraph.write_walks",
                      "cli.build-graph", "cli.walk"}
_ATTENTION = {"numcore.multihead_attention", "numcore.layer_norm"}
_SYBIL = {"cli.sybil", "evaluation.topk_sybil"}
_ATTRIBUTE = {"cli.attribute", "evaluation.integrated_gradients"}
_PGP = {"cli.pgp-pairs", "corpus.extract_pgp_candidate_pairs"}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            # per-pair skip-gram SGD dominates: the only workload that sees a
            # hetgraph skip-gram change
            "desk-graph", DESK_CONFIG,
            frozenset(_ATTENTION | _SYBIL | _ATTRIBUTE | _PGP),
            {"walk": ("--walks-per-user", 10), "graph-embed": ("--epochs", 1),
             "train": ("--epochs", 1)},
        ),
        Workload(
            # numcore forward, backward and Adam dominate, over mean and
            # transformer pooling; hetgraph is bypassed
            "desk-train", DESK_CONFIG,
            frozenset(_GRAPH | _PGP),
            {"train": ("--epochs", 1)},
        ),
        Workload(
            # quadratic build_graph, per-query eval ranking and re-parsing of
            # the corpus files dominate; no skip-gram
            "scale-eval", SCALE_CONFIG,
            frozenset(_SKIPGRAM | _ATTENTION),
            {"attribute": ("--steps", 10)},
        ),
    )
}


def migrants(labels_csv: Path) -> list[tuple[str, str, str, str]]:
    """Planted migrations as (market_a, user_a, market_b, user_b), in file order."""
    with open(labels_csv, newline="", encoding="utf-8") as fh:
        return [
            (r["market_a"], r["user_a"], r["market_b"], r["user_b"])
            for r in csv.DictReader(fh)
            if r["same_author"] == "true"
        ]


def stages(workload: Workload, raw: Path, work: Path, seed: int) -> list[tuple[str, list[str]]]:
    """The workload's pipeline as (stage, argv) pairs for `epistyle.cli.main`."""
    common = ["--config", str(workload.config_path), "--seed", str(seed)]
    proc, split, vocab = work / "processed", work / "split" / "split.csv", work / "vocab" / "vocab.txt"
    data = ["--processed", str(proc), "--split", str(split), "--vocab", str(vocab)]

    def stage(name, *args):
        return (name, [name, *common, *map(str, args + workload.flags.get(name, ()))])

    plan = [
        stage("preprocess", "--input", raw, "--out", proc),
        stage("split", "--input", proc, "--out", split),
    ]
    if workload.name == "scale-eval":
        plan.append(stage("pgp-pairs", "--input", raw, "--out", work / "pgp" / "candidates.csv"))
    plan.append(stage("train-tokenizer", "--input", proc, "--split", split, "--out", vocab))

    moved = migrants(raw / "labels.csv")
    if workload.name == "desk-graph":
        for m in ("alpha", "beta"):
            graph, walks = work / "graph" / m / "graph.json", work / "walks" / m / "walks.txt"
            plan += [
                stage("build-graph", "--input", proc, "--split", split, "--market", m, "--out", graph),
                stage("walk", "--graph", graph, "--out", walks),
                stage("graph-embed", "--walks", walks, "--graph", graph, "--out", work / "emb" / m),
            ]
        run = work / "run-alpha"
        plan += [
            stage("train", *data, "--market", "alpha", "--graph-init", "pretrained",
                  "--context-init", f"alpha={work / 'emb' / 'alpha' / 'context.tsv'}",
                  "--out", run),
            stage("eval", *data, "--run", run),
        ]
        return plan

    multi = work / "run-multi"
    if workload.name == "desk-train":
        tf = work / "run-transformer"
        plan += [
            stage("train", *data, "--multitask", "--labels", raw / "labels.csv", "--out", multi),
            stage("train", *data, "--market", "alpha", "--pooling", "transformer", "--out", tf),
            stage("eval", *data, "--run", multi),
            stage("eval", *data, "--run", tf),
        ]
        queried = moved
    else:
        for m in ("alpha", "beta"):
            graph = work / "graph" / m / "graph.json"
            plan += [
                stage("build-graph", "--input", proc, "--split", split, "--market", m, "--out", graph),
                stage("walk", "--graph", graph, "--out", work / "walks" / m / "walks.txt"),
            ]
        plan += [
            stage("train", *data, "--multitask", "--labels", raw / "labels.csv", "--out", multi),
            stage("eval", *data, "--run", multi),
        ]
        queried = moved[:1]
    for k, (ma, ua, _, _) in enumerate(queried):
        plan.append(stage("sybil", *data, "--run", multi, "--user", f"{ma}:{ua}",
                          "--out", work / f"sybil-{k}.json"))
    ma, ua, _, _ = moved[0]
    plan.append(stage("attribute", *data, "--run", multi, "--market", ma, "--author", ua))
    return plan
