"""Pipeline CLI: every stage reads prior artifacts by path, writes its outputs
plus a manifest (eval-manifest.json for eval, manifest.json otherwise), and is
a no-op under --skip-if-fresh when inputs and config are unchanged.
Exit codes: 0 ok, 2 validation problem, 1 runtime error.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import logging
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ValidationError,
    file_sha256,
    hashes_match,
    is_fresh,
    load_config,
    read_manifest,
    section_values,
    write_manifest,
)
from .corpus import (
    Post,
    assemble_episodes,
    chronological_split,
    extract_pgp_candidate_pairs,
    load_migration_labels,
    load_posts,
    preprocess_text,
    read_split_manifest,
    write_labels_csv,
    write_posts,
    write_split_manifest,
    DEFAULT_IMAGE_PATTERNS,
    DEFAULT_QUOTE_PATTERNS,
    SplitSpec,
)
from .evaluation import (
    RetrievalIndex,
    author_centroid,
    cosine_target,
    export_embeddings_tsv,
    integrated_gradients,
    metrics_report,
    random_baseline_mrr,
    read_embeddings_index,
    sample_queries,
    seen_novel_report,
    topk_sybil,
    wmw_paired,
)
from .hetgraph import (
    NodeEmbeddings,
    build_graph,
    export_context_init,
    read_embeddings_tsv,
    read_graph,
    read_walks,
    rescale_context_init,
    sample_walks,
    train_skipgram,
    write_embeddings_tsv,
    write_graph,
    write_walks,
)
from .model import EpisodeModel, MetricHead, ModelConfig, PostEncoder
from .numcore import Tensor, load_checkpoint, save_checkpoint
from .synth import SynthConfig, generate_corpus, write_corpus
from .tokenization import load_vocab, save_vocab, train_bpe, train_char_vocab
from .train import TrainConfig, build_registry, load_best, train_multitask, train_single

log = logging.getLogger("epistyle")

CORPUS_DEFAULTS = dict(
    markets=("alpha", "beta"), authors_per_market=20, posts_per_author=100,
    migrant_count=5, distinct_pair_count=5, subforums_per_market=6, communities=3,
    weeks=20, core_mass=0.85, core_words=25, pool_size=400, community_affinity=False,
    archetypes=False, late_author_fraction=0.0, min_episodes=2,
    quote_patterns="", image_patterns="",
)
TOKENIZER_DEFAULTS = dict(kind="bpe", size=30000)
GRAPH_DEFAULTS = dict(
    walks_per_user=1000, walk_length=80, dim=128, window=7, negatives=5,
    epochs=5, lr=0.025, typed_negatives=True, rescale_init=True,
)
MODEL_DEFAULTS = dict(
    d_token=32, d_text=128, d_time=64, d_context=128, filter_sizes=(2, 3, 4, 5),
    filters_per_size=32, dropout=0.1, pooling="mean", tf_layers=4, tf_heads=4,
    tf_ff=128, tf_model_dim=128, tf_out_dim=32, max_tokens=512,
)
TRAIN_DEFAULTS = dict(
    batch_size=256, epochs=30, lr=1e-3, plateau_factor=0.5,
    plateau_patience=5, val_fraction=0.10, episode_len=5, p_cross=0.01,
    grad_clip=5.0, loss="sm",
)
EVAL_DEFAULTS = dict(kappa=1000, ks=(1, 5, 10))


# -------------------------------------------------------------- shared bits


def _require(path, what: str) -> Path:
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"missing {what}: {path}")
    return path


def _market_files(directory, markets=None) -> dict[str, Path]:
    """Every {market}.jsonl file in `directory`, or those of `markets` only,
    each of which must exist."""
    directory = _require(directory, "input directory")
    files = {p.stem: p for p in sorted(directory.glob("*.jsonl"))}
    if not files:
        raise ValidationError(f"no .jsonl files in {directory}")
    if markets is None:
        return files
    for market in markets:
        if market not in files:
            raise ValidationError(f"market {market!r} not among {sorted(files)}")
    return {m: files[m] for m in markets}


def _load_markets(directory, markets=None) -> dict[str, list[Post]]:
    """Posts of every market file in `directory`, or of `markets` only."""
    out = {}
    for market, path in _market_files(directory, markets).items():
        posts, malformed = load_posts(path, market)
        if malformed:
            log.warning("%s: %d malformed lines skipped", path, malformed)
        out[market] = posts
    return out


def _split_posts(posts_by_market: dict[str, list[Post]], spec: SplitSpec):
    train, test = {}, {}
    for market, posts in posts_by_market.items():
        train[market] = [p for p in posts if p.post_id in spec.train_ids.get(market, ())]
        test[market] = [p for p in posts if p.post_id in spec.test_ids.get(market, ())]
    return train, test


def _patterns(raw: str, fallback):
    lines = [ln.strip() for ln in raw.splitlines() if ln.strip()]
    return tuple(lines) if lines else fallback


def _json_dump(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_stage(args, stage: str, out_dir, inputs: list, effective: dict, body,
               manifest: str = "manifest.json") -> int:
    """Run one manifest-writing stage.

    Under --skip-if-fresh a stage whose manifest in `out_dir` still matches
    its inputs, config, seed and output hashes does nothing. Otherwise
    `body()` writes the outputs and returns (outputs, extra, message); the
    manifest is written only after the body returns.
    """
    out_dir = Path(out_dir)
    if args.skip_if_fresh and is_fresh(out_dir, stage, inputs, effective, args.seed, manifest):
        print(f"{stage}: fresh, skipping ({out_dir})")
        return 0
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs, extra, message = body()
    write_manifest(out_dir, stage, inputs, effective, args.seed, outputs, extra=extra,
                   name=manifest)
    print(message)
    return 0


# ------------------------------------------------------------------- stages


def cmd_synth(args, cfg) -> int:
    values = section_values(cfg, "corpus", CORPUS_DEFAULTS)
    scfg = SynthConfig(
        markets=tuple(values["markets"]), authors_per_market=values["authors_per_market"],
        posts_per_author=values["posts_per_author"], migrant_count=values["migrant_count"],
        distinct_pair_count=values["distinct_pair_count"],
        subforums_per_market=values["subforums_per_market"], communities=values["communities"],
        weeks=values["weeks"], core_mass=values["core_mass"], core_words=values["core_words"],
        pool_size=values["pool_size"], community_affinity=values["community_affinity"],
        archetypes=values["archetypes"], late_author_fraction=values["late_author_fraction"],
        seed=args.seed,
    )

    def body():
        corpus = generate_corpus(scfg)
        written = write_corpus(corpus, args.out)
        return (sorted(written.values()),
                {"total_posts": corpus.total_posts(), "labels": len(corpus.labels)},
                f"synth: wrote {corpus.total_posts()} posts across {len(scfg.markets)} "
                f"markets to {args.out}")

    return _run_stage(args, "synth", args.out, [], {**values, "seed": args.seed}, body)


def cmd_ingest(args, cfg) -> int:
    src = _require(args.input, "input posts file")
    out_path = Path(args.out) / f"{args.market}.jsonl"

    def body():
        posts, malformed = load_posts(src, args.market)
        write_posts(out_path, posts)
        return ([out_path], {"posts": len(posts), "malformed": malformed},
                f"ingest: {len(posts)} posts ({malformed} malformed lines skipped) -> {out_path}")

    return _run_stage(args, "ingest", args.out, [src], {"market": args.market}, body)


def cmd_preprocess(args, cfg) -> int:
    values = section_values(cfg, "corpus", CORPUS_DEFAULTS)
    quote = _patterns(values["quote_patterns"], DEFAULT_QUOTE_PATTERNS)
    image = _patterns(values["image_patterns"], DEFAULT_IMAGE_PATTERNS)
    files = _market_files(args.input)
    out_dir = Path(args.out)

    def body():
        outputs = []
        for market, path in files.items():
            posts, _ = load_posts(path, market)
            out_path = out_dir / f"{market}.jsonl"
            write_posts(out_path, [replace(p, body=preprocess_text(p.body, quote, image))
                                   for p in posts])
            outputs.append(out_path)
        return outputs, None, f"preprocess: {len(outputs)} market files -> {out_dir}"

    effective = {"quote_patterns": quote, "image_patterns": image}
    return _run_stage(args, "preprocess", out_dir, list(files.values()), effective, body)


def cmd_split(args, cfg) -> int:
    files = _market_files(args.input)
    out_path = Path(args.out)

    def body():
        merged = SplitSpec(split_timestamp=0.0, train_ids={}, test_ids={})
        cuts = {}
        for market, path in files.items():
            posts, _ = load_posts(path, market)
            spec = chronological_split(posts)
            cuts[market] = spec.split_timestamp
            merged.train_ids.update(spec.train_ids)
            merged.test_ids.update(spec.test_ids)
        write_split_manifest(out_path, merged)
        counts = {m: (len(merged.train_ids.get(m, ())), len(merged.test_ids.get(m, ())))
                  for m in files}
        return [out_path], {"split_timestamps": cuts}, f"split: {counts} -> {out_path}"

    effective = {"rule": "median-per-market, ties to train"}
    return _run_stage(args, "split", out_path.parent, list(files.values()), effective, body)


def cmd_pgp_pairs(args, cfg) -> int:
    files = _market_files(args.input)
    out_path = Path(args.out)

    def body():
        posts = [p for plist in _load_markets(args.input).values() for p in plist]
        candidates = extract_pgp_candidate_pairs(posts)
        write_labels_csv(out_path, candidates)
        return ([out_path], {"candidates": len(candidates)},
                f"pgp-pairs: {len(candidates)} cross-market candidates -> {out_path}")

    effective = {"fingerprint": "sha256 of normalized base64 payload"}
    return _run_stage(args, "pgp-pairs", out_path.parent, list(files.values()), effective, body)


def cmd_build_graph(args, cfg) -> int:
    market_path = _market_files(args.input, [args.market])[args.market]
    split_path = _require(args.split, "split manifest")
    out_path = Path(args.out)

    def body():
        posts, _ = load_posts(market_path, args.market)
        spec = read_split_manifest(split_path)
        graph = build_graph([p for p in posts if p.post_id in spec.train_ids.get(args.market, ())])
        write_graph(out_path, graph)
        return ([out_path], {"nodes": graph.num_nodes()},
                f"build-graph: {graph.num_nodes()} nodes -> {out_path}")

    inputs = [market_path, split_path]
    effective = {"market": args.market, "split": "train-only"}
    return _run_stage(args, "build-graph", out_path.parent, inputs, effective, body)


def cmd_walk(args, cfg) -> int:
    gvals = section_values(cfg, "graph", GRAPH_DEFAULTS,
                           {"walks_per_user": args.walks_per_user, "walk_length": args.walk_length})
    graph_path = _require(args.graph, "graph file")
    out_path = Path(args.out)
    effective = {"walks_per_user": gvals["walks_per_user"], "walk_length": gvals["walk_length"]}

    def body():
        walks = sample_walks(read_graph(graph_path), walks_per_user=gvals["walks_per_user"],
                             walk_length=gvals["walk_length"], rng_seed=args.seed)
        write_walks(out_path, walks)
        return [out_path], {"walks": len(walks)}, f"walk: {len(walks)} walks -> {out_path}"

    return _run_stage(args, "walk", out_path.parent, [graph_path], effective, body)


def cmd_graph_embed(args, cfg) -> int:
    gvals = section_values(cfg, "graph", GRAPH_DEFAULTS, {"dim": args.dim, "epochs": args.epochs})
    walks_path = _require(args.walks, "walks file")
    graph_path = _require(args.graph, "graph file")
    out_dir = Path(args.out)

    def body():
        emb = train_skipgram(
            read_walks(walks_path), dim=gvals["dim"], window=gvals["window"],
            negatives=gvals["negatives"], epochs=gvals["epochs"], lr=gvals["lr"],
            rng_seed=args.seed, typed_negatives=gvals["typed_negatives"],
        )
        graph = read_graph(graph_path)
        subforums = sorted(key for (t, key) in graph.key_labels if t == "S")
        ctx = export_context_init(emb, graph, subforums)
        nodes_path, ctx_path = out_dir / "nodes.tsv", out_dir / "context.tsv"
        write_embeddings_tsv(nodes_path, emb)
        write_embeddings_tsv(ctx_path, NodeEmbeddings(ctx, emb.dim), key="subforum")
        return ([nodes_path, ctx_path], {"epoch_losses": emb.meta["epoch_losses"]},
                f"graph-embed: {len(emb.vectors)} nodes, {len(ctx)} subforums -> {out_dir}")

    return _run_stage(args, "graph-embed", out_dir, [walks_path, graph_path], gvals, body)


def cmd_train_tokenizer(args, cfg) -> int:
    tvals = section_values(cfg, "tokenizer", TOKENIZER_DEFAULTS,
                           {"kind": args.kind, "size": args.size})
    if tvals["kind"] not in ("char", "bpe"):
        raise ValidationError(f"unknown tokenizer kind {tvals['kind']!r}")
    files = _market_files(args.input)
    split_path = _require(args.split, "split manifest")
    out_path = Path(args.out)

    def body():
        spec = read_split_manifest(split_path)
        train, _ = _split_posts(_load_markets(args.input), spec)
        texts = [p.body for market in sorted(train) for p in train[market]]
        trainer = train_char_vocab if tvals["kind"] == "char" else train_bpe
        vocab = trainer(texts, size=tvals["size"])
        save_vocab(out_path, vocab)
        return ([out_path], {"vocab_size": len(vocab)},
                f"train-tokenizer: {tvals['kind']} vocab of {len(vocab)} -> {out_path}")

    inputs = list(files.values()) + [split_path]
    return _run_stage(args, "train-tokenizer", out_path.parent, inputs, tvals, body)


def _parse_context_init(pairs: list[str]) -> dict[str, Path]:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValidationError(f"--context-init expects market=path, got {pair!r}")
        market, path = pair.split("=", 1)
        out[market] = _require(path, f"context init for {market}")
    return out


def cmd_train(args, cfg) -> int:
    mvals = section_values(cfg, "model", MODEL_DEFAULTS,
                           {"pooling": args.pooling, "max_tokens": args.max_tokens})
    tvals = section_values(
        cfg, "train", TRAIN_DEFAULTS,
        {"episode_len": args.episode_len, "loss": args.loss, "epochs": args.epochs,
         "batch_size": args.batch_size, "p_cross": args.p_cross},
    )
    cvals = section_values(cfg, "corpus", CORPUS_DEFAULTS)
    gvals = section_values(cfg, "graph", GRAPH_DEFAULTS)

    files = _market_files(args.processed)
    split_path = _require(args.split, "split manifest")
    vocab_path = _require(args.vocab, "vocabulary file")
    if args.multitask:
        markets = sorted(files)
        if len(markets) < 2:
            raise ValidationError("--multitask needs at least two market files")
    else:
        if not args.market:
            raise ValidationError("provide --market NAME or --multitask")
        if args.market not in files:
            raise ValidationError(f"market {args.market!r} not among {sorted(files)}")
        markets = [args.market]

    labels_path = Path(args.labels) if args.labels else None
    if args.multitask and labels_path is not None:
        _require(labels_path, "migration labels")
    ctx_paths = _parse_context_init(args.context_init)
    if args.graph_init == "pretrained":
        missing = [m for m in markets if m not in ctx_paths]
        if missing:
            raise ValidationError(f"--graph-init pretrained needs --context-init for {missing}")
    vocab = load_vocab(vocab_path)
    if args.tokenizer is not None and vocab.kind != args.tokenizer:
        raise ValidationError(
            f"--tokenizer {args.tokenizer} but {vocab_path} holds a {vocab.kind} vocabulary"
        )

    inputs = [files[m] for m in markets] + [split_path, vocab_path]
    if labels_path:
        inputs.append(labels_path)
    inputs.extend(ctx_paths[m] for m in markets if m in ctx_paths)
    effective = {
        "markets": markets, "multitask": args.multitask, "graph_init": args.graph_init,
        "model": mvals, "train": tvals, "min_episodes": cvals["min_episodes"],
        "rescale_init": gvals["rescale_init"],
    }
    out_dir = Path(args.out)

    def body():
        spec = read_split_manifest(split_path)
        train_posts, _ = _split_posts(_load_markets(args.processed, markets), spec)
        subforums = {m: sorted({p.subforum for p in train_posts[m]}) for m in markets}

        context_init = None
        if args.graph_init == "pretrained":
            context_init = {}
            target_std = 0.1 / np.sqrt(3.0)  # matches the random uniform(-0.1, 0.1) table
            for m in markets:
                raw = read_embeddings_tsv(ctx_paths[m]).vectors
                context_init[m] = (
                    rescale_context_init(raw, target_std) if gvals["rescale_init"] else raw
                )

        model_cfg = ModelConfig(
            vocab_size=len(vocab), d_token=mvals["d_token"], d_text=mvals["d_text"],
            d_time=mvals["d_time"], d_context=mvals["d_context"],
            filter_sizes=tuple(mvals["filter_sizes"]), filters_per_size=mvals["filters_per_size"],
            dropout=mvals["dropout"], pooling=mvals["pooling"], tf_layers=mvals["tf_layers"],
            tf_heads=mvals["tf_heads"], tf_ff=mvals["tf_ff"], tf_model_dim=mvals["tf_model_dim"],
            tf_out_dim=mvals["tf_out_dim"], tokenizer_kind=vocab.kind,
            max_tokens=mvals["max_tokens"],
        )
        train_cfg = TrainConfig(
            batch_size=tvals["batch_size"], epochs=tvals["epochs"], lr=tvals["lr"],
            plateau_factor=tvals["plateau_factor"],
            plateau_patience=tvals["plateau_patience"], val_fraction=tvals["val_fraction"],
            episode_len=tvals["episode_len"], p_cross=tvals["p_cross"], seed=args.seed,
            grad_clip=tvals["grad_clip"], min_episodes=cvals["min_episodes"], loss=tvals["loss"],
        )

        model = EpisodeModel.build(model_cfg, subforums, seed=args.seed, context_init=context_init)
        encoder = PostEncoder(vocab, model_cfg.max_tokens)
        migration = load_migration_labels(labels_path) if (labels_path and args.multitask) else None
        registry = build_registry(model, encoder, train_posts, train_cfg, migration)
        result = (
            train_multitask(registry, train_cfg) if args.multitask
            else train_single(registry, train_cfg)
        )
        load_best(registry, result)

        ckpt_path = out_dir / "checkpoint.bin"
        save_checkpoint(ckpt_path, {n: t.data for n, t in registry.all_params().items()})
        runlog_path = out_dir / "runlog.jsonl"
        with open(runlog_path, "w", encoding="utf-8") as fh:
            for record in result.log:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        meta = {
            "model": {**asdict(model_cfg), "filter_sizes": list(model_cfg.filter_sizes)},
            "subforum_maps": model.subforum_maps,
            "markets": markets,
            "multitask": args.multitask,
            "graph_init": args.graph_init,
            "episode_len": train_cfg.episode_len,
            "min_episodes": train_cfg.min_episodes,
            "loss": train_cfg.loss,
            "seed": args.seed,
            "vocab_sha256": file_sha256(vocab_path),
            "heads": [
                {"name": t.name, "kind": t.head.kind, "n_labels": t.head.n_labels,
                 "dim": t.head.dim}
                for t in registry.all_tasks()
            ],
            "best_epoch": result.best_epoch,
            "best_val_loss": result.best_val_loss,
        }
        meta_path = out_dir / "model_meta.json"
        _json_dump(meta_path, meta)
        return ([ckpt_path, runlog_path, meta_path],
                {"best_epoch": result.best_epoch, "best_val_loss": result.best_val_loss},
                f"train: best val loss {result.best_val_loss:.4f} at epoch {result.best_epoch} "
                f"-> {out_dir}")

    return _run_stage(args, "train", out_dir, inputs, effective, body)


def _load_run(run_dir, vocab_path):
    """A trained run for forward passes only: its parameters track no gradient."""
    run_dir = _require(run_dir, "run directory")
    meta_path = _require(run_dir / "model_meta.json", "model metadata")
    ckpt_path = _require(run_dir / "checkpoint.bin", "checkpoint")
    meta = json.loads(meta_path.read_text())
    vocab = load_vocab(_require(vocab_path, "vocabulary file"))
    if file_sha256(vocab_path) != meta["vocab_sha256"]:
        raise ValidationError(f"vocabulary {vocab_path} does not match the one used in training")
    m = dict(meta["model"])
    m["filter_sizes"] = tuple(m["filter_sizes"])
    model_cfg = ModelConfig(**m)
    params = load_checkpoint(ckpt_path)
    tensors = {k: Tensor(v, name=k) for k, v in params.items() if not k.startswith("head.")}
    model = EpisodeModel(model_cfg, {m_: dict(v) for m_, v in meta["subforum_maps"].items()}, tensors)
    encoder = PostEncoder(vocab, model_cfg.max_tokens)
    return meta, model, encoder


def _test_episodes(meta, args, markets=None):
    """Test-split episodes and train-split authors of the run's markets, or
    of `markets` only."""
    posts = _load_markets(args.processed, markets or meta["markets"])
    spec = read_split_manifest(_require(args.split, "split manifest"))
    train, test = _split_posts(posts, spec)
    episodes = {m: assemble_episodes(test[m], meta["episode_len"], meta["min_episodes"])
                for m in posts}
    seen = {m: {(m, p.author) for p in train[m]} for m in posts}
    return episodes, seen


def _embedding_inputs(meta, args) -> list[Path]:
    """Everything a run's test-episode embeddings depend on. The vocabulary
    enters through model_meta.json, which records its hash."""
    run = Path(args.run)
    return [*_market_files(args.processed, meta["markets"]).values(),
            _require(args.split, "split manifest"), run / "checkpoint.bin", run / "model_meta.json"]


def _eval_indexes(meta, args, markets) -> dict[str, RetrievalIndex] | None:
    """The test-episode indexes of `markets` as eval exported them, or None
    unless the run's eval-manifest.json records the current embedding inputs
    and still-matching outputs that include those embeddings files."""
    inputs = _embedding_inputs(meta, args)
    run = Path(args.run)
    paths = {m: run / f"embeddings-{m}.tsv" for m in markets}
    manifest = read_manifest(run / "eval-manifest.json")
    if (manifest is None or not hashes_match(manifest, inputs)
            or not all(str(p) in manifest["outputs"] for p in paths.values())):
        return None
    try:
        return {m: read_embeddings_index(p) for m, p in paths.items()}
    except ValueError:  # eval writes names unescaped; a tab or line break in one splits its row
        return None


def cmd_eval(args, cfg) -> int:
    evals = section_values(cfg, "eval", EVAL_DEFAULTS, {"kappa": args.kappa})
    meta, model, encoder = _load_run(Path(args.run), Path(args.vocab))
    out_dir = Path(args.out) if args.out else Path(args.run)
    inputs = _embedding_inputs(meta, args)
    effective = {"kappa": evals["kappa"], "ks": list(evals["ks"]), "seed": args.seed}

    def body():
        episodes, seen = _test_episodes(meta, args)
        report: dict = {
            "config": {
                "markets": meta["markets"], "multitask": meta["multitask"],
                "graph_init": meta["graph_init"], "episode_len": meta["episode_len"],
                "tokenizer": meta["model"]["tokenizer_kind"], "pooling": meta["model"]["pooling"],
                "loss": meta["loss"], "train_seed": meta["seed"], "eval_seed": args.seed,
            },
            "markets": {},
        }
        outputs = []
        for market in meta["markets"]:
            index = RetrievalIndex.from_episodes(model, encoder, episodes[market],
                                                 seen_authors=seen[market])
            queries = sample_queries(index, evals["kappa"], np.random.default_rng(args.seed))
            block = {"all": metrics_report(index, kappa=evals["kappa"], seed=args.seed,
                                           ks=tuple(evals["ks"])).to_dict()}
            block["all"]["random_baseline_mrr"] = random_baseline_mrr(index, queries)
            for group, rep in seen_novel_report(index, kappa=evals["kappa"], seed=args.seed,
                                                ks=tuple(evals["ks"])).items():
                block[group] = rep.to_dict()
            report["markets"][market] = block
            emb_path = out_dir / f"embeddings-{market}.tsv"
            export_embeddings_tsv(emb_path, index)
            outputs.append(emb_path)
        metrics_path = out_dir / "metrics.json"
        _json_dump(metrics_path, report)
        lines = [f"eval {market}: MRR={block['all']['mrr']:.4f} "
                 f"R@10={block['all']['recall'].get('10', float('nan')):.4f} "
                 f"baseline={block['all']['random_baseline_mrr']:.4f}"
                 for market, block in report["markets"].items()]
        return outputs + [metrics_path], None, "\n".join(lines)

    # eval writes into the run directory by default, next to train's manifest
    return _run_stage(args, "eval", out_dir, inputs, effective, body,
                      manifest="eval-manifest.json")


def cmd_sybil(args, cfg) -> int:
    meta, model, encoder = _load_run(Path(args.run), Path(args.vocab))
    if ":" not in args.user:
        raise ValidationError("--user expects market:username")
    market, username = args.user.split(":", 1)
    markets = sorted(meta["markets"])
    indexes = _eval_indexes(meta, args, markets)
    if indexes is None:
        episodes, _ = _test_episodes(meta, args)
        indexes = {m: RetrievalIndex.from_episodes(model, encoder, episodes[m]) for m in markets}
    index = RetrievalIndex.concat([indexes[m] for m in markets])
    cand_author, cand_market, support = topk_sybil(index, market, username, k=args.k)
    result = {
        "query_market": market, "query_user": username, "k": args.k,
        "candidate_user": cand_author, "candidate_market": cand_market,
        "support": support,
    }
    out_path = Path(args.out) if args.out else Path(args.run) / "sybil.json"
    _json_dump(out_path, result)
    print(f"sybil: {username}@{market} -> {cand_author}@{cand_market} (support {support})")
    return 0


def cmd_attribute(args, cfg) -> int:
    meta, model, encoder = _load_run(Path(args.run), Path(args.vocab))
    if args.market not in meta["markets"]:
        raise ValidationError(f"market {args.market!r} not in run")
    indexes = _eval_indexes(meta, args, [args.market])
    episodes, _ = _test_episodes(meta, args, [args.market])
    own = [e for e in episodes[args.market] if e.author == args.author]
    if not own:
        raise ValidationError(f"no test episodes for {args.author!r} in {args.market!r}")
    if not 0 <= args.episode_index < len(own):
        raise ValidationError(f"--episode-index out of range 0..{len(own) - 1}")
    episode = own[args.episode_index]
    index = (indexes[args.market] if indexes is not None
             else RetrievalIndex.from_episodes(model, encoder, episodes[args.market]))
    target = cosine_target(author_centroid(index, args.market, args.author))
    records, completeness = integrated_gradients(model, encoder, episode, target, steps=args.steps)
    out_path = Path(args.out) if args.out else Path(args.run) / "attribution.jsonl"
    with open(out_path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    denom = max(abs(completeness["delta"]), 1e-12)
    print(
        f"attribute: {len(records)} token scores -> {out_path} "
        f"(completeness gap {completeness['gap']:.2e}, relative {completeness['gap'] / denom:.2e})"
    )
    return 0


def cmd_compare(args, cfg) -> int:
    def collect(paths):
        values = {}
        for path in paths:
            doc = json.loads(_require(path, "metrics file").read_text())
            for market, block in doc["markets"].items():
                key = (market, doc["config"]["episode_len"], doc["config"]["tokenizer"],
                       doc["config"]["train_seed"])
                if args.metric == "mrr":
                    values[key] = block["all"]["mrr"]
                else:
                    k = args.metric.split("@", 1)[1]
                    values[key] = block["all"]["recall"][k]
        return values

    a_vals = collect([Path(p) for p in args.group_a])
    b_vals = collect([Path(p) for p in args.group_b])
    keys = sorted(set(a_vals) & set(b_vals))
    if len(keys) < 5:
        raise ValidationError(f"only {len(keys)} paired configurations; need at least 5")
    a = [a_vals[k] for k in keys]
    b = [b_vals[k] for k in keys]
    p = wmw_paired(a, b)
    result = {
        "metric": args.metric,
        "n_pairs": len(keys),
        "p_value": p,
        "mean_a": float(np.mean(a)),
        "mean_b": float(np.mean(b)),
        "pairs": [{"key": list(k), "a": av, "b": bv} for k, av, bv in zip(keys, a, b)],
    }
    if args.out:
        _json_dump(Path(args.out), result)
    print(f"compare[{args.metric}]: mean_a={result['mean_a']:.4f} mean_b={result['mean_b']:.4f} "
          f"p={p:.4g} over {len(keys)} pairs")
    return 0


# --------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epistyle",
        description="Episode-level stylometric embeddings for forum authorship attribution.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--config", default=None, help="key-value config file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--skip-if-fresh", action="store_true",
                       help="no-op when inputs and config are unchanged")
        return p

    p = add("synth", cmd_synth, help="generate a synthetic multi-market corpus")
    p.add_argument("--out", required=True)

    p = add("ingest", cmd_ingest, help="validate and normalize a raw JSONL post file")
    p.add_argument("--input", required=True)
    p.add_argument("--market", required=True)
    p.add_argument("--out", required=True)

    p = add("preprocess", cmd_preprocess, help="replace quotes/PGP/links/images with special tokens")
    p.add_argument("--input", required=True, help="directory of raw {market}.jsonl files")
    p.add_argument("--out", required=True)

    p = add("split", cmd_split, help="chronological per-market train/test split")
    p.add_argument("--input", required=True, help="directory of processed market files")
    p.add_argument("--out", required=True, help="split manifest CSV path")

    p = add("pgp-pairs", cmd_pgp_pairs, help="cross-market same-key candidate pairs (raw bodies)")
    p.add_argument("--input", required=True, help="directory of RAW market files")
    p.add_argument("--out", required=True)

    p = add("build-graph", cmd_build_graph, help="heterogeneous graph from one market's train split")
    p.add_argument("--input", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--market", required=True)
    p.add_argument("--out", required=True)

    p = add("walk", cmd_walk, help="meta-path guided random walks")
    p.add_argument("--graph", required=True)
    p.add_argument("--walks-per-user", type=int, default=None)
    p.add_argument("--walk-length", type=int, default=None)
    p.add_argument("--out", required=True)

    p = add("graph-embed", cmd_graph_embed, help="skip-gram node embeddings and context init")
    p.add_argument("--walks", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--out", required=True, help="output directory (nodes.tsv, context.tsv)")

    p = add("train-tokenizer", cmd_train_tokenizer, help="train a char or byte-BPE vocabulary")
    p.add_argument("--input", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--kind", choices=["char", "bpe"], default=None)
    p.add_argument("--size", type=int, default=None)
    p.add_argument("--out", required=True)

    p = add("train", cmd_train, help="train a single-market or multitask model")
    p.add_argument("--processed", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--market", default=None)
    p.add_argument("--multitask", action="store_true")
    p.add_argument("--labels", default=None, help="migration labels CSV for the cross task")
    p.add_argument("--episode-len", type=int, default=None)
    p.add_argument("--loss", choices=["sm", "cf", "af", "ms"], default=None)
    p.add_argument("--pooling", choices=["mean", "transformer"], default=None)
    p.add_argument("--tokenizer", choices=["char", "bpe"], default=None,
                   help="assert the vocabulary file is of this kind")
    p.add_argument("--graph-init", choices=["pretrained", "random"], default="random")
    p.add_argument("--context-init", action="append", default=None, metavar="MARKET=TSV")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--p-cross", type=float, default=None)
    p.add_argument("--max-tokens", type=int, default=None)
    p.add_argument("--out", required=True)

    p = add("eval", cmd_eval, help="retrieval metrics over the test split")
    p.add_argument("--run", required=True)
    p.add_argument("--processed", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--kappa", type=int, default=None)
    p.add_argument("--out", default=None)

    p = add("sybil", cmd_sybil, help="top-k cross-market sybil candidate for a user")
    p.add_argument("--run", required=True)
    p.add_argument("--processed", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--user", required=True, help="market:username")
    p.add_argument("-k", type=int, default=10)
    p.add_argument("--out", default=None)

    p = add("attribute", cmd_attribute, help="integrated-gradients token attribution")
    p.add_argument("--run", required=True)
    p.add_argument("--processed", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--market", required=True)
    p.add_argument("--author", required=True)
    p.add_argument("--episode-index", type=int, default=0)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--out", default=None)

    p = add("compare", cmd_compare, help="paired signed-rank comparison of metric files")
    p.add_argument("--metric", default="mrr", help="mrr or recall@K")
    p.add_argument("--group-a", nargs="+", required=True)
    p.add_argument("--group-b", nargs="+", required=True)
    p.add_argument("--out", default=None)

    return parser


def _keep_freed_memory_mapped() -> None:
    """Ask glibc to keep freed memory mapped for reuse.

    A forward pass allocates and frees arrays of up to a few hundred MB. By
    default glibc returns freed blocks above its mmap threshold to the kernel
    and trims the heap top, so the next batch faults the same pages in again;
    on the desk training pipeline that costs about 8% of wall time. Reused
    memory does not raise the peak resident set.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return  # not glibc
    mallopt(-3, 1 << 30)  # M_MMAP_THRESHOLD
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _keep_freed_memory_mapped()
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        return args.fn(args, cfg)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
