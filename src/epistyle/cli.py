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
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .atomic import atomic_write
from .config import (
    ValidationError,
    file_sha256,
    hashes_match,
    is_fresh,
    load_config,
    manifest_key,
    read_manifest,
    section_values,
    write_manifest,
)
from .corpus import (
    COLUMNS_SUFFIX,
    Post,
    assemble_episodes,
    chronological_split,
    extract_pgp_candidate_pairs,
    load_migration_labels,
    load_posts,
    preprocess_text,
    read_split_manifest,
    split_posts,
    write_labels_csv,
    write_posts,
    write_split_manifest,
)
from .evaluation import (
    RetrievalIndex,
    author_centroid,
    cosine_target,
    embeddings_files,
    export_embeddings_tsv,
    integrated_gradients,
    market_metrics,
    read_embeddings_index,
    topk_sybil,
    wmw_paired,
)
from .hetgraph import (
    GraphConfig,
    NodeEmbeddings,
    build_graph,
    export_context_init,
    read_embeddings_tsv,
    read_graph,
    read_walks,
    sample_walks,
    train_skipgram,
    write_embeddings_tsv,
    write_graph,
    write_walks,
)
from .model import EpisodeModel, ModelConfig, PostEncoder, rescale_context_init
from .numcore import Tensor, load_checkpoint, save_checkpoint
from .synth import SynthConfig, generate_corpus, write_corpus
from .tokenization import TokenizerConfig, load_vocab, save_vocab, train_bpe, train_char_vocab
from .train import TrainConfig, build_registry, train_multitask, train_single

log = logging.getLogger("epistyle")


# the config class of each section but [eval]: its fields are the section's
# keys, and building one checks their values, with a message that starts with
# the key it is about
SECTION_CLASSES = {"corpus": SynthConfig, "tokenizer": TokenizerConfig, "graph": GraphConfig,
                   "model": ModelConfig, "train": TrainConfig}

# Each config section's keys with their defaults, which also give their types:
# a class's fields less those the CLI fills itself, and [eval]'s kappa.
SECTION_DEFAULTS = {**{section: {f.name: f.default for f in fields(cls)
                                 if f.name not in ("seed", "vocab_size", "tokenizer_kind")}
                       for section, cls in SECTION_CLASSES.items()},
                    "eval": {"kappa": 1000}}

# the flags that set a config key, by subcommand: flag -> (section, key). A
# flag's value replaces the file's; every other key is set in the file only.
KEY_FLAGS = {
    "walk": {"--walks-per-user": ("graph", "walks_per_user")},
    "graph-embed": {"--epochs": ("graph", "epochs")},
    "train": {"--epochs": ("train", "epochs"), "--pooling": ("model", "pooling"),
              "--p-cross": ("train", "p_cross")},
    "eval": {"--kappa": ("eval", "kappa")},
}

KS = (1, 5, 10)  # the k of each recall@k that eval reports

# the keys of model_meta.json that the run readers use
META_KEYS = ("model", "subforum_maps", "markets", "multitask", "graph_init", "episode_len",
             "loss", "seed", "vocab_sha256")


# -------------------------------------------------------------- shared bits


def _require(path, what: str) -> Path:
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"missing {what}: {path}")
    return path


def _market_files(directory, markets=None, suffix=COLUMNS_SUFFIX) -> dict[str, Path]:
    """Every `{market}{suffix}` file in `directory`, or those of `markets`
    only, each of which must exist. Processed files are column documents;
    `preprocess` and `pgp-pairs` pass ".jsonl" to read raw files."""
    directory = _require(directory, "input directory")
    files = {p.name[:-len(suffix)]: p for p in sorted(directory.glob(f"*{suffix}"))}
    if not files:
        raise ValidationError(f"no {suffix} files in {directory}")
    if markets is None:
        return files
    for market in markets:
        if market not in files:
            raise ValidationError(f"market {market!r} not among {sorted(files)}")
    return {m: files[m] for m in markets}


def _load_markets(directory, markets=None, suffix=COLUMNS_SUFFIX) -> dict[str, list[Post]]:
    """Posts of every market file in `directory`, or of `markets` only."""
    out = {}
    for market, path in _market_files(directory, markets, suffix).items():
        posts, malformed = load_posts(path, market)
        if malformed:
            log.warning("%s: %d malformed lines skipped", path, malformed)
        out[market] = posts
    return out


def _read_json(path, keys: tuple) -> dict:
    """The JSON object in `path`, which holds every one of `keys`; anything
    else fails naming the file."""
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: not JSON ({exc})") from None
    missing = [k for k in keys if k not in doc] if isinstance(doc, dict) else keys
    if missing:
        raise ValueError(f"{path}: not a JSON object with key(s) {', '.join(missing)}")
    return doc


def _json_dump(path, obj) -> None:
    with atomic_write(path, encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _json_lines(path, records) -> None:
    with atomic_write(path, encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def _run_stage(args, stage: str, inputs: list, outputs: list, effective: dict, body,
               manifest: str = "manifest.json") -> int:
    """Run one manifest-writing stage, whose manifest sits beside its first
    output.

    Under --skip-if-fresh a stage whose manifest still records its inputs,
    exactly its `outputs`, its config and seed, all with matching hashes,
    does nothing. Otherwise `body()` writes `outputs` and returns
    (extra, message); the manifest is written only after the body returns.
    """
    out_dir = Path(outputs[0]).parent
    if args.skip_if_fresh and is_fresh(out_dir, stage, inputs, outputs, effective, args.seed,
                                       manifest):
        print(f"{stage}: fresh, skipping ({out_dir})")
        return 0
    extra, message = body()
    write_manifest(out_dir, stage, inputs, effective, args.seed, outputs, extra=extra,
                   name=manifest)
    print(message)
    return 0


# ------------------------------------------------------------------- stages


def cmd_synth(args, values) -> int:
    scfg = SynthConfig(**values["corpus"], seed=args.seed)
    out_dir = Path(args.out)
    outputs = [out_dir / f"{m}.jsonl" for m in scfg.markets] + [out_dir / "labels.csv"]

    def body():
        corpus = generate_corpus(scfg)
        write_corpus(corpus, out_dir)
        return ({"total_posts": corpus.total_posts(), "labels": len(corpus.labels)},
                f"synth: wrote {corpus.total_posts()} posts across {len(scfg.markets)} "
                f"markets to {args.out}")

    return _run_stage(args, "synth", [], outputs, {**values["corpus"], "seed": args.seed}, body)


def cmd_ingest(args, values) -> int:
    src = _require(args.input, "input posts file")
    out_path = Path(args.out) / f"{args.market}.jsonl"

    def body():
        posts, malformed = load_posts(src, args.market)
        write_posts(out_path, posts)
        return ({"posts": len(posts), "malformed": malformed},
                f"ingest: {len(posts)} posts ({malformed} malformed lines skipped) -> {out_path}")

    return _run_stage(args, "ingest", [src], [out_path], {"market": args.market}, body)


def cmd_preprocess(args, values) -> int:
    files = _market_files(args.input, suffix=".jsonl")
    out_dir = Path(args.out)
    outputs = {market: out_dir / f"{market}{COLUMNS_SUFFIX}" for market in files}

    def body():
        for market, path in files.items():
            posts, _ = load_posts(path, market)
            write_posts(outputs[market], [p._replace(body=preprocess_text(p.body)) for p in posts])
        return None, f"preprocess: {len(outputs)} market files -> {out_dir}"

    return _run_stage(args, "preprocess", list(files.values()), list(outputs.values()), {}, body)


def cmd_split(args, values) -> int:
    files = _market_files(args.input)
    out_path = Path(args.out)

    def body():
        split, cuts = {}, {}
        for market, path in files.items():
            posts, _ = load_posts(path, market)
            cuts[market], sides = chronological_split(posts)
            split.update(sides)
        write_split_manifest(out_path, split)
        counts = {m: tuple(list(split[m].values()).count(side) for side in ("train", "test"))
                  for m in files}
        return {"split_timestamps": cuts}, f"split: {counts} -> {out_path}"

    effective = {"rule": "median-per-market, ties to train"}
    return _run_stage(args, "split", list(files.values()), [out_path], effective, body)


def cmd_pgp_pairs(args, values) -> int:
    files = _market_files(args.input, suffix=".jsonl")
    out_path = Path(args.out)

    def body():
        posts = [p for plist in _load_markets(args.input, suffix=".jsonl").values() for p in plist]
        candidates = extract_pgp_candidate_pairs(posts)
        write_labels_csv(out_path, candidates)
        return ({"candidates": len(candidates)},
                f"pgp-pairs: {len(candidates)} cross-market candidates -> {out_path}")

    effective = {"fingerprint": "sha256 of normalized base64 payload"}
    return _run_stage(args, "pgp-pairs", list(files.values()), [out_path], effective, body)


def cmd_build_graph(args, values) -> int:
    market_path = _market_files(args.input, [args.market])[args.market]
    split_path = _require(args.split, "split manifest")
    out_path = Path(args.out)

    def body():
        posts, _ = load_posts(market_path, args.market)
        train, _ = split_posts({args.market: posts}, read_split_manifest(split_path), split_path)
        graph = build_graph(train[args.market])
        write_graph(out_path, graph)
        return ({"nodes": graph.num_nodes()},
                f"build-graph: {graph.num_nodes()} nodes -> {out_path}")

    inputs = [market_path, split_path]
    effective = {"market": args.market, "split": "train-only"}
    return _run_stage(args, "build-graph", inputs, [out_path], effective, body)


def cmd_walk(args, values) -> int:
    graph_path = _require(args.graph, "graph file")
    out_path = Path(args.out)
    effective = {k: values["graph"][k] for k in ("walks_per_user", "walk_length")}

    def body():
        walks = sample_walks(read_graph(graph_path), **effective, rng_seed=args.seed)
        write_walks(out_path, walks)
        return {"walks": len(walks)}, f"walk: {len(walks)} walks -> {out_path}"

    return _run_stage(args, "walk", [graph_path], [out_path], effective, body)


def cmd_graph_embed(args, values) -> int:
    gvals = values["graph"]
    walks_path = _require(args.walks, "walks file")
    graph_path = _require(args.graph, "graph file")
    ctx_path = Path(args.out) / "context.tsv"

    def body():
        emb = train_skipgram(read_walks(walks_path), dim=gvals["dim"], window=gvals["window"],
                             negatives=gvals["negatives"], epochs=gvals["epochs"],
                             rng_seed=args.seed)
        graph = read_graph(graph_path)
        subforums = sorted(key for (t, key) in graph.key_labels if t == "S")
        ctx = export_context_init(emb, graph, subforums)
        write_embeddings_tsv(ctx_path, NodeEmbeddings(ctx, emb.dim), key="subforum")
        return ({"epoch_losses": emb.meta["epoch_losses"]},
                f"graph-embed: {len(emb.vectors)} nodes, {len(ctx)} subforums -> {args.out}")

    return _run_stage(args, "graph-embed", [walks_path, graph_path], [ctx_path], gvals, body)


def cmd_train_tokenizer(args, values) -> int:
    tvals = values["tokenizer"]
    files = _market_files(args.input)
    split_path = _require(args.split, "split manifest")
    out_path = Path(args.out)

    def body():
        train, _ = split_posts(_load_markets(args.input), read_split_manifest(split_path),
                               split_path)
        texts = [p.body for market in sorted(train) for p in train[market]]
        trainer = train_char_vocab if tvals["kind"] == "char" else train_bpe
        vocab = trainer(texts, size=tvals["size"])
        save_vocab(out_path, vocab)
        return ({"vocab_size": len(vocab)},
                f"train-tokenizer: {tvals['kind']} vocab of {len(vocab)} -> {out_path}")

    inputs = list(files.values()) + [split_path]
    return _run_stage(args, "train-tokenizer", inputs, [out_path], tvals, body)


def _parse_context_init(pairs: list[str]) -> dict[str, Path]:
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValidationError(f"--context-init expects market=path, got {pair!r}")
        market, path = pair.split("=", 1)
        out[market] = _require(path, f"context init for {market}")
    return out


def cmd_train(args, values) -> int:
    mvals, tvals = values["model"], values["train"]
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
        if args.labels:
            raise ValidationError("--labels needs --multitask")
        if args.market not in files:
            raise ValidationError(f"market {args.market!r} not among {sorted(files)}")
        markets = [args.market]

    labels_path = _require(args.labels, "migration labels") if args.labels else None
    if args.context_init and args.graph_init != "pretrained":
        raise ValidationError("--context-init needs --graph-init pretrained")
    ctx_paths = _parse_context_init(args.context_init)
    unused = sorted(set(ctx_paths) - set(markets))
    if unused:
        raise ValidationError(f"--context-init for {unused}: not a market this run trains")
    if args.graph_init == "pretrained":
        missing = [m for m in markets if m not in ctx_paths]
        if missing:
            raise ValidationError(f"--graph-init pretrained needs --context-init for {missing}")
    vocab = load_vocab(vocab_path)

    inputs = [files[m] for m in markets] + [split_path, vocab_path]
    if labels_path:
        inputs.append(labels_path)
    inputs.extend(ctx_paths.values())
    effective = {"markets": markets, "multitask": args.multitask, "graph_init": args.graph_init,
                 "model": mvals, "train": tvals}
    out_dir = Path(args.out)
    ckpt_path, runlog_path = out_dir / "checkpoint.bin", out_dir / "runlog.jsonl"
    meta_path = out_dir / "model_meta.json"

    def body():
        train_posts, _ = split_posts(_load_markets(args.processed, markets),
                                     read_split_manifest(split_path), split_path)
        subforums = {m: sorted({p.subforum for p in train_posts[m]}) for m in markets}

        context_init = None
        if args.graph_init == "pretrained":
            context_init = {m: rescale_context_init(read_embeddings_tsv(ctx_paths[m]).vectors)
                            for m in markets}

        model_cfg = ModelConfig(**mvals, vocab_size=len(vocab), tokenizer_kind=vocab.kind)
        train_cfg = TrainConfig(**tvals, seed=args.seed)

        model = EpisodeModel.build(model_cfg, subforums, seed=args.seed, context_init=context_init)
        encoder = PostEncoder(vocab, model_cfg.max_tokens)
        migration = load_migration_labels(labels_path) if labels_path else None
        registry = build_registry(model, encoder, train_posts, train_cfg, migration)
        result = (
            train_multitask(registry, train_cfg) if args.multitask
            else train_single(registry, train_cfg)
        )
        save_checkpoint(ckpt_path, {n: t.data for n, t in registry.all_params().items()})
        _json_lines(runlog_path, result.log)
        meta = {
            "model": {**asdict(model_cfg), "filter_sizes": list(model_cfg.filter_sizes)},
            "subforum_maps": model.subforum_maps,
            "markets": markets,
            "multitask": args.multitask,
            "graph_init": args.graph_init,
            "episode_len": train_cfg.episode_len,
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
        _json_dump(meta_path, meta)
        return ({"best_epoch": result.best_epoch, "best_val_loss": result.best_val_loss},
                f"train: best val loss {result.best_val_loss:.4f} at epoch {result.best_epoch} "
                f"-> {out_dir}")

    return _run_stage(args, "train", inputs, [ckpt_path, runlog_path, meta_path], effective, body)


def _load_run(run_dir, vocab_path):
    """A trained run for forward passes only: its parameters track no gradient."""
    run_dir = _require(run_dir, "run directory")
    meta_path = _require(run_dir / "model_meta.json", "model metadata")
    ckpt_path = _require(run_dir / "checkpoint.bin", "checkpoint")
    meta = _read_json(meta_path, META_KEYS)
    try:
        model_cfg = ModelConfig(**{**meta["model"],
                                   "filter_sizes": tuple(meta["model"]["filter_sizes"])})
        maps = {m: dict(rows) for m, rows in meta["subforum_maps"].items()}
        want = {k: t.shape for k, t in EpisodeModel.build(model_cfg, maps).params.items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{meta_path}: bad model config ({exc})") from None
    vocab = load_vocab(_require(vocab_path, "vocabulary file"))
    if file_sha256(vocab_path) != meta["vocab_sha256"]:
        raise ValidationError(f"vocabulary {vocab_path} does not match the one used in training")
    tensors = {k: Tensor(v) for k, v in load_checkpoint(ckpt_path).items()
               if not k.startswith("head.")}
    got = {k: t.shape for k, t in tensors.items()}
    for name in [*want, *got]:
        if got.get(name) != want.get(name):
            raise ValueError(f"{ckpt_path}: block {name!r} is {got.get(name, 'missing')}, "
                             f"the model of {meta_path} has {want.get(name, 'no such block')}")
    model = EpisodeModel(model_cfg, maps, tensors)
    encoder = PostEncoder(vocab, model_cfg.max_tokens)
    return meta, model, encoder


def _test_episodes(meta, args, markets=None):
    """Test-split episodes and train-split authors of the run's markets, or
    of `markets` only."""
    posts = _load_markets(args.processed, markets or meta["markets"])
    split_path = _require(args.split, "split manifest")
    train, test = split_posts(posts, read_split_manifest(split_path), split_path)
    episodes = {m: assemble_episodes(test[m], meta["episode_len"]) for m in posts}
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
    files = {m: embeddings_files(run, m) for m in markets}
    manifest = read_manifest(run / "eval-manifest.json")
    if (manifest is None or not hashes_match(manifest, run, inputs)
            or not all(manifest_key(f, run) in manifest["outputs"]
                       for pair in files.values() for f in pair)):
        return None
    return {m: read_embeddings_index(npy) for m, (npy, _) in files.items()}


def cmd_eval(args, values) -> int:
    kappa = values["eval"]["kappa"]
    meta, model, encoder = _load_run(Path(args.run), Path(args.vocab))
    out_dir = Path(args.out) if args.out else Path(args.run)
    inputs = _embedding_inputs(meta, args)
    effective = {"kappa": kappa, "seed": args.seed}
    emb_files = {m: embeddings_files(out_dir, m) for m in meta["markets"]}
    metrics_path = out_dir / "metrics.json"

    def body():
        episodes, seen = _test_episodes(meta, args)
        report: dict = {
            "config": {
                "markets": meta["markets"], "multitask": meta["multitask"],
                "graph_init": meta["graph_init"], "episode_len": meta["episode_len"],
                "tokenizer": model.cfg.tokenizer_kind, "pooling": model.cfg.pooling,
                "loss": meta["loss"], "train_seed": meta["seed"], "eval_seed": args.seed,
            },
            "markets": {},
        }
        for market in meta["markets"]:
            index = RetrievalIndex.from_episodes(model, encoder, episodes[market],
                                                 seen_authors=seen[market])
            report["markets"][market] = market_metrics(index, kappa, KS, args.seed)
            export_embeddings_tsv(emb_files[market][0], index)
        _json_dump(metrics_path, report)
        lines = [f"eval {market}: MRR={block['all']['mrr']:.4f} "
                 f"R@10={block['all']['recall'].get('10', float('nan')):.4f} "
                 f"baseline={block['all']['random_baseline_mrr']:.4f}"
                 for market, block in report["markets"].items()]
        return None, "\n".join(lines)

    # eval writes into the run directory by default, next to train's manifest
    outputs = [f for pair in emb_files.values() for f in pair] + [metrics_path]
    return _run_stage(args, "eval", inputs, outputs, effective, body, manifest="eval-manifest.json")


def cmd_sybil(args, values) -> int:
    meta, model, encoder = _load_run(Path(args.run), Path(args.vocab))
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


def cmd_attribute(args, values) -> int:
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
    _json_lines(out_path, records)
    denom = max(abs(completeness["delta"]), 1e-12)
    print(
        f"attribute: {len(records)} token scores -> {out_path} "
        f"(completeness gap {completeness['gap']:.2e}, relative {completeness['gap'] / denom:.2e})"
    )
    return 0


def _recall_k(metric: str) -> str | None:
    """The K of --metric recall@K, as metrics files key it; None for mrr."""
    if metric == "mrr":
        return None
    name, _, k = metric.partition("@")
    if name != "recall" or not (k.isdecimal() and int(k) > 0):
        raise ValidationError(f"--metric must be mrr or recall@K for a positive integer K, "
                              f"got {metric!r}")
    return str(int(k))


def cmd_compare(args, values) -> int:
    recall_k = _recall_k(args.metric)

    def collect(paths):
        values = {}
        for path in paths:
            doc = _read_json(_require(path, "metrics file"), ("config", "markets"))
            try:
                for market, block in doc["markets"].items():
                    key = (market, doc["config"]["episode_len"], doc["config"]["tokenizer"],
                           doc["config"]["train_seed"])
                    summary = block["all"]
                    if recall_k is None:
                        values[key] = summary["mrr"]
                    elif recall_k in summary["recall"]:
                        values[key] = summary["recall"][recall_k]
                    else:
                        raise ValidationError(f"{path}: no recall@{recall_k}; it holds recall@k "
                                              f"for k in {', '.join(summary['recall'])}")
            except (KeyError, TypeError, AttributeError) as exc:
                what = f"no {exc} entry" if isinstance(exc, KeyError) else exc
                raise ValueError(f"{path}: not an eval metrics file ({what})") from None
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


class _Parser(argparse.ArgumentParser):
    """Reports a command line it rejects in one line and exits 2, as
    argparse does after its usage text."""

    def error(self, message):
        self.exit(2, f"error: {message.removeprefix('argument ')}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="epistyle",
        description="Episode-level stylometric embeddings for forum authorship attribution.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, manifest=True, **kw):
        """A subcommand with its KEY_FLAGS; only those that write a manifest
        can skip when fresh."""
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--config", default=None, help="key-value config file")
        p.add_argument("--seed", type=int, default=0)
        if manifest:
            p.add_argument("--skip-if-fresh", action="store_true",
                           help="no-op when inputs and config are unchanged")
        for flag, (section, key) in KEY_FLAGS.get(name, {}).items():
            p.add_argument(flag, dest=key, type=type(SECTION_DEFAULTS[section][key]),
                           help=f"sets [{section}] {key}")
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
    p.add_argument("--out", required=True)

    p = add("graph-embed", cmd_graph_embed, help="skip-gram node embeddings and context init")
    p.add_argument("--walks", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--out", required=True, help="output directory (context.tsv)")

    p = add("train-tokenizer", cmd_train_tokenizer, help="train a char or byte-BPE vocabulary")
    p.add_argument("--input", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--out", required=True)

    p = add("train", cmd_train, help="train a single-market or multitask model")
    p.add_argument("--processed", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--market", default=None)
    p.add_argument("--multitask", action="store_true")
    p.add_argument("--labels", default=None,
                   help="migration labels CSV for the cross task (with --multitask)")
    p.add_argument("--graph-init", choices=["pretrained", "random"], default="random")
    p.add_argument("--context-init", action="append", default=None, metavar="MARKET=TSV")
    p.add_argument("--out", required=True)

    p = add("eval", cmd_eval, help="retrieval metrics over the test split")
    p.add_argument("--run", required=True)
    p.add_argument("--processed", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", default=None)

    p = add("sybil", cmd_sybil, manifest=False,
            help="top-k cross-market sybil candidate for a user")
    p.add_argument("--run", required=True)
    p.add_argument("--processed", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--user", required=True, help="market:username")
    p.add_argument("-k", type=int, default=10)
    p.add_argument("--out", default=None)

    p = add("attribute", cmd_attribute, manifest=False,
            help="integrated-gradients token attribution")
    p.add_argument("--run", required=True)
    p.add_argument("--processed", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--market", required=True)
    p.add_argument("--author", required=True)
    p.add_argument("--episode-index", type=int, default=0)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--out", default=None)

    p = add("compare", cmd_compare, manifest=False,
            help="paired signed-rank comparison of metric files")
    p.add_argument("--metric", default="mrr", help="mrr or recall@K")
    p.add_argument("--group-a", nargs="+", required=True)
    p.add_argument("--group-b", nargs="+", required=True)
    p.add_argument("--out", default=None)

    return parser


def _keep_freed_memory_mapped() -> None:
    """Ask glibc to keep freed memory mapped for reuse.

    A training step allocates and frees many arrays above glibc's mmap
    threshold. By default glibc returns such freed blocks to the kernel and
    trims the heap top, so the next batch maps fresh pages. It stays for
    throughput: in 6 alternating pairs of the benchmark with and without it
    (seed 5, 8 s runs, 2 cores, 1 BLAS thread), it raised desk-graph's
    train_episodes_per_s from 1023 to 1285 and its eval_queries_per_s from
    6470 to 7092 (5 of 6 pairs each), and lowered its peak_rss_mb from 84.5
    to 84.3 MB (6 of 6). It costs desk-train memory: peak_rss_mb 107.1 to
    108.9 MB (6 of 6). scale-eval moved within the spread of its runs.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return  # not glibc
    mallopt(-3, 1 << 30)  # M_MMAP_THRESHOLD
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


def _settings(args) -> dict:
    """Every config section's typed values with the command's KEY_FLAGS merged
    in, checked once before any work, so that each stage fails on a fault in
    any section: the counts, and each of SECTION_CLASSES built. A fault names
    the flag that set the value, or else the file, section and key."""
    cfg = load_config(args.config, SECTION_DEFAULTS)
    try:
        values = {s: section_values(cfg, s, d) for s, d in SECTION_DEFAULTS.items()}
    except ValidationError as exc:
        raise ValidationError(f"{args.config}: {exc}") from None
    flags = {}
    for flag, (section, key) in KEY_FLAGS.get(args.command, {}).items():
        if getattr(args, key) is not None:
            values[section][key] = getattr(args, key)
            flags[section, key] = flag
    kappa = flags.get(("eval", "kappa"), f"{args.config}: [eval] kappa")
    counts = {kappa: values["eval"]["kappa"]}
    if args.command == "sybil":
        counts["-k"] = args.k
    if args.command == "attribute":
        counts["--steps"] = args.steps
    for what, count in counts.items():
        if count < 1:
            raise ValidationError(f"{what}: expected at least 1, got {count}")
    for section, cls in SECTION_CLASSES.items():
        try:
            cls(**values[section])
        except ValueError as exc:
            key, _, rest = str(exc).partition(" ")
            flag = flags.get((section, key.rstrip(":")))
            raise ValidationError(f"{flag}: {rest}" if flag else
                                  f"{args.config}: [{section}] {exc}") from None
    if args.command == "sybil" and ":" not in args.user:
        raise ValidationError("--user expects market:username")
    return values


def main(argv=None) -> int:
    _keep_freed_memory_mapped()
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, _settings(args))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
