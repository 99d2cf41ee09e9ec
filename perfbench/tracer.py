"""Spans and counts recorded from outside the program.

The tracer replaces each traced `epistyle` function with a wrapper in every
namespace that binds it: `cli` imports library functions by name, `model`
calls `numcore.matmul` through the package, and `numcore.tensor.linear`
calls `matmul` through its own module globals. Wrapping only the defining
module would miss those callers.

A span is (name, start, end, parent). Spans stay in memory; `summary()`
folds them into inclusive seconds, self seconds (duration minus direct
children) and call counts per name.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _nbytes(x) -> int:
    """Bytes of an ndarray or of a Tensor's array."""
    return int((x if hasattr(x, "nbytes") else x.data).nbytes)


def _matmul_counts(args, out, tracer):
    a, b = args[0], args[1]
    k = a.shape[-1]
    return {"gflop": 2.0 * out.data.size * k / 1e9,
            "bytes": _nbytes(a) + _nbytes(b) + _nbytes(out)}


def _conv_counts(args, out, tracer):
    x, filt = args[0], args[1]
    w, d_in, _ = filt.shape
    return {"gflop": 2.0 * out.data.size * w * d_in / 1e9,
            "bytes": _nbytes(x) + _nbytes(filt) + _nbytes(out)}


def _pad_counts(args, batch, tracer):
    encoder = args[1]
    return {"real_tokens": int((batch.token_ids != encoder.vocab.pad_id).sum()),
            "slots": int(batch.token_ids.size)}


def _skipgram_counts(args, emb, tracer):
    window, epochs = emb.meta["window"], emb.meta["epochs"]
    pairs = 0
    for walk in args[0]:
        n = len(walk)
        for t in range(n):
            pairs += min(n, t + window + 1) - max(0, t - window) - 1
    return {"pairs": pairs * epochs}


def _load_posts_counts(args, result, tracer):
    posts = result[0]
    tracer.distinct_posts.update((p.market, p.post_id) for p in posts)
    return {"posts": len(posts)}


# (module, attribute, span name, counts) where counts(args, result, tracer)
# returns increments for "<span name>.<key>" counters, or is None.
# Attributes with a dot are methods, patched on their class.
TIMED = [
    ("config", "file_sha256", "config.file_sha256",
     lambda a, r, t: {"bytes": os.path.getsize(a[0])}),
    ("config", "write_manifest", "config.write_manifest", None),
    ("corpus", "load_posts", "corpus.load_posts", _load_posts_counts),
    ("corpus", "preprocess_text", "corpus.preprocess_text", None),
    ("corpus", "chronological_split", "corpus.chronological_split", None),
    ("corpus", "read_split_manifest", "corpus.read_split_manifest", None),
    ("corpus", "assemble_episodes", "corpus.assemble_episodes", None),
    ("corpus", "extract_pgp_candidate_pairs", "corpus.extract_pgp_candidate_pairs", None),
    ("tokenization", "train_char_vocab", "tokenization.train_char_vocab", None),
    ("tokenization", "encode", "tokenization.encode", None),
    ("tokenization", "load_vocab", "tokenization.load_vocab", None),
    ("hetgraph", "build_graph", "hetgraph.build_graph", lambda a, r, t: {"posts": len(a[0])}),
    ("hetgraph", "sample_walks", "hetgraph.sample_walks",
     lambda a, r, t: {"steps": sum(len(w) - 1 for w in r)}),
    ("hetgraph", "train_skipgram", "hetgraph.train_skipgram", _skipgram_counts),
    ("hetgraph", "read_walks", "hetgraph.read_walks", None),
    ("hetgraph", "write_walks", "hetgraph.write_walks", None),
    ("hetgraph", "write_embeddings_tsv", "hetgraph.write_embeddings_tsv", None),
    ("numcore.tensor", "sliding_window_conv", "numcore.sliding_window_conv", _conv_counts),
    ("numcore.tensor", "matmul", "numcore.matmul", _matmul_counts),
    ("numcore.tensor", "embedding_lookup", "numcore.embedding_lookup", None),
    ("numcore.tensor", "multihead_attention", "numcore.multihead_attention", None),
    ("numcore.tensor", "layer_norm", "numcore.layer_norm", None),
    ("numcore.tensor", "max_over_time", "numcore.max_over_time", None),
    ("numcore.tensor", "cross_entropy", "numcore.cross_entropy", None),
    ("numcore.tensor", "Tensor.backward", "numcore.Tensor.backward", None),
    ("numcore.optim", "adam_step", "numcore.adam_step", None),
    ("numcore.optim", "clip_global_norm", "numcore.clip_global_norm", None),
    ("numcore.checkpoint", "save_checkpoint", "numcore.save_checkpoint", None),
    ("numcore.checkpoint", "load_checkpoint", "numcore.load_checkpoint", None),
    ("model", "make_episode_batch", "model.make_episode_batch", _pad_counts),
    ("model", "EpisodeModel.embed_episodes", "model.EpisodeModel.embed_episodes", None),
    ("model", "MetricHead.loss", "model.MetricHead.loss", None),
    ("train", "build_registry", "train.build_registry", None),
    ("train", "sample_batch", "train.sample_batch", None),
    ("train", "train_multitask", "train.train_multitask", None),
    ("evaluation", "RetrievalIndex.from_episodes", "evaluation.RetrievalIndex.from_episodes",
     lambda a, r, t: {"episodes": len(r)}),
    ("evaluation", "metrics_report", "evaluation.metrics_report", None),
    ("evaluation", "seen_novel_report", "evaluation.seen_novel_report", None),
    ("evaluation", "random_baseline_mrr", "evaluation.random_baseline_mrr", None),
    ("evaluation", "export_embeddings_tsv", "evaluation.export_embeddings_tsv", None),
    ("evaluation", "topk_sybil", "evaluation.topk_sybil", None),
    ("evaluation", "integrated_gradients", "evaluation.integrated_gradients", None),
    ("synth", "generate_corpus", "synth.generate_corpus", None),
    ("synth", "write_corpus", "synth.write_corpus", None),
]

# Called per post per batch or per query: counted without a span, because a
# span each would cost more than the work it measures. counts(args, tracer)
# adds to "<name>.<key>" counters besides "<name>.calls", or is None.
COUNTED = [
    ("model", "PostEncoder.ids", "model.PostEncoder.ids", None),
    ("evaluation", "RetrievalIndex.first_same_author_rank",
     "evaluation.RetrievalIndex.first_same_author_rank", None),
]


class Tracer:
    """Installs wrappers into the loaded `epistyle` modules and records
    spans and counts while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict[str, float] = defaultdict(float)
        self.distinct_posts: set = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------- recording

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        i = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(i)
        try:
            yield
        finally:
            self.spans[i][2] = time.perf_counter()
            self._stack.pop()

    def _timed(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name
            if name == "model.EpisodeModel.embed_episodes":
                train = kwargs.get("train", args[2] if len(args) > 2 else False)
                label = name + (".train" if train else ".eval")
            with tracer.span(label):
                result = fn(*args, **kwargs)
            if count is not None:
                for key, value in count(args, result, tracer).items():
                    tracer.counts[f"{name}.{key}"] += value
            return result

        return wrapper

    def _counted(self, name, fn, count):
        tracer, counts, key = self, self.counts, name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            if count is not None:
                for k, value in count(args, tracer).items():
                    counts[f"{name}.{k}"] += value
            return fn(*args, **kwargs)

        return wrapper

    # ------------------------------------------------------------ install

    def install(self, timed, counted) -> None:
        """Wrap the `timed` entries (TIMED's shape) with spans and the
        `counted` entries (COUNTED's shape) with counters."""
        for module, attr, name, count in timed:
            self._patch(module, attr, lambda fn, n=name, c=count: self._timed(n, fn, c))
        for module, attr, name, count in counted:
            self._patch(module, attr, lambda fn, n=name, c=count: self._counted(n, fn, c))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, module: str, attr: str, make) -> None:
        mod = sys.modules[f"epistyle.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            self._patches.append((cls, meth, raw))
            setattr(cls, meth, new)
            return
        original = getattr(mod, attr)
        wrapper = make(original)
        for name, loaded in list(sys.modules.items()):
            if name != "epistyle" and not name.startswith("epistyle."):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._patches.append((loaded, key, value))
                    setattr(loaded, key, wrapper)

    # ------------------------------------------------------------- output

    def summary(self) -> dict[str, dict[str, float]]:
        """name -> {"s": inclusive, "self_s": exclusive, "calls": n}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += (end - start) - child[i]
        return dict(out)
