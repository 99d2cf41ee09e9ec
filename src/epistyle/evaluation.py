"""Retrieval metrics over episode embeddings, paired signed-rank comparison,
sybil candidate search, and integrated-gradients token attribution."""

from __future__ import annotations

import json
import logging
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np

from . import numcore as nc
from .atomic import atomic_write
from .corpus import Episode
from .model import EpisodeModel, PostEncoder, make_episode_batch
from .numcore import Tensor

log = logging.getLogger(__name__)


# ------------------------------------------------------------------- index


class RetrievalIndex:
    """Immutable store of episode embeddings with author labels.

    Cosine ranking uses unit-normalized float64 copies; ties break by the
    stable insertion index. Raw embeddings are kept for export and author
    centroids.
    """

    def __init__(self, episode_ids, markets, authors, embeddings, seen=None):
        self.episode_ids = list(episode_ids)
        self.markets = np.asarray(markets, dtype=object)
        self.authors = np.asarray(authors, dtype=object)
        self.raw = np.asarray(embeddings, dtype=np.float64)
        if self.raw.ndim != 2 or len(self.raw) != len(self.episode_ids):
            raise ValueError("embeddings must be (n_episodes, dim)")
        if not np.isfinite(self.raw).all():
            raise ValueError("embeddings hold a non-finite value")
        norms = np.linalg.norm(self.raw, axis=1)
        self.unit = self.raw / np.maximum(norms, 1e-12)[:, None]
        self.seen = (
            np.ones(len(self.raw), dtype=bool) if seen is None else np.asarray(seen, dtype=bool)
        )
        keys = {}
        self.author_ids = np.array(
            [keys.setdefault((m, a), len(keys)) for m, a in zip(self.markets, self.authors)],
            dtype=np.int64,
        )
        self.author_sizes = np.bincount(self.author_ids)[self.author_ids]  # its author's episodes

    def __len__(self) -> int:
        return len(self.episode_ids)

    @classmethod
    def from_episodes(cls, model: EpisodeModel, encoder: PostEncoder, episodes: list[Episode],
                      seen_authors: set | None = None, batch_size: int = 256) -> "RetrievalIndex":
        if len(episodes) < 2:
            raise ValueError("an index needs at least 2 episodes")
        chunks = []
        for i in range(0, len(episodes), batch_size):
            batch = make_episode_batch(episodes[i : i + batch_size], encoder, model)
            chunks.append(model.embed_episodes(batch, train=False).data)
        emb = np.vstack(chunks)
        seen = None
        if seen_authors is not None:
            seen = np.array([(e.market, e.author) in seen_authors for e in episodes])
        ids = [f"{e.market}/{e.author}/{e.posts[0].post_id}" for e in episodes]
        return cls(ids, [e.market for e in episodes], [e.author for e in episodes], emb, seen)

    @classmethod
    def concat(cls, parts: list["RetrievalIndex"]) -> "RetrievalIndex":
        """One index holding `parts` back to back; seen flags are not kept."""
        return cls([eid for part in parts for eid in part.episode_ids],
                   np.concatenate([part.markets for part in parts]),
                   np.concatenate([part.authors for part in parts]),
                   np.vstack([part.raw for part in parts]))

    # ----------------------------------------------------------- rankings

    def eligible_queries(self) -> np.ndarray:
        """Indices whose author has at least one other episode in the index."""
        return np.flatnonzero(self.author_sizes >= 2)

    def first_same_author_rank(self, i: int) -> int:
        """1-based rank of the first same-author episode among all others,
        ordered by cosine descending with stable-id tie-breaking.

        No sort: the first same-author episode b is the first argmax of the
        cosine over same-author others, and the episodes ranked before it
        are those with a higher cosine or an equal one at a lower index.
        """
        sims = self.unit @ self.unit[i]
        sims[i] = -np.inf  # the query is not its own candidate
        same = np.flatnonzero(self.author_ids == self.author_ids[i])
        same = same[same != i]
        if len(same) == 0:
            raise ValueError(f"query {i} has no same-author episode")
        b = same[np.argmax(sims[same])]
        return 1 + int(np.count_nonzero(sims > sims[b]) + np.count_nonzero(sims[:b] == sims[b]))


def sample_queries(index: RetrievalIndex, kappa: int, seed: int = 0) -> dict[str, np.ndarray]:
    """The eval queries by group, each in index order: "all" from every
    eligible query, then "seen" and "novel" from those of seen and of novel
    authors, where an empty pool is left out. A group takes `kappa` of its
    pool at random, or the whole pool when kappa >= its size. "all" draws
    from one default_rng(seed), seen and then novel from a second one."""
    eligible = index.eligible_queries()
    if len(eligible) == 0:
        raise ValueError("no eligible queries: every author has a single episode")
    excluded = len(index) - len(eligible)
    if excluded:
        log.info("excluding %d single-episode-author queries", excluded)
    if kappa > len(eligible):
        log.warning("kappa=%d > %d eligible queries; using all", kappa, len(eligible))
    group_rng = np.random.default_rng(seed)
    pools = {"all": (eligible, np.random.default_rng(seed)),
             "seen": (eligible[index.seen[eligible]], group_rng),
             "novel": (eligible[~index.seen[eligible]], group_rng)}
    groups = {}
    for group, (pool, rng) in pools.items():
        if len(pool) == 0:
            log.warning("%s group is empty; report omitted", group)
        elif kappa >= len(pool):
            groups[group] = pool
        else:
            groups[group] = pool[np.sort(rng.choice(len(pool), size=kappa, replace=False))]
    return groups


def random_baseline_mrr(index: RetrievalIndex, queries) -> float:
    """Exact expected MRR of a uniformly random ranking.

    For a query with m same-author episodes among n-1 candidates, the first
    hit's rank R has P(R=r) = C(n-1-r, m-1)/C(n-1, m); we sum 1/r * P(R=r),
    once per distinct m.
    """
    n = len(index)
    ms = (index.author_sizes[queries] - 1).tolist()
    expected = {}
    for m in set(ms):
        total = math.comb(n - 1, m)
        expected[m] = sum(
            (1.0 / r) * math.comb(n - 1 - r, m - 1) / total
            for r in range(1, n - m + 1)
        )
    return float(np.mean([expected[m] for m in ms]))


def metrics_report(ranks, kappa: int, ks, seed: int = 0, group: str = "all") -> dict:
    """A group's metrics.json entry: MRR and recall@k of its first
    same-author ranks, in its query order."""
    return {"group": group, "mrr": float(np.mean([1.0 / r for r in ranks])),
            "recall": {str(k): float(np.mean([1.0 if r <= k else 0.0 for r in ranks]))
                       for k in sorted(ks)},
            "kappa": kappa, "n_queries": len(ranks), "seed": seed}


def seen_novel_report(ranks: dict[int, int], groups: dict[str, np.ndarray], kappa: int, ks,
                      seed: int = 0) -> dict[str, dict]:
    """Metrics over the seen-author and novel-author groups that `groups`
    holds, from the rank table `ranks` (query -> first same-author rank)."""
    return {group: metrics_report([ranks[i] for i in groups[group].tolist()], kappa, ks, seed,
                                  group)
            for group in ("seen", "novel") if group in groups}


def market_metrics(index: RetrievalIndex, kappa: int, ks, seed: int = 0) -> dict:
    """One market's metrics.json block: "all" with its random-ranking MRR,
    then "seen" and "novel". Each distinct query of the groups is ranked once."""
    groups = sample_queries(index, kappa, seed)
    distinct = np.unique(np.concatenate(list(groups.values()))).tolist()
    ranks = {i: index.first_same_author_rank(i) for i in distinct}
    block = {"all": metrics_report([ranks[i] for i in groups["all"].tolist()], kappa, ks, seed)}
    block["all"]["random_baseline_mrr"] = random_baseline_mrr(index, groups["all"])
    block.update(seen_novel_report(ranks, groups, kappa, ks, seed))
    return block


# ------------------------------------------------------- paired signed-rank


def _signed_ranks(diffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Average ranks of |d| (ties averaged) and the tie-group sizes."""
    absd = np.abs(diffs)
    order = np.argsort(absd, kind="stable")
    ranks = np.empty(len(absd))
    ties = []
    i = 0
    while i < len(absd):
        j = i
        while j < len(absd) and absd[order[j]] == absd[order[i]]:
            j += 1
        ranks[order[i:j]] = (i + j + 1) / 2.0  # average of 1-based positions
        ties.append(j - i)
        i = j
    return ranks, np.array(ties)


_EXACT_MAX_N = 12


def wmw_paired(sample_a, sample_b) -> float:
    """Two-sided paired signed-rank test p-value.

    Zero differences are dropped. With n nonzero differences <= 12 the null
    is computed exactly over all 2^n sign assignments (via the generating
    function of achievable rank sums); larger n uses the normal
    approximation with continuity and tie corrections.
    """
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("samples must be 1-d and equal length")
    if len(a) < 5:
        raise ValueError(f"need at least 5 pairs, got {len(a)}")
    diffs = a - b
    diffs = diffs[diffs != 0.0]
    n = len(diffs)
    if n == 0:
        return 1.0
    ranks, ties = _signed_ranks(diffs)
    w_pos = float(ranks[diffs > 0].sum())

    if n <= _EXACT_MAX_N:
        scaled = np.rint(ranks * 2).astype(np.int64)  # tie-averages become integers
        total = int(scaled.sum())
        counts = np.zeros(total + 1, dtype=np.float64)
        counts[0] = 1.0
        for r in scaled:
            shifted = np.zeros_like(counts)
            shifted[r:] = counts[: total + 1 - r]
            counts = counts + shifted
        w_scaled = int(round(w_pos * 2))
        n_patterns = 2.0**n
        p_le = counts[: w_scaled + 1].sum() / n_patterns
        p_ge = counts[w_scaled:].sum() / n_patterns
        return min(1.0, 2.0 * min(p_le, p_ge))

    mu = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0 - float(((ties**3 - ties).sum())) / 48.0
    if var <= 0:
        return 1.0
    delta = w_pos - mu
    z = (delta - 0.5 * np.sign(delta)) / math.sqrt(var)
    return min(1.0, 2.0 * (1.0 - NormalDist().cdf(abs(z))))


# ------------------------------------------------------------ sybil search


def topk_sybil(index: RetrievalIndex, market: str, author: str, k: int):
    """Most frequent foreign user among the k nearest cross-market episodes of
    each of the author's episodes; ties prefer higher mean similarity.

    Returns (candidate_author, candidate_market, support_count).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    own = np.flatnonzero((index.markets == market) & (index.authors == author))
    if len(own) == 0:
        raise ValueError(f"user {author!r} has no episodes in market {market!r}")
    foreign = np.flatnonzero(index.markets != market)
    if len(foreign) == 0:
        raise ValueError("no cross-market episodes in the index")
    support: dict[tuple[str, str], list[float]] = {}
    for i in own:
        sims = index.unit[foreign] @ index.unit[i]
        order = np.lexsort((foreign, -sims))[: min(k, len(foreign))]
        for pos in order:
            key = (str(index.markets[foreign[pos]]), str(index.authors[foreign[pos]]))
            support.setdefault(key, []).append(float(sims[pos]))
    best = max(
        support.items(),
        key=lambda kv: (len(kv[1]), float(np.mean(kv[1])), kv[0]),
    )
    (cand_market, cand_author), sims_list = best
    return cand_author, cand_market, len(sims_list)


# ------------------------------------------------------ integrated gradients


def gauss_legendre_unit(steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1]; weights sum to 1.

    The rule is composite: `steps` nodes spread over equal panels of ~5
    nodes each. Relu kinks and max-pool switches leave the path derivative
    only piecewise smooth, where a composite rule converges far better
    than one high-order panel.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    panels = max(1, steps // 5)
    base, extra = divmod(steps, panels)
    alphas, weights = [], []
    for p in range(panels):
        n = base + (1 if p < extra else 0)
        nodes, w = np.polynomial.legendre.leggauss(n)
        lo, hi = p / panels, (p + 1) / panels
        alphas.extend(lo + (nodes + 1.0) / 2.0 * (hi - lo))
        weights.extend(w / 2.0 * (hi - lo))
    return np.asarray(alphas), np.asarray(weights)


def integrated_gradients_fn(fn, x: np.ndarray, baseline: np.ndarray, steps: int):
    """Path-integral attribution of a scalar function from baseline to x.

    fn maps a Tensor of x.shape to a scalar Tensor. Returns (attributions,
    completeness gap) where the gap is |sum(attr) - (fn(x) - fn(baseline))|.
    """
    if x.shape != baseline.shape:
        raise ValueError(f"baseline shape {baseline.shape} != input shape {x.shape}")
    alphas, weights = gauss_legendre_unit(steps)
    diff = x.astype(np.float64) - baseline.astype(np.float64)
    accum = np.zeros_like(diff)
    for alpha, weight in zip(alphas, weights):
        point = Tensor(baseline + alpha * diff, requires_grad=True)
        out = fn(point)
        if not np.isfinite(out.data):
            raise FloatingPointError("non-finite output along the integration path")
        out.backward()
        if not np.all(np.isfinite(point.grad)):
            raise FloatingPointError("non-finite gradient along the integration path")
        accum += weight * point.grad.astype(np.float64)
    attributions = diff * accum

    def value(arr):
        return float(fn(Tensor(arr)).data)

    delta = value(x) - value(baseline)
    total = float(attributions.sum())
    completeness = {"sum_attributions": total, "delta": delta, "gap": abs(total - delta)}
    return attributions, completeness


def cosine_target(centroid: np.ndarray):
    """Scalar target: cosine similarity of the episode embedding to a fixed
    centroid vector."""
    unit = centroid / max(np.linalg.norm(centroid), 1e-12)

    def fn(episode_emb: Tensor) -> Tensor:
        flat = nc.reshape(episode_emb, (1, episode_emb.shape[-1]))
        return nc.sum_(nc.mul(nc.l2_normalize(flat, axis=-1), Tensor(unit[None, :].astype(np.float32))))

    return fn


def author_centroid(index: RetrievalIndex, market: str, author: str) -> np.ndarray:
    mask = (index.markets == market) & (index.authors == author)
    if not mask.any():
        raise ValueError(f"no episodes for {market}/{author} in index")
    return index.raw[mask].mean(axis=0)


def integrated_gradients(model: EpisodeModel, encoder: PostEncoder, episode: Episode,
                         target_fn, steps: int):
    """Per-token attribution scores for one episode.

    The baseline replaces every token embedding with the [PAD] embedding;
    time and context inputs are held at their actual values. Returns
    (records, completeness) with one {post_id, token, score} record per
    real token. The path integral runs on gradient-free views of the
    parameters, so it leaves no gradient on `model`.
    """
    model = EpisodeModel(model.cfg, model.subforum_maps,
                         {name: Tensor(p.data) for name, p in model.params.items()})
    batch = make_episode_batch([episode], encoder, model)
    table = model.params["token_emb"].data
    x = table[batch.token_ids]  # (L, n_max, d_token)
    baseline = np.broadcast_to(table[encoder.vocab.pad_id], x.shape).copy()

    def fn(emb: Tensor) -> Tensor:
        out = model.embed_episodes(batch, train=False, token_embeddings=emb)
        return target_fn(out)

    attr, completeness = integrated_gradients_fn(fn, x, baseline, steps=steps)
    scores = attr.sum(axis=-1)  # (L, n_max)
    records = []
    for li, post in enumerate(episode.posts):
        n_tokens = len(encoder.ids(post))
        for ti in range(n_tokens):
            token_id = int(batch.token_ids[li, ti])
            records.append(
                {
                    "post_id": post.post_id,
                    "token": token_display(encoder.vocab, token_id),
                    "score": float(scores[li, ti]),
                }
            )
    return records, completeness


def token_display(vocab, token_id: int) -> str:
    token = vocab.tokens[token_id]
    if isinstance(token, bytes):
        return token.decode("utf-8", errors="replace")
    return token


# ------------------------------------------------------------------ export


def embeddings_files(directory, market) -> tuple[Path, Path]:
    """A market's episode embeddings in `directory`: `.npy` matrix, `.json` labels."""
    npy = Path(directory) / f"embeddings-{market}.npy"
    return npy, npy.with_suffix(".json")


def export_embeddings_tsv(path, index: RetrievalIndex) -> None:
    """Write the index's float64 matrix to `path` (`.npy`) and its rows'
    [episode_id, market, author] to the `.json` beside it; JSON escapes tabs,
    line breaks and NULs. The name is older than the format: the benchmark's
    tracer (perfbench/tracer.py) wraps it by name, so it changes with that."""
    with atomic_write(path, "wb") as fh:
        np.save(fh, index.raw, allow_pickle=False)
    with atomic_write(Path(path).with_suffix(".json"), encoding="utf-8") as fh:
        json.dump([list(r) for r in zip(index.episode_ids, index.markets, index.authors)], fh)


def read_embeddings_index(path) -> RetrievalIndex:
    """Read `export_embeddings_tsv` output back, bit-exactly and without seen
    flags. A file that is not a float `.npy` matrix, or labels that are not
    one [episode_id, market, author] row per matrix row, raise ValueError
    naming `path`."""
    labels = Path(path).with_suffix(".json")
    try:
        raw = np.load(path, allow_pickle=False)
    except (ValueError, EOFError):
        raw = None  # numpy's message for a pickle suggests allow_pickle=True
    if not isinstance(raw, np.ndarray) or raw.dtype.kind != "f":
        raise ValueError(f"{path}: not a float .npy matrix")
    try:
        rows = json.loads(labels.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if (np.ndim(raw) != 2 or not isinstance(rows, list) or len(rows) != len(raw)
            or any(not isinstance(r, list) or len(r) != 3 for r in rows)):
        raise ValueError(f"{path}: not a 2-D matrix with one [episode_id, market, author] "
                         f"row per matrix row in {labels.name}")
    return RetrievalIndex(*([r[k] for r in rows] for k in range(3)), raw)
