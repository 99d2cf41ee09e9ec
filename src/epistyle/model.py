"""Episode embedding network (text CNN + posting-time + subforum context,
mean or transformer pooling) and the per-task metric learning heads."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from datetime import datetime, timezone

import numpy as np

from . import numcore as nc
from .corpus import Episode, Post
from .numcore import Tensor
from .tokenization import Vocab, encode

UNK_SUBFORUM_ROW = 0
CONTEXT_INIT_RANGE = 0.1  # a random context table is uniform(-0.1, 0.1)
POOLINGS = ("mean", "transformer")
HEAD_KINDS = ("sm", "cf", "af", "ms")  # see MetricHead


@dataclass
class ModelConfig:
    vocab_size: int = 0  # filled in when the tokenizer is known
    d_token: int = 32
    d_text: int = 128
    d_time: int = 64
    d_context: int = 128
    filter_sizes: tuple[int, ...] = (2, 3, 4, 5)
    filters_per_size: int = 32
    dropout: float = 0.1
    pooling: str = "mean"  # one of POOLINGS
    tf_layers: int = 4
    tf_heads: int = 4
    tf_ff: int = 128
    tf_model_dim: int = 128
    tf_out_dim: int = 32
    tokenizer_kind: str = ""  # filled in with vocab_size
    max_tokens: int = 512

    def __post_init__(self):
        for name in ("d_token", "d_text", "d_time", "d_context", "filters_per_size",
                     "tf_model_dim", "tf_out_dim"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not self.filter_sizes or min(self.filter_sizes) < 1:
            raise ValueError(f"filter_sizes must be positive, got {self.filter_sizes}")
        if not 0 <= self.dropout < 1:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.pooling not in POOLINGS:
            raise ValueError(f"pooling: expected one of {', '.join(POOLINGS)}, got {self.pooling!r}")
        if self.max_tokens < self.max_filter:
            raise ValueError(f"max_tokens must be at least the widest filter, "
                             f"{self.max_filter}, got {self.max_tokens}")

    @property
    def conv_width(self) -> int:
        return len(self.filter_sizes) * self.filters_per_size

    @property
    def post_dim(self) -> int:
        return self.d_text + self.d_time + self.d_context

    @property
    def episode_dim(self) -> int:
        return self.post_dim if self.pooling == "mean" else self.tf_out_dim

    @property
    def max_filter(self) -> int:
        return max(self.filter_sizes)


def day_of_week(timestamp: float) -> int:
    """UTC day of week, Monday = 0. Only the calendar date is trusted."""
    return datetime.fromtimestamp(timestamp, tz=timezone.utc).weekday()


# ------------------------------------------------------------ batch building


class PostEncoder:
    """A post's token ids, cut to the model's cap, and its UTC day of week.
    `ids` encodes the posts it is given in one `encode` call; it keeps
    nothing between calls."""

    def __init__(self, vocab: Vocab, max_tokens: int):
        self.vocab = vocab
        self.max_tokens = max_tokens

    def ids(self, posts: list[Post]) -> list[tuple[np.ndarray, int]]:
        """(token ids, day of week) of each post."""
        seqs = encode(self.vocab, [p.body for p in posts], self.max_tokens)
        return list(zip(seqs, [day_of_week(p.timestamp) for p in posts]))


@dataclass
class EpisodeBatch:
    # (N,): the posts' ids back to back, each post padded with the pad id up
    # to the widest filter; post i holds rows starts[i] .. starts[i] + pad_lengths[i] - 1
    token_ids: np.ndarray
    starts: np.ndarray  # (B*L,)
    pad_lengths: np.ndarray  # (B*L,), at least the widest filter
    dow: np.ndarray  # (B*L,)
    ctx_rows: np.ndarray  # (B*L,), rows of the ctx_markets' context tables stacked
    ctx_markets: list[str]  # the batch's markets, sorted
    size: int
    episode_len: int


def make_episode_batch(episodes: list[Episode], encoder: PostEncoder, model: "EpisodeModel") -> EpisodeBatch:
    if not episodes:
        raise ValueError("empty episode batch")
    length = len(episodes[0])
    if any(len(e) != length for e in episodes):
        raise ValueError("all episodes in a batch must have the same length")
    width = model.cfg.max_filter
    flat_posts = [p for e in episodes for p in e.posts]
    seqs, days = zip(*encoder.ids(flat_posts))
    pad = np.full(width, encoder.vocab.pad_id, dtype=np.int64)
    ids = np.concatenate([part for s in seqs for part in (s, pad[len(s) :])])
    pad_lengths = np.maximum(np.fromiter(map(len, seqs), dtype=np.int64, count=len(seqs)), width)
    ctx_markets = sorted({p.market for p in flat_posts})
    # a market's rows follow the context tables of the markets sorted before it
    sizes = [len(model.subforum_maps[m]) + 1 for m in ctx_markets]
    offsets = dict(zip(ctx_markets, np.cumsum([0] + sizes).tolist()))
    ctx = np.array([offsets[p.market] + model.subforum_maps[p.market].get(p.subforum, UNK_SUBFORUM_ROW)
                    for p in flat_posts], dtype=np.int64)
    return EpisodeBatch(
        token_ids=ids, starts=np.cumsum(pad_lengths) - pad_lengths, pad_lengths=pad_lengths,
        dow=np.array(days, dtype=np.int64), ctx_rows=ctx, ctx_markets=ctx_markets,
        size=len(episodes), episode_len=length,
    )


# ------------------------------------------------------------------- model


class EpisodeModel:
    """f_theta: episodes -> embeddings. Parameters live in a flat named dict;
    the per-market context tables are the only market-specific pieces."""

    def __init__(self, cfg: ModelConfig, subforum_maps: dict[str, dict[str, int]], params: dict[str, Tensor]):
        self.cfg = cfg
        self.subforum_maps = subforum_maps
        self.params = params

    @classmethod
    def build(
        cls,
        cfg: ModelConfig,
        markets: dict[str, list[str]],
        seed: int = 0,
        context_init: dict[str, dict[str, np.ndarray]] | None = None,
    ) -> "EpisodeModel":
        if cfg.vocab_size <= 0:
            raise ValueError("cfg.vocab_size must be set before building the model")
        rng = np.random.default_rng(seed)
        p: dict[str, Tensor] = {}

        def param(name, arr):
            p[name] = Tensor(arr.astype(np.float32), requires_grad=True)

        def glorot(*shape):
            fan_in, fan_out = shape[0] if len(shape) == 2 else int(np.prod(shape[:-1])), shape[-1]
            std = math.sqrt(2.0 / (fan_in + fan_out))
            return rng.normal(0.0, std, size=shape)

        param("token_emb", rng.uniform(-0.1, 0.1, size=(cfg.vocab_size, cfg.d_token)))
        param("time_emb", rng.uniform(-0.1, 0.1, size=(7, cfg.d_time)))
        for w in cfg.filter_sizes:
            param(f"conv{w}.w", glorot(w, cfg.d_token, cfg.filters_per_size))
            param(f"conv{w}.b", np.zeros(cfg.filters_per_size))
        param("text_fc.w", glorot(cfg.conv_width, cfg.d_text))
        param("text_fc.b", np.zeros(cfg.d_text))

        subforum_maps: dict[str, dict[str, int]] = {}
        for market, subforums in sorted(markets.items()):
            ordered = sorted(subforums)
            subforum_maps[market] = {sf: i + 1 for i, sf in enumerate(ordered)}
            table = rng.uniform(-CONTEXT_INIT_RANGE, CONTEXT_INIT_RANGE,
                                size=(len(ordered) + 1, cfg.d_context))
            init = (context_init or {}).get(market)
            if init is not None:
                for sf, row in subforum_maps[market].items():
                    if sf in init:
                        vec = np.asarray(init[sf], dtype=np.float32)
                        if vec.shape != (cfg.d_context,):
                            raise ValueError(
                                f"context init for {market}/{sf}: dim {vec.shape} != ({cfg.d_context},)"
                            )
                        table[row] = vec
            param(f"context.{market}", table)

        if cfg.pooling == "transformer":
            d = cfg.tf_model_dim
            param("pool.in.w", glorot(cfg.post_dim, d))
            param("pool.in.b", np.zeros(d))
            for i in range(cfg.tf_layers):
                pre = f"pool.l{i}"
                param(f"{pre}.ln1.g", np.ones(d))
                param(f"{pre}.ln1.b", np.zeros(d))
                for nm in ("wq", "wk", "wv", "wo"):
                    param(f"{pre}.attn.{nm}", glorot(d, d))
                for nm in ("bq", "bv", "bo"):
                    param(f"{pre}.attn.{nm}", np.zeros(d))
                param(f"{pre}.ln2.g", np.ones(d))
                param(f"{pre}.ln2.b", np.zeros(d))
                param(f"{pre}.ff.w1", glorot(d, cfg.tf_ff))
                param(f"{pre}.ff.b1", np.zeros(cfg.tf_ff))
                param(f"{pre}.ff.w2", glorot(cfg.tf_ff, d))
                param(f"{pre}.ff.b2", np.zeros(d))
            param("pool.ln.g", np.ones(d))
            param("pool.ln.b", np.zeros(d))
            param("pool.out.w", glorot(d, cfg.tf_out_dim))
            param("pool.out.b", np.zeros(cfg.tf_out_dim))
        return cls(cfg, subforum_maps, p)

    def frozen(self) -> "EpisodeModel":
        """The model on gradient-free views of its parameters: its forward
        builds no autodiff graph and leaves no gradient."""
        return EpisodeModel(self.cfg, self.subforum_maps,
                            {name: Tensor(p.data) for name, p in self.params.items()})

    # ------------------------------------------------------------- forward

    def _text_from_token_embeddings(self, emb: Tensor, batch: EpisodeBatch,
                                    train: bool, rng) -> Tensor:
        cfg = self.cfg
        feats = []
        for w in cfg.filter_sizes:
            conv = nc.sliding_window_conv(emb, self.params[f"conv{w}.w"], self.params[f"conv{w}.b"])
            # a post's windows start at its own rows, so none reaches the next
            # post; ReLU after the max is exact: max(relu(x)) = relu(max(x)),
            # and the gradient reaches the same first argmax
            feats.append(nc.relu(nc.max_over_time(conv, batch.starts, batch.pad_lengths - w + 1)))
        x = nc.concat(feats, axis=-1)
        x = nc.dropout(x, cfg.dropout, train, rng)
        return nc.linear(x, self.params["text_fc.w"], self.params["text_fc.b"])

    def _transformer(self, posts: Tensor, train: bool, rng) -> Tensor:
        cfg = self.cfg
        p = self.params
        x = nc.linear(posts, p["pool.in.w"], p["pool.in.b"])
        for i in range(cfg.tf_layers):
            pre = f"pool.l{i}"
            h = nc.layer_norm(x, p[f"{pre}.ln1.g"], p[f"{pre}.ln1.b"])
            a = nc.multihead_attention(
                h, p[f"{pre}.attn.wq"], p[f"{pre}.attn.wk"], p[f"{pre}.attn.wv"],
                p[f"{pre}.attn.wo"], p[f"{pre}.attn.bq"], p[f"{pre}.attn.bv"],
                p[f"{pre}.attn.bo"], cfg.tf_heads,
            )
            a = nc.dropout(a, cfg.dropout, train, rng)
            x = nc.add(x, a)
            h2 = nc.layer_norm(x, p[f"{pre}.ln2.g"], p[f"{pre}.ln2.b"])
            f = nc.relu(nc.linear(h2, p[f"{pre}.ff.w1"], p[f"{pre}.ff.b1"]))
            f = nc.dropout(f, cfg.dropout, train, rng)
            f = nc.linear(f, p[f"{pre}.ff.w2"], p[f"{pre}.ff.b2"])
            x = nc.add(x, f)
        x = nc.layer_norm(x, p["pool.ln.g"], p["pool.ln.b"])
        x = nc.mean(x, axis=1)
        return nc.linear(x, p["pool.out.w"], p["pool.out.b"])

    def embed_episodes(self, batch: EpisodeBatch, train: bool = False,
                       rng: np.random.Generator | None = None,
                       token_embeddings: Tensor | None = None) -> Tensor:
        """Embed a batch of episodes; (B, E). Pass `token_embeddings`, one row
        per entry of `batch.token_ids`, to bypass the token lookup
        (attribution path integrals need this)."""
        if token_embeddings is None:
            token_embeddings = nc.embedding_lookup(self.params["token_emb"], batch.token_ids)
        text = self._text_from_token_embeddings(token_embeddings, batch, train, rng)
        time = nc.embedding_lookup(self.params["time_emb"], batch.dow)
        # only the batch's markets are stacked, so no other table gets a gradient
        tables = [self.params[f"context.{m}"] for m in batch.ctx_markets]
        ctx = nc.embedding_lookup(nc.concat(tables, axis=0), batch.ctx_rows)
        post = nc.concat([text, time, ctx], axis=-1)
        post = nc.reshape(post, (batch.size, batch.episode_len, self.cfg.post_dim))
        if self.cfg.pooling == "mean":
            return nc.mean(post, axis=1)
        return self._transformer(post, train, rng)


def rescale_context_init(init: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Scale a set of context-init vectors so their global standard deviation
    is a random context table's, CONTEXT_INIT_RANGE / sqrt(3).

    Skip-gram vectors come out with much larger norms than a fresh embedding
    table; transplanted unscaled they dominate the concatenated post vector.
    Relative geometry is preserved.
    """
    mat = np.stack([init[k] for k in sorted(init)])
    std = float(mat.std())
    if std == 0.0:
        return {k: v.copy() for k, v in init.items()}
    # a NumPy float64 factor makes the float32 vectors scale in float64 (NEP 50)
    factor = CONTEXT_INIT_RANGE / np.sqrt(3.0) / std
    return {k: (v * factor).astype(np.float32) for k, v in init.items()}


# ------------------------------------------------------------- metric heads


@dataclass
class MetricHead:
    """Task-specific layer g_phi shaping the embedding geometry.

    kinds: sm (plain softmax on unnormalized logits), cf (additive cosine
    margin), af (additive angular margin), ms (multi-similarity over the
    batch; carries no weight matrix).
    """

    kind: str
    name: str
    n_labels: int
    dim: int
    weight: Tensor | None = None
    cf_margin: float = 0.35
    af_margin_deg: float = 28.6
    logit_scale: float = 64.0
    ms_alpha: float = 2.0
    ms_beta: float = 50.0
    ms_lambda: float = 0.5
    ms_mining_eps: float = 0.1

    @classmethod
    def build(cls, kind: str, name: str, n_labels: int, dim: int, seed: int = 0, **hyper) -> "MetricHead":
        if kind not in HEAD_KINDS:
            raise ValueError(f"unknown metric head kind {kind!r}")
        head = cls(kind=kind, name=name, n_labels=n_labels, dim=dim, **hyper)
        if kind != "ms":
            rng = np.random.default_rng(seed)
            std = math.sqrt(2.0 / (n_labels + dim))
            head.weight = Tensor(rng.normal(0.0, std, size=(n_labels, dim)).astype(np.float32),
                                 requires_grad=True)
        return head

    def frozen(self) -> "MetricHead":
        """The head on a gradient-free view of its weight."""
        return replace(self, weight=None if self.weight is None else Tensor(self.weight.data))

    def named_params(self) -> dict[str, Tensor]:
        return {} if self.weight is None else {f"head.{self.name}": self.weight}

    def _check_labels(self, labels: np.ndarray):
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_labels):
            raise ValueError(f"label out of range [0, {self.n_labels})")

    def _cosine_logits(self, embeddings: Tensor) -> Tensor:
        norms = np.sqrt((embeddings.data.astype(np.float64) ** 2).sum(axis=-1))
        if np.any(norms < 1e-20):
            raise ValueError("zero-norm embedding in margin loss")
        xn = nc.l2_normalize(embeddings, axis=-1)
        wn = nc.l2_normalize(self.weight, axis=-1)
        return nc.matmul(xn, nc.transpose(wn, (1, 0)))

    def loss(self, embeddings: Tensor, labels) -> Tensor:
        labels = np.asarray(labels, dtype=np.int64)
        if self.kind == "sm":
            self._check_labels(labels)
            logits = nc.matmul(embeddings, nc.transpose(self.weight, (1, 0)))
            return nc.cross_entropy(logits, labels)
        if self.kind == "cf":
            self._check_labels(labels)
            cos = self._cosine_logits(embeddings)
            onehot = np.zeros((len(labels), self.n_labels), dtype=np.float32)
            onehot[np.arange(len(labels)), labels] = 1.0
            adjusted = nc.scale(nc.sub(cos, Tensor(onehot * self.cf_margin)), self.logit_scale)
            return nc.cross_entropy(adjusted, labels)
        if self.kind == "af":
            self._check_labels(labels)
            return self._arcface_loss(embeddings, labels)
        return self.multisimilarity_loss(embeddings, labels)

    def _arcface_loss(self, embeddings: Tensor, labels: np.ndarray) -> Tensor:
        m = math.radians(self.af_margin_deg)
        cos_m, sin_m = math.cos(m), math.sin(m)
        cos = self._cosine_logits(embeddings)
        n = len(labels)
        onehot = np.zeros((n, self.n_labels), dtype=np.float32)
        onehot[np.arange(n), labels] = 1.0
        ty = nc.sum_(nc.mul(cos, Tensor(onehot)), axis=1, keepdims=True)  # (B, 1)
        sin_y = nc.sqrt(nc.add(nc.sub(Tensor(np.ones((n, 1), dtype=np.float32)),
                                      nc.mul(ty, ty)), Tensor(np.full((n, 1), 1e-12, np.float32))))
        shifted = nc.sub(nc.scale(ty, cos_m), nc.scale(sin_y, sin_m))  # cos(theta + m)
        # where theta + m would exceed pi, fall back to the linear margin
        ok = (ty.data >= -cos_m).astype(np.float32)
        fallback = nc.sub(ty, Tensor(np.full((n, 1), m * sin_m, np.float32)))
        target = nc.add(nc.mul(shifted, Tensor(ok)), nc.mul(fallback, Tensor(1.0 - ok)))
        adjusted = nc.add(cos, nc.mul(nc.sub(target, ty), Tensor(onehot)))
        return nc.cross_entropy(nc.scale(adjusted, self.logit_scale), labels)

    def multisimilarity_loss(self, embeddings: Tensor, labels) -> Tensor:
        labels = np.asarray(labels, dtype=np.int64)
        n = len(labels)
        if n < 2:
            raise ValueError("multi-similarity loss needs a batch of >= 2")
        xn = nc.l2_normalize(embeddings, axis=-1)
        sims = nc.matmul(xn, nc.transpose(xn, (1, 0)))  # (B, B)
        s = sims.data
        same = labels[:, None] == labels[None, :]
        eye = np.eye(n, dtype=bool)
        pos = same & ~eye
        neg = ~same

        # an anchor without a negative has max_neg -inf and one without a
        # positive min_pos +inf, so it mines nothing; s and the thresholds
        # stay float32 (NEP 50), the bits a per-anchor loop compares
        eps = self.ms_mining_eps
        max_neg = np.where(neg, s, -np.inf).max(axis=1, keepdims=True)
        min_pos = np.where(pos, s, np.inf).min(axis=1, keepdims=True)
        mp = pos & (s < max_neg + eps)
        mn = neg & (s > min_pos - eps)
        contributes = mp.any(axis=1) | mn.any(axis=1)
        mined_pos, mined_neg = mp.astype(np.float32), mn.astype(np.float32)
        if not contributes.any():
            return Tensor(np.float32(0.0))

        lam = self.ms_lambda
        pos_e = nc.mul(nc.exp(nc.scale(nc.sub(sims, lam), -self.ms_alpha)), Tensor(mined_pos))
        neg_e = nc.mul(nc.exp(nc.scale(nc.sub(sims, lam), self.ms_beta)), Tensor(mined_neg))
        pos_term = nc.scale(nc.log(nc.add(nc.sum_(pos_e, axis=1), 1.0)), 1.0 / self.ms_alpha)
        neg_term = nc.scale(nc.log(nc.add(nc.sum_(neg_e, axis=1), 1.0)), 1.0 / self.ms_beta)
        per_anchor = nc.add(pos_term, neg_term)
        keep = contributes.astype(np.float32)
        total = nc.sum_(nc.mul(per_anchor, Tensor(keep)))
        return nc.scale(total, 1.0 / float(contributes.sum()))
