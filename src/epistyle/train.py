"""Single-task and multitask training: task sampling, window-sampled batches,
validation with plateau decay, and min-val-loss checkpoint selection.

Parameter partition: every step updates only the parameters the sampled
task's loss actually touched (shared trunk + that task's context tables +
its head), each with its own Adam state, so a step for one market never
moves another market's context rows.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, field

import numpy as np

from .corpus import Episode, MigrationLabel, Post, build_cross_dataset
from .model import EpisodeModel, MetricHead, PostEncoder, make_episode_batch
from .numcore import AdamState, PlateauScheduler, Tensor, adam_step, clip_global_norm

log = logging.getLogger(__name__)


@dataclass
class TrainConfig:
    batch_size: int = 256
    epochs: int = 30
    lr: float = 1e-3
    plateau_factor: float = 0.5
    plateau_patience: int = 5
    val_fraction: float = 0.10
    episode_len: int = 5
    p_cross: float = 0.01
    seed: int = 0
    grad_clip: float = 5.0
    min_episodes: int = 2
    loss: str = "sm"  # sm | cf | af | ms

    def __post_init__(self):
        if not 1 <= self.episode_len <= 9:
            raise ValueError(f"episode_len must be in 1..9, got {self.episode_len}")
        if not 0.0 <= self.p_cross <= 1.0:
            raise ValueError(f"p_cross must be in [0, 1], got {self.p_cross}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in (0, 1), got {self.val_fraction}")
        if self.loss not in ("sm", "cf", "af", "ms"):
            raise ValueError(f"unknown loss {self.loss!r}")


@dataclass
class _LabelPool:
    """Sampling state for one label: post segments to draw windows from."""

    label: int
    segments: list[list[Post]]
    weight: int  # fixed-window episode count, for proportional sampling


@dataclass
class Task:
    name: str
    kind: str  # "market" | "cross"
    head: MetricHead
    pools: list[_LabelPool]
    val_episodes: list[Episode]
    val_labels: np.ndarray
    episode_len: int
    train_episode_total: int = 0

    def __post_init__(self):
        self.train_episode_total = sum(p.weight for p in self.pools)
        self._cum = np.cumsum([p.weight for p in self.pools]).tolist()

    def sample_episode(self, rng: random.Random) -> tuple[Episode, int]:
        r = rng.random() * self._cum[-1]
        lo, hi = 0, len(self._cum) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if self._cum[mid] <= r:
                lo = mid + 1
            else:
                hi = mid
        pool = self.pools[lo]
        sizes = [len(s) - self.episode_len + 1 for s in pool.segments]
        total = sum(max(s, 0) for s in sizes)
        pick = rng.randrange(total)
        for seg, size in zip(pool.segments, sizes):
            if size > 0:
                if pick < size:
                    posts = tuple(seg[pick : pick + self.episode_len])
                    return Episode(market=posts[0].market, author=posts[0].author, posts=posts), pool.label
                pick -= size
        raise AssertionError("window sampling fell off the end")


@dataclass
class TaskRegistry:
    model: EpisodeModel
    encoder: PostEncoder
    market_tasks: list[Task]
    cross_task: Task | None = None

    def all_tasks(self) -> list[Task]:
        return self.market_tasks + ([self.cross_task] if self.cross_task else [])

    def all_params(self) -> dict[str, Tensor]:
        params = dict(self.model.params)
        for task in self.all_tasks():
            params.update(task.head.named_params())
        return params

    def shared_param_names(self) -> set[str]:
        return {n for n in self.model.params if not n.startswith("context.")}

    def allowed_params(self, task: Task) -> set[str]:
        allowed = set(self.shared_param_names())
        if task.kind == "market":
            allowed.add(f"context.{task.name}")
        else:
            allowed.update(n for n in self.model.params if n.startswith("context."))
        allowed.update(task.head.named_params())
        return allowed


# ----------------------------------------------------------- task building


def _author_groups(posts: list[Post]) -> dict[str, list[Post]]:
    groups: dict[str, list[Post]] = {}
    for p in posts:
        groups.setdefault(p.author, []).append(p)
    for g in groups.values():
        g.sort(key=lambda p: (p.timestamp, p.post_id))
    return groups


def _split_author(group: list[Post], length: int, val_fraction: float,
                  rng: random.Random) -> tuple[list[list[Post]], list[Episode]]:
    """Hold out ~val_fraction of an author's fixed windows; the remaining
    posts form contiguous segments for random window sampling."""
    n_windows = len(group) // length
    val_n = max(1, int(val_fraction * n_windows)) if n_windows >= 2 else 0
    val_idx = sorted(rng.sample(range(n_windows), val_n)) if val_n else []
    val_eps = []
    blocked = set()
    for wi in val_idx:
        window = group[wi * length : (wi + 1) * length]
        val_eps.append(Episode(market=window[0].market, author=window[0].author, posts=tuple(window)))
        blocked.update(range(wi * length, (wi + 1) * length))
    segments: list[list[Post]] = []
    current: list[Post] = []
    for i, p in enumerate(group):
        if i in blocked:
            if current:
                segments.append(current)
                current = []
        else:
            current.append(p)
    if current:
        segments.append(current)
    segments = [s for s in segments if len(s) >= length]
    return segments, val_eps


def prepare_market_task(market: str, train_posts: list[Post], cfg: TrainConfig,
                        episode_dim: int, rng: random.Random, head_seed: int) -> Task:
    length = cfg.episode_len
    pools: list[_LabelPool] = []
    val_eps: list[Episode] = []
    val_labels: list[int] = []
    label = 0
    groups = _author_groups(train_posts)
    for author in sorted(groups):
        group = groups[author]
        if len(group) < cfg.min_episodes * length:
            continue
        segments, author_val = _split_author(group, length, cfg.val_fraction, rng)
        weight = sum(len(s) // length for s in segments)
        if weight == 0:
            continue
        pools.append(_LabelPool(label=label, segments=segments, weight=weight))
        val_eps.extend(author_val)
        val_labels.extend([label] * len(author_val))
        label += 1
    if not pools:
        raise ValueError(f"market {market!r}: no author has enough posts to train on")
    head = MetricHead.build(cfg.loss, market, n_labels=label, dim=episode_dim, seed=head_seed)
    return Task(name=market, kind="market", head=head, pools=pools,
                val_episodes=val_eps, val_labels=np.array(val_labels, dtype=np.int64),
                episode_len=length)


def prepare_cross_task(labels: list[MigrationLabel], train_posts_by_market: dict[str, list[Post]],
                       cfg: TrainConfig, episode_dim: int, rng: random.Random,
                       head_seed: int) -> Task | None:
    """Cluster labeled identities and pool their episodes as one task."""
    length = cfg.episode_len
    episodes = []
    for market, posts in sorted(train_posts_by_market.items()):
        groups = _author_groups(posts)
        for author in sorted(groups):
            group = groups[author]
            for wi in range(len(group) // length):
                window = group[wi * length : (wi + 1) * length]
                episodes.append(Episode(market=market, author=author, posts=tuple(window)))
    ds = build_cross_dataset(labels, episodes)
    if not ds.classes:
        return None
    pools = []
    val_eps: list[Episode] = []
    val_labels: list[int] = []
    for class_id, members in enumerate(ds.classes):
        segments: list[list[Post]] = []
        class_val: list[Episode] = []
        for market, author in members:
            group = _author_groups(train_posts_by_market[market])[author]
            segs, author_val = _split_author(group, length, cfg.val_fraction, rng)
            segments.extend(segs)
            class_val.extend(author_val)
        weight = sum(len(s) // length for s in segments)
        if weight == 0:
            continue
        pools.append(_LabelPool(label=class_id, segments=segments, weight=weight))
        val_eps.extend(class_val)
        val_labels.extend([class_id] * len(class_val))
    if not pools:
        return None
    head = MetricHead.build(cfg.loss, "cross", n_labels=len(ds.classes), dim=episode_dim,
                            seed=head_seed)
    return Task(name="cross", kind="cross", head=head, pools=pools,
                val_episodes=val_eps, val_labels=np.array(val_labels, dtype=np.int64),
                episode_len=length)


def build_registry(model: EpisodeModel, encoder: PostEncoder,
                   train_posts_by_market: dict[str, list[Post]], cfg: TrainConfig,
                   migration_labels: list[MigrationLabel] | None = None) -> TaskRegistry:
    rng = random.Random(cfg.seed ^ 0x5EED)
    tasks = [
        prepare_market_task(market, posts, cfg, model.cfg.episode_dim, rng, head_seed=cfg.seed + 101 + i)
        for i, (market, posts) in enumerate(sorted(train_posts_by_market.items()))
    ]
    cross = None
    if migration_labels:
        cross = prepare_cross_task(migration_labels, train_posts_by_market, cfg,
                                   model.cfg.episode_dim, rng, head_seed=cfg.seed + 997)
    return TaskRegistry(model=model, encoder=encoder, market_tasks=tasks, cross_task=cross)


# ----------------------------------------------------------------- sampling


def sample_task(registry: TaskRegistry, p_cross: float, rng: random.Random) -> Task:
    r = rng.random()
    if registry.cross_task is not None and p_cross > 0.0 and r < p_cross:
        return registry.cross_task
    weights = [t.train_episode_total for t in registry.market_tasks]
    total = sum(weights)
    pick = rng.random() * total
    acc = 0.0
    for task, w in zip(registry.market_tasks, weights):
        acc += w
        if pick < acc:
            return task
    return registry.market_tasks[-1]


def sample_batch(task: Task, n: int, rng: random.Random) -> tuple[list[Episode], np.ndarray]:
    if task.train_episode_total == 0:
        raise ValueError(f"task {task.name!r} has no sampleable episodes")
    episodes, labels = [], []
    for _ in range(n):
        ep, lab = task.sample_episode(rng)
        episodes.append(ep)
        labels.append(lab)
    return episodes, np.array(labels, dtype=np.int64)


# ----------------------------------------------------------------- training


@dataclass
class TrainResult:
    best_params: dict[str, np.ndarray]
    best_epoch: int
    best_val_loss: float
    log: list[dict] = field(default_factory=list)


def _validation_loss(registry: TaskRegistry, task: Task, batch_size: int) -> float:
    if not task.val_episodes:
        return float("nan")
    total, count = 0.0, 0
    for i in range(0, len(task.val_episodes), batch_size):
        eps = task.val_episodes[i : i + batch_size]
        labels = task.val_labels[i : i + batch_size]
        if task.head.kind == "ms" and len(eps) < 2:
            continue
        batch = make_episode_batch(eps, registry.encoder, registry.model)
        emb = registry.model.embed_episodes(batch, train=False)
        loss = task.head.loss(emb, labels)
        total += loss.item() * len(eps)
        count += len(eps)
    return total / max(count, 1)


def train_multitask(registry: TaskRegistry, cfg: TrainConfig) -> TrainResult:
    model = registry.model
    p_cross = cfg.p_cross
    if registry.cross_task is None and p_cross > 0:
        log.warning("no cross-market task available; treating p_cross as 0")
        p_cross = 0.0

    params = registry.all_params()
    state = {name: AdamState.for_param(t.data) for name, t in params.items()}
    scheduler = PlateauScheduler(lr=cfg.lr, factor=cfg.plateau_factor, patience=cfg.plateau_patience)

    seeds = np.random.SeedSequence(cfg.seed).spawn(2)
    task_rng = random.Random(int(seeds[0].generate_state(1)[0]))
    dropout_rng = np.random.default_rng(seeds[1])

    total_episodes = sum(t.train_episode_total for t in registry.all_tasks())
    steps_per_epoch = max(1, total_episodes // cfg.batch_size)

    best_val, best_epoch, best_params = float("inf"), -1, None
    result = TrainResult(best_params={}, best_epoch=-1, best_val_loss=float("inf"))

    for epoch in range(cfg.epochs):
        lr = scheduler.lr
        epoch_losses: dict[str, list[float]] = {}
        grad_norms = []
        for step in range(steps_per_epoch):
            task = sample_task(registry, p_cross, task_rng)
            episodes, labels = sample_batch(task, cfg.batch_size, task_rng)
            batch = make_episode_batch(episodes, registry.encoder, model)
            for t in params.values():
                t.grad = None
            emb = model.embed_episodes(batch, train=True, rng=dropout_rng)
            loss = task.head.loss(emb, labels)
            value = loss.item()
            if not np.isfinite(value):
                raise RuntimeError(
                    f"non-finite loss {value} (task={task.name}, epoch={epoch}, step={step})"
                )
            loss.backward()
            allowed = registry.allowed_params(task)
            grads = {n: params[n].grad for n in allowed if params[n].grad is not None}
            grad_norms.append(clip_global_norm(grads, cfg.grad_clip))
            adam_step({n: params[n].data for n in grads}, grads, state, lr)
            epoch_losses.setdefault(task.name, []).append(value)

        val_losses = {
            t.name: _validation_loss(registry, t, cfg.batch_size) for t in registry.all_tasks()
        }
        finite = [v for v in val_losses.values() if np.isfinite(v)]
        val_loss = float(np.mean(finite)) if finite else float("nan")
        record = {
            "epoch": epoch,
            "task_losses": {
                t.name: (float(np.mean(epoch_losses[t.name])) if t.name in epoch_losses else None)
                for t in registry.all_tasks()
            },
            "val_loss": val_loss,
            "lr": lr,
            # each step's global gradient norm, before clipping
            "grad_norm": {"mean": float(np.mean(grad_norms)), "max": max(grad_norms)},
        }
        result.log.append(record)
        if np.isfinite(val_loss) and val_loss < best_val:
            best_val, best_epoch = val_loss, epoch
            best_params = {n: t.data.copy() for n, t in params.items()}
        scheduler.step(val_loss)

    if best_params is None:
        best_params = {n: t.data.copy() for n, t in params.items()}
        best_epoch = cfg.epochs - 1
        best_val = float("nan")
    result.best_params = best_params
    result.best_epoch = best_epoch
    result.best_val_loss = best_val
    return result


def train_single(registry: TaskRegistry, cfg: TrainConfig) -> TrainResult:
    """Single-market training is the degenerate multitask loop."""
    if len(registry.market_tasks) != 1 or registry.cross_task is not None:
        raise ValueError("train_single expects exactly one market task and no cross task")
    return train_multitask(registry, cfg)


def load_best(registry: TaskRegistry, result: TrainResult) -> None:
    """Write the selected checkpoint back into the live model and heads."""
    params = registry.all_params()
    for name, arr in result.best_params.items():
        params[name].data = arr.copy()
