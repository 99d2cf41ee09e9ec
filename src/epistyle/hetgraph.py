"""Heterogeneous forum graph: meta-path guided random walks and skip-gram
node embeddings used to initialize the subforum context table.

Node labels are the type letter plus a per-type index (U0, S3, T12, P7);
indices are assigned in sorted key order so graph construction is
deterministic for a fixed post list.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import logging
import random
from dataclasses import dataclass, field

import numpy as np

from .atomic import atomic_write
from .corpus import Post
from .numcore import scatter_add

log = logging.getLogger(__name__)

NODE_TYPES = ("U", "S", "T", "P")

# All schemes start and end at a user node; walks cycle them end-to-start.
DEFAULT_SCHEMES = ("UPTSTPU", "UTSTPU", "UPTSTU", "UTSTU", "UPTPU", "UPTU", "UTPU")

_EDGE_TYPES = {("U", "T"), ("U", "P"), ("T", "P"), ("S", "T")}


@dataclass
class GraphConfig:
    """The walk and skip-gram settings; a walk needs two nodes to give a pair."""

    walks_per_user: int = 1000
    walk_length: int = 80
    dim: int = 128
    window: int = 7
    negatives: int = 5
    epochs: int = 5

    def __post_init__(self):
        for name in ("walks_per_user", "walk_length", "dim", "window", "negatives", "epochs"):
            least = 2 if name == "walk_length" else 1
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be at least {least}, got {getattr(self, name)}")


@dataclass
class HetGraph:
    node_keys: dict[str, str] = field(default_factory=dict)  # label -> original key
    key_labels: dict[tuple[str, str], str] = field(default_factory=dict)  # (type, key) -> label
    neighbors: dict[str, dict[str, list[str]]] = field(default_factory=dict)

    def labels_of_type(self, node_type: str) -> list[str]:
        return sorted(
            (lab for lab in self.node_keys if lab[0] == node_type),
            key=lambda lab: int(lab[1:]),
        )

    def typed_neighbors(self, label: str, node_type: str) -> list[str]:
        return self.neighbors.get(label, {}).get(node_type, [])

    def num_nodes(self) -> int:
        return len(self.node_keys)


def build_graph(posts: list[Post]) -> HetGraph:
    """One U node per author, S per subforum, T per thread, P per post.

    Every post contributes U-P and T-P edges; thread starters add U-T;
    each thread hangs off its subforum via S-T. Linear in the post count:
    per-type counters number new nodes, each (node, type) gathers its
    neighbours in a set, and each set becomes a list sorted by label index
    once at the end.
    """
    graph = HetGraph()
    type_counts = dict.fromkeys(NODE_TYPES, 0)

    def add_node(node_type: str, key: str) -> str:
        label = graph.key_labels.get((node_type, key))
        if label is None:
            label = f"{node_type}{type_counts[node_type]}"
            type_counts[node_type] += 1
            graph.key_labels[(node_type, key)] = label
            graph.node_keys[label] = key
            graph.neighbors[label] = {}
        return label

    def add_edge(a: str, b: str) -> None:
        graph.neighbors[a].setdefault(b[0], set()).add(b)
        graph.neighbors[b].setdefault(a[0], set()).add(a)

    for p in sorted(posts, key=lambda p: (p.author, p.subforum, p.thread_id, p.post_id)):
        u = add_node("U", p.author)
        s = add_node("S", p.subforum)
        t = add_node("T", p.thread_id)
        pn = add_node("P", p.post_id)
        add_edge(s, t)
        add_edge(t, pn)
        add_edge(u, pn)
        if p.is_thread_start:
            add_edge(u, t)
    for nbrs in graph.neighbors.values():
        for kind, labels in nbrs.items():
            nbrs[kind] = sorted(labels, key=lambda lab: int(lab[1:]))
    return graph


# ------------------------------------------------------------------- walks


def _walk_rng(seed: int, node: str, walk_index: int) -> random.Random:
    digest = hashlib.blake2b(
        f"{seed}:{node}:{walk_index}".encode(), digest_size=8
    ).digest()
    return random.Random(int.from_bytes(digest, "big"))


def sample_walks(graph: HetGraph, schemes=DEFAULT_SCHEMES, *, walks_per_user: int,
                 walk_length: int, rng_seed: int = 0) -> list[list[str]]:
    """Meta-path guided walks from every user node.

    walks_per_user splits evenly across schemes (remainder round-robin); at
    each step the next node is uniform over neighbors of the required type,
    truncating when none exists.
    """
    for scheme in schemes:
        if scheme[0] != "U" or scheme[-1] != "U":
            raise ValueError(f"scheme {scheme!r} must start and end at U")
        for a, b in zip(scheme, scheme[1:]):
            if (a, b) not in _EDGE_TYPES and (b, a) not in _EDGE_TYPES:
                raise ValueError(f"scheme {scheme!r} uses a nonexistent edge type {a}-{b}")
    if graph.num_nodes() == 0:
        raise ValueError("sample_walks: empty graph")

    per_scheme = walks_per_user // len(schemes)
    remainder = walks_per_user % len(schemes)
    walks: list[list[str]] = []
    isolated_warned = False
    for user in graph.labels_of_type("U"):
        walk_index = 0
        for si, scheme in enumerate(schemes):
            count = per_scheme + (1 if si < remainder else 0)
            for _ in range(count):
                rng = _walk_rng(rng_seed, user, walk_index)
                walk_index += 1
                walk = [user]
                # the scheme's terminal U doubles as the next repeat's start
                types = itertools.cycle(scheme[1:])
                current = user
                while len(walk) < walk_length:
                    want = next(types)
                    options = graph.typed_neighbors(current, want)
                    if not options:
                        break
                    current = options[rng.randrange(len(options))]
                    walk.append(current)
                if len(walk) == 1 and walk_length > 1 and not isolated_warned:
                    log.warning("isolated user node %s: emitting length-1 walks", user)
                    isolated_warned = True
                walks.append(walk)
    return walks


def write_graph(path, graph: HetGraph) -> None:
    """One line of JSON with the label -> key map and the typed neighbour
    lists. `json.dumps` without indent runs the C encoder; `json.dump` and
    any indent run the pure-Python one."""
    with atomic_write(path, encoding="utf-8") as fh:
        fh.write(json.dumps({"node_keys": graph.node_keys, "neighbors": graph.neighbors},
                            sort_keys=True) + "\n")


def read_graph(path) -> HetGraph:
    """Read `write_graph` output; JSON of another shape raises ValueError
    naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object")
    # JSON object keys are strings, so only the values need their types checked
    node_keys, neighbors = obj.get("node_keys"), obj.get("neighbors")
    if not (isinstance(node_keys, dict) and "" not in node_keys
            and all(isinstance(key, str) for key in node_keys.values())):
        raise ValueError(f"{path}: expected \"node_keys\" to map node labels to keys")

    def known_labels_by_type(by_type) -> bool:
        return isinstance(by_type, dict) and all(
            isinstance(labels, list) and all(isinstance(n, str) and n in node_keys for n in labels)
            for labels in by_type.values())

    if not (isinstance(neighbors, dict) and neighbors.keys() <= node_keys.keys()
            and all(map(known_labels_by_type, neighbors.values()))):
        raise ValueError(f"{path}: expected \"neighbors\" to map node labels to lists of "
                         "node labels by type")
    return HetGraph(node_keys=node_keys,
                    key_labels={(label[0], key): label for label, key in node_keys.items()},
                    neighbors=neighbors)


def write_walks(path, walks: list[list[str]]) -> None:
    with atomic_write(path, encoding="utf-8") as fh:
        for walk in walks:
            fh.write(" ".join(walk) + "\n")


def read_walks(path) -> list[list[str]]:
    with open(path, "r", encoding="utf-8") as fh:
        return [line.split() for line in fh if line.strip()]


# --------------------------------------------------------------- skip-gram


def sgns_batch_loss_and_grads(v_center: np.ndarray, u_context: np.ndarray, u_negs: np.ndarray,
                              mask: np.ndarray, share: int):
    """Summed loss and gradients for a batch of pairs that share negatives.

    v_center and u_context are (B, d). Pairs i // share form group g, whose
    shared negatives are u_negs[g], (G, N, d) over all groups; mask is (B, N),
    true where pair i scores negative j of its group. Pair i's loss is
    -log sigmoid(u_c . v) - sum over the negatives n it scores of
    log sigmoid(-u_n . v), and row (g, j) of the negatives' gradient sums
    negative j's gradient over the pairs of group g.
    Returns (loss, grad_v (B, d), grad_u_context (B, d), grad_u_negs (G, N, d)).
    """
    b, d = v_center.shape
    groups, n, _ = u_negs.shape
    pos = np.einsum("bd,bd->b", u_context, v_center)
    # a short last group is padded with rows that score no negative
    v = _padded(v_center, groups * share).reshape(groups, share, d)
    m = _padded(mask, groups * share).reshape(groups, share, n)
    neg = v @ u_negs.transpose(0, 2, 1)  # (G, share, N): one GEMM per group
    loss = np.sum(np.log1p(np.exp(-np.abs(pos))) + np.maximum(-pos, 0.0))
    loss += np.sum(np.log1p(np.exp(-np.abs(neg[m]))) + np.maximum(neg[m], 0.0))
    g_pos = (_sigmoid(pos) - 1.0)[:, None]
    g_neg = np.where(m, _sigmoid(neg), 0.0)
    grad_v = g_pos * u_context + (g_neg @ u_negs).reshape(-1, d)[:b]
    grad_uc = g_pos * v_center
    grad_un = g_neg.transpose(0, 2, 1) @ v
    return float(loss), grad_v, grad_uc, grad_un


def _padded(a: np.ndarray, rows: int) -> np.ndarray:
    """a with zero rows appended up to `rows`; a itself when it has them."""
    if len(a) == rows:
        return a
    return np.concatenate([a, np.zeros((rows - len(a),) + a.shape[1:], dtype=a.dtype)])


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _finite_float32(a: np.ndarray) -> bool:
    """Whether every value of `a` casts to a finite float32: NaN compares
    false, and a finite float64 past float32's range casts to inf."""
    return bool((np.abs(a) <= np.finfo(np.float32).max).all())


@dataclass
class NodeEmbeddings:
    vectors: dict[str, np.ndarray]
    dim: int
    meta: dict = field(default_factory=dict)


class _TypedNegativeSampler:
    """Unigram^(3/4) negative sampling over node indices, one table per node
    type (the typed-context normalization).

    groups[i] is the sampling table of node i, one per node type.
    """

    def __init__(self, counts: np.ndarray, groups: np.ndarray):
        self.groups = groups
        self.tables: list[tuple[np.ndarray, np.ndarray]] = []
        for g in range(int(groups.max()) + 1):
            members = np.flatnonzero(groups == g)
            weights = counts[members] ** 0.75
            cdf = np.cumsum(weights / weights.sum())
            cdf[-1] = 1.0  # rounding must not leave a draw past the last member
            self.tables.append((members, cdf))
        # a one-member table has nothing else to draw, so its member stays a negative
        self.single = np.array([len(members) == 1 for members, _ in self.tables])

    def draw(self, n: int, k: int, rng: np.random.Generator) -> np.ndarray:
        """(n, T * k) nodes: each row holds k draws from each of the T tables
        in turn."""
        u = rng.random((n, len(self.tables), k))
        out = np.empty(u.shape, dtype=np.int64)
        for g, (members, cdf) in enumerate(self.tables):
            out[:, g] = members[np.searchsorted(cdf, u[:, g], side="right")]
        return out.reshape(n, -1)

    def mask(self, context: np.ndarray, drawn: np.ndarray) -> np.ndarray:
        """True where drawn[i, j] is a negative of context[i]: a node of its
        type other than itself, unless it is its type's only member."""
        types = self.groups[context][:, None]
        return (self.groups[drawn] == types) & ((drawn != context[:, None]) | self.single[types])


def _walk_pairs(walks: list[list[int]], window: int) -> tuple[np.ndarray, np.ndarray]:
    """(center, context) arrays over walks of node indices, in walk order.

    Each position t pairs with every other position in
    [max(0, t - window), min(len, t + window + 1)), in ascending order.
    """
    lengths = np.array([len(w) for w in walks], dtype=np.int64)
    tokens = np.fromiter((n for w in walks for n in w), dtype=np.int64, count=int(lengths.sum()))
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    ends = starts + np.repeat(lengths, lengths)
    offsets = np.array([o for o in range(-window, window + 1) if o != 0], dtype=np.int64)
    positions = np.arange(len(tokens))[:, None] + offsets
    valid = (positions >= starts[:, None]) & (positions < ends[:, None])
    centers = np.broadcast_to(tokens[:, None], positions.shape)[valid]
    return centers, tokens[positions[valid]]


# Pairs per SGD step. Updates within a batch are computed from the same
# parameters and summed into the tables.
SKIPGRAM_BATCH = 1024
# Consecutive pairs of a batch that share one draw of negatives per node type.
SKIPGRAM_SHARE = 64
SKIPGRAM_LR = 0.025  # initial SGD step, decayed linearly to 1e-4 of it


# A diverged run overflows before the end of its epoch; the check after the
# epoch reports it in one line, and NumPy's warnings would only print ahead.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train_skipgram(walks: list[list[str]], dim: int, window: int, negatives: int, epochs: int,
                   rng_seed: int = 0) -> NodeEmbeddings:
    """Skip-gram with negative sampling over walk windows.

    Mini-batched SGD over integer pair arrays. Each group of SKIPGRAM_SHARE
    consecutive pairs in a batch of SKIPGRAM_BATCH shares `negatives` draws
    from each node type's table; a pair scores the draws that
    `_TypedNegativeSampler.mask` gives it, with one GEMM per group. Each
    batch applies one scatter-add per table, with a learning rate decayed
    linearly per batch. Deterministic for a fixed seed. Records the mean
    per-pair loss of each epoch in meta["epoch_losses"]. Raises ValueError
    naming the epoch after which a table holds a value that is not a finite
    float32.
    """
    if dim <= 0 or window <= 0:
        raise ValueError(f"dim and window must be positive, got {dim}, {window}")
    if not walks or not any(walks):
        raise ValueError("train_skipgram: no walks")

    nodes = sorted({node for walk in walks for node in walk})
    index = {n: i for i, n in enumerate(nodes)}
    walk_ids = [[index[n] for n in walk] for walk in walks]
    centers, contexts = _walk_pairs(walk_ids, window)
    if len(centers) == 0:
        raise ValueError("train_skipgram: the walks give no (center, context) pair; "
                         "every walk has one node")
    counts = np.bincount(np.fromiter((i for w in walk_ids for i in w), dtype=np.int64),
                         minlength=len(nodes))
    groups = np.unique([n[0] for n in nodes], return_inverse=True)[1]
    sampler = _TypedNegativeSampler(counts, groups)

    rng = np.random.default_rng(rng_seed)
    w_in = (rng.random((len(nodes), dim)) - 0.5) / dim
    w_out = np.zeros((len(nodes), dim), dtype=np.float64)

    n_pairs = len(centers)
    total_updates = n_pairs * epochs
    epoch_losses: list[float] = []
    for epoch in range(epochs):
        loss_sum = 0.0
        for lo in range(0, n_pairs, SKIPGRAM_BATCH):
            ci = centers[lo : lo + SKIPGRAM_BATCH]
            oi = contexts[lo : lo + SKIPGRAM_BATCH]
            drawn = sampler.draw(-(-len(ci) // SKIPGRAM_SHARE), negatives, rng)
            mask = sampler.mask(oi, drawn[np.arange(len(ci)) // SKIPGRAM_SHARE])
            alpha = SKIPGRAM_LR * max(1e-4, 1.0 - (epoch * n_pairs + lo) / total_updates)
            loss, g_v, g_uc, g_un = sgns_batch_loss_and_grads(
                w_in[ci], w_out[oi], w_out[drawn], mask, SKIPGRAM_SHARE)
            loss_sum += loss
            scatter_add(w_in, ci, -alpha * g_v)
            scatter_add(w_out, np.concatenate([oi, drawn.ravel()]),
                        -alpha * np.concatenate([g_uc, g_un.reshape(-1, dim)]))
        epoch_losses.append(loss_sum / n_pairs)
        if not (_finite_float32(w_in) and _finite_float32(w_out)):
            raise ValueError(f"train_skipgram: diverged in epoch {epoch}, a table holds a value "
                             f"that is not a finite float32 (mean pair loss "
                             f"{epoch_losses[-1]:.4g})")

    vectors = {n: w_in[i].astype(np.float32) for i, n in enumerate(nodes)}
    return NodeEmbeddings(
        vectors=vectors,
        dim=dim,
        meta={
            "window": window,
            "negatives": negatives,
            "epochs": epochs,
            "lr": SKIPGRAM_LR,
            "seed": rng_seed,
            "epoch_losses": epoch_losses,
        },
    )


# ------------------------------------------------------------------ export


def export_context_init(
    embeddings: NodeEmbeddings, graph: HetGraph, subforums: list[str]
) -> dict[str, np.ndarray]:
    """Subforum -> S-node vector, in subforum-id order; missing S nodes get a
    zero vector with a warning."""
    out: dict[str, np.ndarray] = {}
    for sf in sorted(subforums):
        label = graph.key_labels.get(("S", sf))
        vec = embeddings.vectors.get(label) if label is not None else None
        if vec is None:
            log.warning("subforum %r has no trained S node; using zero init", sf)
            vec = np.zeros(embeddings.dim, dtype=np.float32)
        out[sf] = vec
    return out


def write_embeddings_tsv(path, embeddings: NodeEmbeddings, key: str = "node") -> None:
    """One row per vector in sorted key order, under a `key dim0 dim1 ...`
    header; floats are written as their shortest round-trip repr."""
    with atomic_write(path, encoding="utf-8") as fh:
        fh.write(key + "\t" + "\t".join(f"dim{i}" for i in range(embeddings.dim)) + "\n")
        for name in sorted(embeddings.vectors):
            vec = embeddings.vectors[name]
            fh.write(name + "\t" + "\t".join(map(repr, vec.tolist())) + "\n")


def read_embeddings_tsv(path) -> NodeEmbeddings:
    """Read `write_embeddings_tsv` output. A file without the `key dim0 ...`
    header or without rows raises ValueError naming the path; a row whose
    width differs from the header's, with a cell that is not a finite
    float32 number, or with a key an earlier row has, raises ValueError
    naming the path and line."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if len(header) < 2 or header[1:] != [f"dim{i}" for i in range(len(header) - 1)]:
            raise ValueError(f"{path}: expected a `key dim0 dim1 ...` header")
        vectors: dict[str, np.ndarray] = {}
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split("\t")
            if len(parts) != len(header):
                raise ValueError(f"{path}:{lineno}: {len(parts)} fields, "
                                 f"header has {len(header)}")
            try:
                vec = np.array([float(x) for x in parts[1:]])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if not _finite_float32(vec):
                raise ValueError(f"{path}:{lineno}: a value is not a finite float32")
            if parts[0] in vectors:
                raise ValueError(f"{path}:{lineno}: key {parts[0]!r} is listed twice")
            vectors[parts[0]] = vec.astype(np.float32)
    if not vectors:
        raise ValueError(f"{path}: no rows under the header")
    return NodeEmbeddings(vectors=vectors, dim=len(header) - 1)
