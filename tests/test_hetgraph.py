import math

import numpy as np
import pytest
from scipy import stats

import epistyle.numcore.tensor as nc_tensor
from epistyle import hetgraph
from epistyle.corpus import Post
from epistyle.hetgraph import (
    DEFAULT_SCHEMES,
    SKIPGRAM_BATCH,
    SKIPGRAM_SHARE,
    HetGraph,
    _TypedNegativeSampler,
    _walk_pairs,
    build_graph,
    export_context_init,
    read_embeddings_tsv,
    read_graph,
    read_walks,
    sample_walks,
    sgns_batch_loss_and_grads,
    train_skipgram,
    write_embeddings_tsv,
    write_graph,
    write_walks,
)
from epistyle.synth import SynthConfig, generate_corpus
from reference import sgns_pair_loss_and_grads


def make_post(pid, author, thread, subforum="s1", start=False, ts=100.0, market="m1"):
    return Post(
        market=market, subforum=subforum, thread_id=thread, post_id=pid,
        author=author, timestamp=ts, is_thread_start=start, body="x",
    )


def two_user_graph():
    posts = [
        make_post("p1", "alice", "t1", start=True, ts=10),
        make_post("p2", "bob", "t1", ts=20),
    ]
    return build_graph(posts)


# ------------------------------------------------------------------- build


def test_build_graph_hand_example():
    g = two_user_graph()
    assert len(g.labels_of_type("U")) == 2
    assert len(g.labels_of_type("S")) == 1
    assert len(g.labels_of_type("T")) == 1
    assert len(g.labels_of_type("P")) == 2
    alice = g.key_labels[("U", "alice")]
    bob = g.key_labels[("U", "bob")]
    t = g.key_labels[("T", "t1")]
    # alice started the thread, bob only replied
    assert t in g.typed_neighbors(alice, "T")
    assert g.typed_neighbors(bob, "T") == []
    assert len(g.typed_neighbors(t, "P")) == 2
    assert len(g.typed_neighbors(alice, "P")) == 1


def test_build_graph_empty():
    g = build_graph([])
    assert g.num_nodes() == 0


def test_utstu_instance_exists():
    # two users on two threads in one subforum admit a UTSTU instance
    posts = [
        make_post("p1", "u1", "t1", start=True, ts=1),
        make_post("p2", "u2", "t2", start=True, ts=2),
    ]
    g = build_graph(posts)
    u1 = g.key_labels[("U", "u1")]
    path = [u1]
    for want in "TSTU":
        options = g.typed_neighbors(path[-1], want)
        assert options, f"no {want} neighbor from {path[-1]}"
        nxt = [o for o in options if o not in path] or options
        path.append(nxt[0])
    assert path[-1] == g.key_labels[("U", "u2")]


def _quadratic_build_graph(posts):
    """The former insert logic: counts a type's nodes on every new node and
    scans neighbour lists for edge membership."""
    g = HetGraph()

    def add_node(node_type, key):
        label = g.key_labels.get((node_type, key))
        if label is None:
            label = f"{node_type}{sum(1 for lab in g.node_keys if lab[0] == node_type)}"
            g.key_labels[(node_type, key)] = label
            g.node_keys[label] = key
            g.neighbors[label] = {}
        return label

    def add_edge(a, b):
        g.neighbors[a].setdefault(b[0], [])
        if b not in g.neighbors[a][b[0]]:
            g.neighbors[a][b[0]].append(b)
        g.neighbors[b].setdefault(a[0], [])
        if a not in g.neighbors[b][a[0]]:
            g.neighbors[b][a[0]].append(a)

    for p in sorted(posts, key=lambda p: (p.author, p.subforum, p.thread_id, p.post_id)):
        u, s = add_node("U", p.author), add_node("S", p.subforum)
        t, pn = add_node("T", p.thread_id), add_node("P", p.post_id)
        add_edge(s, t)
        add_edge(t, pn)
        add_edge(u, pn)
        if p.is_thread_start:
            add_edge(u, t)
    for nbrs in g.neighbors.values():
        for lst in nbrs.values():
            lst.sort(key=lambda lab: (lab[0], int(lab[1:])))
    return g


def test_build_graph_serializes_like_quadratic_reference(tmp_path):
    corpus = generate_corpus(SynthConfig(authors_per_market=8, posts_per_author=40,
                                         migrant_count=2, distinct_pair_count=2, seed=5))
    posts = corpus.posts["alpha"]
    fast, slow = build_graph(posts), _quadratic_build_graph(posts)
    assert fast.key_labels == slow.key_labels
    write_graph(tmp_path / "fast.json", fast)
    write_graph(tmp_path / "slow.json", slow)
    assert (tmp_path / "fast.json").read_bytes() == (tmp_path / "slow.json").read_bytes()
    loaded = read_graph(tmp_path / "fast.json")
    assert loaded.node_keys == fast.node_keys
    assert loaded.key_labels == fast.key_labels
    assert loaded.neighbors == fast.neighbors


# ------------------------------------------------------------------- walks


def test_walk_fully_determined_on_line_graph():
    # single user, single thread, single subforum: every UTSTU hop is forced
    posts = [make_post("p1", "alice", "t1", start=True)]
    g = build_graph(posts)
    walks = sample_walks(g, schemes=("UTSTU",), walks_per_user=2, walk_length=9, rng_seed=5)
    u = g.key_labels[("U", "alice")]
    t = g.key_labels[("T", "t1")]
    s = g.key_labels[("S", "s1")]
    assert walks == [[u, t, s, t, u, t, s, t, u]] * 2


def test_walk_length_one():
    g = two_user_graph()
    walks = sample_walks(g, walks_per_user=7, walk_length=1, rng_seed=0)
    assert all(len(w) == 1 for w in walks)
    assert len(walks) == 14


def test_walks_split_across_schemes_with_remainder():
    g = two_user_graph()
    walks = sample_walks(g, walks_per_user=10, walk_length=3, rng_seed=0)
    # 7 schemes, 10 walks: 3 schemes get 2, rest get 1, per user
    assert len(walks) == 20


def test_walk_type_sequences_follow_cycled_scheme():
    posts = [
        make_post(f"p{i}", f"u{i % 3}", f"t{i % 4}", subforum=f"s{i % 2}", start=i < 4, ts=i + 1)
        for i in range(12)
    ]
    g = build_graph(posts)
    walks = sample_walks(g, walks_per_user=21, walk_length=15, rng_seed=3)
    per_user_per_scheme = 21 // len(DEFAULT_SCHEMES)
    for wi, walk in enumerate(walks):
        scheme = DEFAULT_SCHEMES[(wi % 21) // per_user_per_scheme]
        expected = scheme
        while len(expected) < len(walk):
            expected += scheme[1:]
        assert all(node[0] == expected[k] for k, node in enumerate(walk))


def test_walks_bit_reproducible():
    g = two_user_graph()
    a = sample_walks(g, walks_per_user=20, walk_length=9, rng_seed=11)
    b = sample_walks(g, walks_per_user=20, walk_length=9, rng_seed=11)
    assert a == b


def test_two_neighbor_next_hop_is_binomial():
    # one user posting in two threads; UTU transitions pick each thread ~50%
    posts = [
        make_post("p1", "alice", "t1", start=True, ts=1),
        make_post("p2", "alice", "t2", start=True, ts=2),
        make_post("p3", "bob", "t1", ts=3),
        make_post("p4", "bob", "t2", ts=4),
    ]
    g = build_graph(posts)
    walks = sample_walks(g, schemes=("UTPU",), walks_per_user=5000, walk_length=2, rng_seed=9)
    alice = g.key_labels[("U", "alice")]
    t1 = g.key_labels[("T", "t1")]
    picks = [w[1] for w in walks if w[0] == alice]
    frac = sum(1 for p in picks if p == t1) / len(picks)
    assert abs(frac - 0.5) < 0.03


def test_walks_file_round_trip(tmp_path):
    g = two_user_graph()
    walks = sample_walks(g, walks_per_user=4, walk_length=5, rng_seed=2)
    path = tmp_path / "walks.txt"
    write_walks(path, walks)
    assert read_walks(path) == walks
    first = path.read_text().splitlines()[0].split()
    assert all(tok[0] in "USTP" for tok in first)


def test_bad_scheme_rejected():
    g = two_user_graph()
    with pytest.raises(ValueError):
        sample_walks(g, schemes=("TSU",), walks_per_user=1000, walk_length=80)
    with pytest.raises(ValueError):
        # U-S edges do not exist
        sample_walks(g, schemes=("USU",), walks_per_user=1000, walk_length=80)


# --------------------------------------------------------------- skip-gram


def test_pair_loss_all_zero_vectors():
    d = 8
    loss, *_ = sgns_pair_loss_and_grads(np.zeros(d), np.zeros(d), np.zeros((5, d)))
    assert math.isclose(loss, 6 * math.log(2), rel_tol=1e-12)


def test_pair_loss_limit_case():
    v = np.ones(4) * 10
    u_pos = np.ones(4) * 10  # score 400
    u_neg = -np.ones((3, 4)) * 10
    loss, *_ = sgns_pair_loss_and_grads(v, u_pos, u_neg)
    assert loss < 1e-12


def test_pair_loss_gradients_match_finite_differences():
    rng = np.random.default_rng(0)
    v = rng.normal(size=6) * 0.5
    uc = rng.normal(size=6) * 0.5
    un = rng.normal(size=(4, 6)) * 0.5
    loss, gv, guc, gun = sgns_pair_loss_and_grads(v, uc, un)
    eps = 1e-6

    def num_grad(arr, setter):
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            lp = sgns_pair_loss_and_grads(v, uc, un)[0]
            flat[i] = orig - eps
            lm = sgns_pair_loss_and_grads(v, uc, un)[0]
            flat[i] = orig
            gflat[i] = (lp - lm) / (2 * eps)
        return g

    for analytic, arr in ((gv, v), (guc, uc), (gun, un)):
        numeric = num_grad(arr, None)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
        assert np.max(np.abs(analytic - numeric) / denom) < 1e-4


def test_batch_loss_and_grads_equal_summed_pair_reference():
    # 11 pairs in groups of 4 (the last group has 3), each group sharing 6 negatives
    rng = np.random.default_rng(4)
    v = rng.normal(size=(11, 6))
    uc = rng.normal(size=(11, 6))
    un = rng.normal(size=(3, 6, 6))
    mask = rng.random((11, 6)) < 0.6
    mask[5] = False  # a pair that scores no negative
    loss, gv, guc, gun = sgns_batch_loss_and_grads(v, uc, un, mask, 4)
    assert gv.shape == guc.shape == (11, 6) and gun.shape == (3, 6, 6)
    ref_loss = 0.0
    ref_gun = np.zeros_like(un)
    for i in range(11):
        g = i // 4
        pl, pgv, pguc, pgun = sgns_pair_loss_and_grads(v[i], uc[i], un[g][mask[i]])
        ref_loss += pl
        ref_gun[g][mask[i]] += pgun
        assert np.max(np.abs(gv[i] - pgv)) < 1e-12
        assert np.max(np.abs(guc[i] - pguc)) < 1e-12
    assert np.max(np.abs(gun - ref_gun)) < 1e-12
    assert abs(loss - ref_loss) < 1e-12


def test_typed_negatives_match_context_type_and_differ_from_it():
    labels = ["P0", "P1", "S0", "S1", "S2", "T0", "T1", "U0"]
    groups = np.unique([lab[0] for lab in labels], return_inverse=True)[1]
    counts = np.array([5, 1, 9, 2, 1, 3, 7, 4], dtype=np.float64)
    sampler = _TypedNegativeSampler(counts, groups)
    drawn = sampler.draw(50, 6, np.random.default_rng(0))
    assert drawn.shape == (50, 4 * 6)
    # row r holds 6 draws from each type's table in turn
    assert np.array_equal(groups[drawn], np.broadcast_to(np.repeat(np.arange(4), 6), drawn.shape))
    context = np.arange(7).repeat(50)  # every node but the one-member type's U0
    rows = drawn[np.tile(np.arange(50), 7)]
    mask = sampler.mask(context, rows)
    assert np.array_equal(mask, (groups[rows] == groups[context][:, None])
                          & (rows != context[:, None]))


def test_single_member_type_returns_that_member():
    labels = ["S0", "U0", "U1"]
    groups = np.unique([lab[0] for lab in labels], return_inverse=True)[1]
    sampler = _TypedNegativeSampler(np.array([3.0, 1.0, 1.0]), groups)
    drawn = sampler.draw(3, 4, np.random.default_rng(1))
    assert np.array_equal(drawn[:, :4], np.zeros((3, 4), dtype=np.int64))
    # S0 keeps its type's only member as its negatives; U0 scores the U1 draws
    mask = sampler.mask(np.array([0, 1]), drawn[:2])
    assert np.array_equal(mask[0], np.arange(8) < 4)
    assert np.array_equal(mask[1], (np.arange(8) >= 4) & (drawn[1] == 2))


def test_pair_count_matches_window_formula():
    rng = np.random.default_rng(2)
    walks = [list(rng.integers(0, 10, size=n)) for n in (1, 2, 5, 9, 13)]
    for window in (1, 3, 7):
        centers, contexts = _walk_pairs(walks, window)
        expected = []
        for walk in walks:
            for t in range(len(walk)):
                for j in range(max(0, t - window), min(len(walk), t + window + 1)):
                    if j != t:
                        expected.append((walk[t], walk[j]))
        assert len(centers) == len(expected)
        assert list(zip(centers.tolist(), contexts.tolist())) == expected


def _expected_objective(w_in, w_out, walks, window, negatives):
    """Mean over all walk pairs of the loss expected under train_skipgram's
    negatives: `negatives` draws from the context's type by unigram^0.75,
    where drawing the context itself scores nothing unless it is its type's
    only member."""
    nodes = sorted({n for walk in walks for n in walk})
    index = {n: i for i, n in enumerate(nodes)}
    walk_ids = [[index[n] for n in walk] for walk in walks]
    centers, contexts = _walk_pairs(walk_ids, window)
    types = np.array([n[0] for n in nodes])
    same = types[:, None] == types[None, :]
    weights = np.bincount(np.concatenate(walk_ids), minlength=len(nodes)) ** 0.75
    prob = same * weights / (same @ weights)[:, None]  # prob[o, n]: n drawn for context o
    prob[np.diag_indices(len(nodes))] *= same.sum(axis=1) == 1
    scores = w_in[centers] @ w_out.T
    pos = scores[np.arange(len(centers)), contexts]
    neg = (prob[contexts] * np.logaddexp(0.0, scores)).sum(axis=1)
    return float(np.mean(np.logaddexp(0.0, -pos) + negatives * neg))


def test_skipgram_loss_decreases(monkeypatch):
    # one epoch's recorded loss is an estimate from a few shared draws per
    # type, so the test follows the exact expected objective of the tables
    posts = [
        make_post(f"p{i}", f"u{i % 2}", f"t{i % 2}", start=i < 2, ts=i + 1) for i in range(8)
    ]
    g = build_graph(posts)
    walks = sample_walks(g, walks_per_user=10, walk_length=9, rng_seed=7)
    scatter = hetgraph.scatter_add
    tables, snapshots = [], []

    def recording(table, rows, values):
        scatter(table, rows, values)
        tables.append(table)
        if len(tables) % 2 == 0:  # w_in, then w_out, once per batch
            snapshots.append((tables[-2].copy(), table.copy()))

    monkeypatch.setattr(hetgraph, "scatter_add", recording)
    train_skipgram(walks, dim=8, window=3, negatives=3, epochs=3, rng_seed=7)
    batches = len(snapshots) // 3
    losses = [_expected_objective(*snapshots[(e + 1) * batches - 1], walks, 3, 3)
              for e in range(3)]
    assert losses[1] <= losses[0]
    assert losses[2] <= losses[1]


def test_skipgram_scatters_each_pair_and_the_shared_draws_into_w_out(monkeypatch):
    walks = [["U0", "T0", "P0", "S0", "T1", "U1", "P1"], ["U1", "T1", "P2"]] * 60
    centers, _ = _walk_pairs([[0] * len(w) for w in walks], 2)
    rows = []

    def recording(table, r, values):
        rows.append(len(r))

    monkeypatch.setattr(hetgraph, "scatter_add", recording)
    train_skipgram(walks, dim=4, window=2, negatives=3, epochs=2, rng_seed=0)
    sizes = [min(SKIPGRAM_BATCH, len(centers) - lo)
             for lo in range(0, len(centers), SKIPGRAM_BATCH)]
    assert len(sizes) > 1 and sizes[-1] % SKIPGRAM_SHARE  # a short last batch and group
    per_batch = [[b, b + -(-b // SKIPGRAM_SHARE) * 4 * 3] for b in sizes]  # 4 node types
    assert rows == [n for _ in range(2) for batch in per_batch for n in batch]


def test_skipgram_rejects_walks_without_pairs():
    with pytest.raises(ValueError, match="no \\(center, context\\) pair"):
        train_skipgram([["U0"], ["U1"]], dim=4, window=2, negatives=2, epochs=2)


@pytest.mark.parametrize("lr, epoch", [(1e30, 1), (1e300, 0)])
def test_skipgram_rejects_a_diverged_table_naming_the_epoch(monkeypatch, lr, epoch):
    # at 1e30 the tables stay finite in float64 but overflow the float32 vectors
    posts = [
        make_post(f"p{i}", f"u{i % 2}", f"t{i % 2}", start=i < 2, ts=i + 1) for i in range(8)
    ]
    walks = sample_walks(build_graph(posts), walks_per_user=10, walk_length=9, rng_seed=7)
    monkeypatch.setattr(hetgraph, "SKIPGRAM_LR", lr)
    with pytest.raises(ValueError, match=f"diverged in epoch {epoch}"):
        train_skipgram(walks, dim=8, window=3, negatives=3, epochs=3, rng_seed=7)


def test_skipgram_rejects_bad_dims():
    with pytest.raises(ValueError):
        train_skipgram([["U0", "T0"]], dim=0, window=7, negatives=5, epochs=5)
    with pytest.raises(ValueError):
        train_skipgram([["U0", "T0"]], dim=4, window=0, negatives=5, epochs=5)


def test_skipgram_deterministic():
    walks = [["U0", "T0", "U1", "T1", "U0"]] * 4
    a = train_skipgram(walks, dim=6, window=2, negatives=2, epochs=2, rng_seed=3)
    b = train_skipgram(walks, dim=6, window=2, negatives=2, epochs=2, rng_seed=3)
    for k in a.vectors:
        assert np.array_equal(a.vectors[k], b.vectors[k])


def _one_call_scatter_add(table, rows, values):
    """table[rows] += values as one np.add.at over flat element indices."""
    dim = table.shape[1]
    flat = (rows[:, None] * dim + np.arange(dim)).reshape(-1)
    np.add.at(table.reshape(-1), flat, values.reshape(-1))


def _skipgram_tables(monkeypatch, scatter):
    """The skip-gram's (w_in, w_out) after one seeded epoch, updated by `scatter`."""
    tables = {}

    def recording(table, rows, values):
        tables[id(table)] = table
        scatter(table, rows, values)

    monkeypatch.setattr(hetgraph, "scatter_add", recording)
    corpus = generate_corpus(SynthConfig(authors_per_market=4, posts_per_author=12,
                                         migrant_count=1, distinct_pair_count=1, seed=5))
    walks = sample_walks(build_graph(corpus.posts["alpha"]), walks_per_user=8, walk_length=12,
                         rng_seed=5)
    train_skipgram(walks, dim=5, window=3, negatives=2, epochs=1, rng_seed=5)
    return list(tables.values())


def test_skipgram_tables_equal_one_call_scatter_add_bit_for_bit(monkeypatch):
    want = _skipgram_tables(monkeypatch, _one_call_scatter_add)
    monkeypatch.setattr(nc_tensor, "_SCATTER_CHUNK", 64)  # 12 rows of 5 per np.add.at
    got = _skipgram_tables(monkeypatch, nc_tensor.scatter_add)
    assert len(got) == len(want) == 2
    for g, w in zip(got, want):
        assert np.array_equal(g.view(np.uint64), w.view(np.uint64))


# ----------------------------------------------------- chi-square / export


def test_typed_transition_uniformity_chi_square():
    # a user active in 5 threads; UTU steps should hit each uniformly
    n_threads = 5
    posts = [
        make_post(f"p{i}", "alice", f"t{i % n_threads}", start=i < n_threads, ts=i + 1)
        for i in range(2 * n_threads)
    ] + [make_post("q1", "bob", "t0", ts=99)]
    g = build_graph(posts)
    walks = sample_walks(g, schemes=("UTU",), walks_per_user=6000, walk_length=3, rng_seed=13)
    alice = g.key_labels[("U", "alice")]
    counts: dict[str, int] = {}
    for w in walks:
        if w[0] == alice and len(w) >= 2:
            counts[w[1]] = counts.get(w[1], 0) + 1
    observed = np.array([counts.get(f"T{i}", 0) for i in range(n_threads)])
    expected = observed.sum() / n_threads
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert chi2 < stats.chi2.ppf(0.99, df=n_threads - 1)


def test_export_context_init_rows():
    posts = [
        make_post("p1", "a", "t1", subforum="s1", start=True, ts=1),
        make_post("p2", "a", "t2", subforum="s2", start=True, ts=2),
        make_post("p3", "b", "t1", subforum="s1", ts=3),
    ]
    g = build_graph(posts)
    walks = sample_walks(g, walks_per_user=10, walk_length=9, rng_seed=1)
    emb = train_skipgram(walks, dim=16, window=3, negatives=2, epochs=1, rng_seed=1)
    ctx = export_context_init(emb, g, ["s1", "s2", "s3"])
    assert sorted(ctx) == ["s1", "s2", "s3"]
    s1_label = g.key_labels[("S", "s1")]
    assert np.array_equal(ctx["s1"], emb.vectors[s1_label])  # identity extraction
    assert np.array_equal(ctx["s3"], np.zeros(16, dtype=np.float32))  # missing -> zero


def test_embeddings_tsv_round_trip(tmp_path):
    vecs = {"U0": np.array([1.5, -2.25], dtype=np.float32), "S0": np.array([0.1, 0.2], dtype=np.float32)}
    from epistyle.hetgraph import NodeEmbeddings

    emb = NodeEmbeddings(vectors=vecs, dim=2)
    path = tmp_path / "nodes.tsv"
    write_embeddings_tsv(path, emb)
    loaded = read_embeddings_tsv(path)
    assert loaded.dim == 2
    for k in vecs:
        assert np.array_equal(loaded.vectors[k], vecs[k])
    assert path.read_text().splitlines()[0].startswith("node\tdim0")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("T0\t0.5\n")
    with pytest.raises(ValueError, match=r"nodes\.tsv:4: 2 fields, header has 3"):
        read_embeddings_tsv(path)


@pytest.mark.parametrize("text, message", [
    ("", "expected a `key dim0 dim1 ...` header"),
    ("s0\t0.5\t0.25\n", "expected a `key dim0 dim1 ...` header"),
    ("subforum\tdim0\tdim1\n", "no rows under the header"),
    ("subforum\tdim0\ns0\t0.5\ns1\t0.5\ns0\t0.25\n", ":4: key 's0' is listed twice"),
])
def test_embeddings_tsv_without_header_or_rows_names_the_file(tmp_path, text, message):
    # a repeated key used to keep its last row
    path = tmp_path / "context.tsv"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        read_embeddings_tsv(path)
    assert str(exc.value) == (f"{path}{message}" if message.startswith(":") else
                              f"{path}: {message}")
