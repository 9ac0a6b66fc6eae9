"""Distance metrics, UPGMA agglomeration, and top-K truncation."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from demlearn.clustering import (
    _CLOSE,
    Dendrogram,
    Merge,
    agglomerate,
    build_distance_matrix,
    format_dendrogram,
    tied_dendrogram,
    truncate,
)
from demlearn.hierarchy import build_tree, members

from oracles import (
    brute_force_upgma,
    dict_upgma,
    frontier_cut,
    gradient_similarity,
    labels_of,
    naive_euclidean,
    node_tree,
    pairwise_distance_matrix,
    recursive_format_dendrogram,
    weight_distance,
)


def random_distance_matrix(n, rng):
    pts = rng.normal(0, 1, (n, 3))
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = np.linalg.norm(pts[i] - pts[j])
    return d


# ---------------------------------------------------------------- distances
# weight_distance and gradient_similarity are the oracles' pair kernels.


def test_weight_distance_identical_is_zero():
    v = np.array([1.0, -2.0, 3.0])
    assert weight_distance(v, v.copy()) == 0.0


def test_weight_distance_3_4_5():
    assert weight_distance(np.array([3.0, 4.0]), np.zeros(2)) == 5.0


def test_weight_distance_matches_naive_loop():
    rng = np.random.default_rng(0)
    a, b = rng.normal(0, 1, 100), rng.normal(0, 1, 100)
    assert weight_distance(a, b) == pytest.approx(naive_euclidean(a, b), abs=1e-12)


def test_weight_distance_length_mismatch():
    with pytest.raises(ValueError):
        weight_distance(np.zeros(3), np.zeros(4))


def test_gradient_similarity_endpoints():
    v = np.array([1.0, 2.0, -1.0])
    assert gradient_similarity(v, v) == pytest.approx(1.0, abs=1e-12)
    assert gradient_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0
    assert gradient_similarity(v, -v) == pytest.approx(-1.0, abs=1e-12)


def test_gradient_similarity_zero_vector():
    with pytest.raises(ValueError):
        gradient_similarity(np.zeros(3), np.ones(3))


def test_distance_matrix_identical_clients():
    w = np.array([0.5, -0.5])
    d = build_distance_matrix(np.tile(w, (4, 1)), "weights")
    assert np.array_equal(d, np.zeros((4, 4)))


def test_distance_matrix_two_clients_matches_pairwise():
    a, b = np.array([1.0, 0.0]), np.array([0.0, 2.0])
    d = build_distance_matrix(np.stack([a, b]), "weights")
    assert d[0, 1] == weight_distance(a, b)
    assert d[1, 0] == d[0, 1] and d[0, 0] == 0.0


def test_distance_matrix_matches_pairwise_ops():
    rng = np.random.default_rng(1)
    w, g = rng.normal(0, 1, (5, 6)), rng.normal(0, 1, (5, 6))
    dw = build_distance_matrix(w, "weights")
    dg = build_distance_matrix(g, "gradients")
    for i in range(5):
        for j in range(5):
            if i == j:
                continue
            assert dw[i, j] == pytest.approx(
                weight_distance(w[i], w[j]), abs=1e-15
            )
            assert dg[i, j] == pytest.approx(
                1.0 - gradient_similarity(g[i], g[j]),
                abs=1e-15,
            )


def test_distance_matrix_names_the_first_zero_norm_client():
    deltas = np.array([np.ones(3), np.ones(3), np.zeros(3), [1.0, 0.0, 0.0], np.zeros(3)])
    with pytest.raises(ValueError, match="client 2 has a zero-norm update delta"):
        build_distance_matrix(deltas, "gradients")


@st.composite
def blocks(draw):
    n = draw(st.integers(2, 30))
    m = draw(st.integers(1, 60))
    scale = draw(st.sampled_from([1e-6, 1e-2, 1.0, 1e3, 1e8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.normal(0.0, scale, (n, m))
    if draw(st.booleans()):  # repeated rows give exact zero distances
        w[n // 2] = w[0]
    return w


def pair_loop_bound(x, metric):
    """How far the Gram matrix may lie from the pair loop: relative for
    Euclidean distances, absolute for 1 - cosine, whose scale is 1.  With
    eps = 2^-52, a pair further apart than `_CLOSE` gets a squared distance
    within (M + 2) eps / _CLOSE of the exact one, relatively, and so a
    distance within half that, where the pair loop's is within ~M eps; each
    side's 1 - cosine is within ~(M + 2) eps of the exact one."""
    eps, m = np.finfo(np.float64).eps, x.shape[1]
    return (m + 2) * eps / _CLOSE if metric == "weights" else 3 * (m + 2) * eps


@settings(max_examples=100, deadline=None)
@given(blocks(), st.sampled_from(["weights", "gradients"]))
def test_the_distance_matrix_is_symmetric_with_a_zero_diagonal_and_near_the_pair_loop(x, metric):
    got, want = build_distance_matrix(x, metric), pairwise_distance_matrix(x, metric)
    assert got.tobytes() == got.T.tobytes()
    assert np.diag(got).tobytes() == np.zeros(len(x)).tobytes()
    error = np.abs(got - want)
    bound = pair_loop_bound(x, metric)
    assert np.all(error <= bound * want if metric == "weights" else error <= bound)


@st.composite
def repeated_rows(draw):
    """Blocks whose rows are copies of 1-4 distinct rows, in any order, at
    shapes whose Gram matrix spans several tiles."""
    n = draw(st.integers(2, 60))
    m = draw(st.sampled_from([1, 7, 60, 170, 874, 1001]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.normal(0.0, draw(st.sampled_from([1e-6, 1.0, 1e8])), (draw(st.integers(1, 4)), m))
    return base[rng.integers(0, len(base), n)]


@settings(max_examples=60, deadline=None)
@given(repeated_rows() | blocks())
@example(np.tile(np.linspace(-1.0, 1.0, 874), (50, 1)))
def test_identical_rows_are_exactly_0_apart(x):
    # the Gram matrix can give one row's dot products other bits in another
    # place of a tile, or another tile; a pair this near takes a - b
    d = build_distance_matrix(x, "weights")
    same = (x[:, None] == x[None]).all(axis=2)
    assert not d[same].any()
    assert d[~same].all()


@settings(max_examples=60, deadline=None)
@given(blocks(), st.sampled_from(["weights", "gradients"]))
def test_agglomerate_of_the_distance_matrix_gives_the_pair_loops_merges(x, metric):
    want = pairwise_distance_matrix(x, metric)
    upper = want[np.triu_indices(len(x), 1)]
    if len(np.unique(upper)) < len(upper):  # ties, which a last bit may break
        return
    got = agglomerate(build_distance_matrix(x, metric)).merges
    pair_loop = agglomerate(want).merges
    assert [(m.left, m.right, m.new_id, m.size) for m in got] == [(m.left, m.right, m.new_id, m.size) for m in pair_loop]
    heights = np.array([m.height for m in got]), np.array([m.height for m in pair_loop])
    bound = pair_loop_bound(x, metric)
    error = np.abs(heights[0] - heights[1])
    assert np.all(error <= bound * heights[1] if metric == "weights" else error <= bound)


# shapes whose whole product X X^T has more than `_TILE` multiply-adds
THREADED_SHAPES = [(120, 170), (333, 1001), (1000, 874)]


def distance_digest() -> str:
    """The SHA-256 of the distance matrices of both metrics at
    `THREADED_SHAPES`, on fixed random blocks."""
    rng = np.random.default_rng(31)
    blocks = [rng.normal(0.0, 0.1, shape) for shape in THREADED_SHAPES]
    matrices = [build_distance_matrix(x, metric) for x in blocks for metric in ("weights", "gradients")]
    return hashlib.sha256(b"".join(d.tobytes() for d in matrices)).hexdigest()


def test_the_distance_matrix_has_the_same_bits_on_one_blas_thread():
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", "import test_clustering; print(test_clustering.distance_digest())"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.stdout.strip() == distance_digest()


# ---------------------------------------------------------------- UPGMA


def dist_matrix_from_points(points):
    n = len(points)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = abs(points[i] - points[j])
    return d


def test_agglomerate_1d_fixture():
    # 1-D points {0, 1, 3, 7}: heights 1, 2.5, 17/3
    d = dist_matrix_from_points([0.0, 1.0, 3.0, 7.0])
    dend = agglomerate(d)
    heights = [m.height for m in dend.merges]
    assert heights[0] == pytest.approx(1.0, abs=1e-12)
    assert heights[1] == pytest.approx(2.5, abs=1e-12)
    assert heights[2] == pytest.approx(17.0 / 3.0, abs=1e-12)
    assert (dend.merges[0].left, dend.merges[0].right) == (0, 1)


def test_agglomerate_all_equal_distances_tie_rule():
    n = 6
    d = np.ones((n, n)) - np.eye(n)
    dend = agglomerate(d)
    assert all(m.height == pytest.approx(1.0, abs=1e-12) for m in dend.merges)
    # lowest-index pairs merge first: (0,1), (2,3), (4,5), then internals
    assert (dend.merges[0].left, dend.merges[0].right) == (0, 1)
    assert (dend.merges[1].left, dend.merges[1].right) == (2, 3)
    assert (dend.merges[2].left, dend.merges[2].right) == (4, 5)


def test_agglomerate_matches_brute_force():
    rng = np.random.default_rng(2)
    for trial in range(40):
        n = int(rng.integers(2, 9))
        d = random_distance_matrix(n, rng)
        dend = agglomerate(d)
        ref = brute_force_upgma(d)
        assert len(dend.merges) == len(ref)
        for got, (left, right, height, new_id, size) in zip(dend.merges, ref):
            assert (got.left, got.right, got.new_id, got.size) == (
                left,
                right,
                new_id,
                size,
            )
            assert got.height == pytest.approx(height, abs=1e-12)


def test_agglomerate_heights_non_decreasing():
    rng = np.random.default_rng(3)
    for trial in range(30):
        n = int(rng.integers(2, 12))
        dend = agglomerate(random_distance_matrix(n, rng))
        heights = [m.height for m in dend.merges]
        assert all(a <= b + 1e-12 for a, b in zip(heights, heights[1:]))


def test_agglomerate_member_counts():
    rng = np.random.default_rng(4)
    dend = agglomerate(random_distance_matrix(7, rng))
    sizes = {i: 1 for i in range(7)}
    for m in dend.merges:
        assert m.size == sizes[m.left] + sizes[m.right]
        sizes[m.new_id] = m.size
    assert dend.merges[-1].size == 7


def test_agglomerate_relabel_equivariance():
    rng = np.random.default_rng(5)
    d = random_distance_matrix(6, rng)
    perm = np.array([3, 1, 5, 0, 2, 4])
    dperm = d[np.ix_(perm, perm)]
    base = agglomerate(d)
    permuted = agglomerate(dperm)

    def partition_at(dend, k):
        """Set of frozensets of leaves after the first k merges."""
        members = {i: frozenset([i]) for i in range(dend.n_leaves)}
        active = set(members)
        for m in dend.merges[:k]:
            members[m.new_id] = members[m.left] | members[m.right]
            active -= {m.left, m.right}
            active.add(m.new_id)
        return {members[a] for a in active}

    # relabel the base partition through perm: leaf i of dperm is perm[i] of d
    inv = {int(p): i for i, p in enumerate(perm)}
    for k in range(1, 6):
        base_parts = {
            frozenset(inv[c] for c in part) for part in partition_at(base, k)
        }
        assert base_parts == partition_at(permuted, k)
        assert base.merges[k - 1].height == pytest.approx(
            permuted.merges[k - 1].height, abs=1e-12
        )


def merge_keys(merges):
    """Merges as tuples with the height spelled exactly."""
    return [(m[0], m[1], float(m[2]).hex(), m[3], m[4]) for m in merges]


def symmetric(upper):
    d = np.triu(upper, 1)
    return d + d.T


@st.composite
def distance_matrices(draw):
    kind = draw(st.sampled_from(["float", "ties", "duplicates", "zero"]))
    n = draw(st.integers(2, 40 if kind == "float" else 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "float":
        return symmetric(rng.uniform(0.0, draw(st.sampled_from([1e-3, 1.0, 1e6])), (n, n)))
    if kind == "ties":
        return symmetric(rng.integers(0, 4, (n, n)).astype(np.float64))
    if kind == "duplicates":  # rows from 2-4 distinct vectors: ties recur after merges
        base = rng.integers(-2, 3, (draw(st.integers(2, 4)), 5)).astype(np.float64)
        return build_distance_matrix(base[rng.integers(0, len(base), n)])
    return np.zeros((n, n))


@settings(max_examples=150, deadline=None)
@given(distance_matrices())
def test_agglomerate_equals_the_dict_upgma_exactly(d):
    assert merge_keys(agglomerate(d).merges) == merge_keys(dict_upgma(d))


def test_agglomerate_all_zero_300_clients_equals_the_dict_upgma():
    # the bootstrap's matrix: identical initial models tie every pair at 0
    d = np.zeros((300, 300))
    assert merge_keys(agglomerate(d).merges) == merge_keys(dict_upgma(d))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 300))
@example(2)
@example(300)
def test_tied_dendrogram_is_upgma_on_an_all_zero_matrix(n):
    tied, upgma = tied_dendrogram(n), agglomerate(np.zeros((n, n)))
    assert tied.n_leaves == n
    assert merge_keys(tied.merges) == merge_keys(upgma.merges)
    for k in range(1, 13):
        assert np.array_equal(truncate(tied, k), truncate(upgma, k))


def test_tied_dendrogram_of_one_point_is_one_group_at_every_level():
    tied = tied_dendrogram(1)
    assert tied.merges == [] and tied.root_id == 0
    for k in range(1, 13):
        assert truncate(tied, k).tolist() == [[0]] * k


def test_agglomerate_unique_minimum_then_ties_by_cluster_id():
    d = np.full((5, 5), 4.0)
    np.fill_diagonal(d, 0.0)
    d[1, 2] = d[2, 1] = 1.0
    d[1, 3] = d[3, 1] = d[2, 3] = d[3, 2] = 2.0
    merges = agglomerate(d).merges
    # a unique minimum; then a unique pair whose merged member 5 sits in the
    # lower row; then three pairs tied at 4, where ids (0, 4) win although
    # cluster 6 sits in row 3, above leaf 4's row
    assert merges == [
        Merge(1, 2, 1.0, 5, 2),
        Merge(3, 5, 2.0, 6, 3),
        Merge(0, 4, 4.0, 7, 2),
        Merge(6, 7, 4.0, 8, 5),
    ]
    assert merge_keys(merges) == merge_keys(dict_upgma(d))


def test_agglomerate_rejects_a_matrix_off_symmetric_in_the_sixth_digit():
    d = np.array([[0.0, 1.0], [1.000009, 0.0]])
    with pytest.raises(ValueError, match="must be symmetric"):
        agglomerate(d)


def test_agglomerate_rejects_bad_matrices():
    with pytest.raises(ValueError):
        agglomerate(np.array([[0.0, 1.0], [2.0, 0.0]]))  # asymmetric
    with pytest.raises(ValueError):
        agglomerate(np.array([[1.0]]))  # nonzero diagonal and n < 2
    bad = np.zeros((3, 3))
    bad[0, 1] = bad[1, 0] = np.nan
    with pytest.raises(ValueError):
        agglomerate(bad)


# ---------------------------------------------------------------- truncate


def balanced_4_leaf():
    # {0,1} at 1.0, {2,3} at 1.2, root at 5.0
    return Dendrogram(
        4,
        [Merge(0, 1, 1.0, 4, 2), Merge(2, 3, 1.2, 5, 2), Merge(4, 5, 5.0, 6, 4)],
    )


def test_truncate_balanced_4_k2():
    labels = truncate(balanced_4_leaf(), 2)
    assert labels.dtype == np.intp
    assert labels.tolist() == [[0, 0, 1, 1], [0, 0, 0, 0]]


def test_truncate_k1_single_group():
    assert truncate(balanced_4_leaf(), 1).tolist() == [[0, 0, 0, 0]]


def test_truncate_two_leaves_deep_k():
    d = dist_matrix_from_points([0.0, 1.0])
    labels = truncate(agglomerate(d), 4)
    # eager descent: the root pair splits at level 3; leaves persist downward
    assert labels.tolist() == [[0, 1], [0, 1], [0, 1], [0, 0]]


def test_truncate_partitions_and_nesting():
    rng = np.random.default_rng(6)
    for trial in range(20):
        n = int(rng.integers(2, 15))
        k = int(rng.integers(1, 5))
        labels = truncate(agglomerate(random_distance_matrix(n, rng)), k)
        assert labels.shape == (k, n)
        for row in labels:
            assert set(row.tolist()) == set(range(row.max() + 1))
        for below, above in zip(labels[:-1], labels[1:]):
            # each lower group lies inside exactly one upper group
            assert len(set(zip(below.tolist(), above.tolist()))) == below.max() + 1
        assert not labels[-1].any()
        assert labels[0].max() + 1 <= 2 ** (k - 1)


@st.composite
def dendrograms(draw):
    """Any merge history over n leaves: each step joins two active nodes."""
    n = draw(st.integers(1, 24))
    active = list(range(n))
    merges = []
    for new_id in range(n, 2 * n - 1):
        i = active.pop(draw(st.integers(0, len(active) - 1)))
        j = active.pop(draw(st.integers(0, len(active) - 1)))
        size = (1 if i < n else merges[i - n].size) + (1 if j < n else merges[j - n].size)
        merges.append(Merge(i, j, float(new_id), new_id, size))
        active.append(new_id)
    return Dendrogram(n, merges)


@settings(max_examples=200, deadline=None)
@given(st.one_of(dendrograms(), distance_matrices().map(agglomerate)), st.integers(1, 8))
@example(agglomerate(np.zeros((2, 2))), 5)  # two leaves cut deeper than the tree
@example(agglomerate(np.zeros((9, 9))), 8)  # every pair tied
def test_truncate_gives_nested_partitions_that_build_tree_accepts(dend, k):
    """Arbitrary merge histories, and UPGMA ones (ties included): the label
    array, the tree built on it and the dendrogram text equal the walks."""
    n = dend.n_leaves
    groups = frontier_cut(dend, k)
    labels = truncate(dend, k)
    assert labels.dtype == np.intp and labels.tolist() == labels_of(groups).tolist()
    tree = build_tree(labels, np.repeat(np.arange(n, dtype=float)[:, None], 2, axis=1))
    nodes = node_tree(groups, dict(enumerate(np.zeros((n, 1)))))
    for level in range(1, k + 1):
        assert [m.tolist() for m in members(tree.levels[level - 1].group)] == groups[level]
        group = [[c in clients for clients in groups[level]].index(True) for c in range(n)]
        assert tree.levels[level - 1].group.tolist() == group
    for level in range(2, k + 1):
        below = nodes.levels[level - 1]
        kids = [[below.index(child) for child in node.children] for node in nodes.levels[level]]
        # each level-(level - 1) group's parent, read off the two group rows
        parent = np.empty(len(below), dtype=np.intp)
        parent[tree.levels[level - 2].group] = tree.levels[level - 1].group
        assert [m.tolist() for m in members(parent)] == kids
    assert format_dendrogram(dend) == recursive_format_dendrogram(dend)


def test_format_dendrogram_mentions_all_leaves():
    dend = agglomerate(dist_matrix_from_points([0.0, 1.0, 3.0, 7.0]))
    text = format_dendrogram(dend)
    for leaf in range(4):
        assert f"leaf id={leaf}" in text
    assert "height=" in text and text.startswith("dendrogram leaves=4")
