import numpy as np
import pytest
import scipy.cluster.hierarchy as sch
from hypothesis import given, settings, strategies as st

from umtk import hierarchy
from umtk.hierarchy import (
    INVERSION_FREE_CRITERIA,
    LINKAGE_CRITERIA,
    Dendrogram,
    Merge,
    cophenetic,
    cophenetic_correlation,
    detect_inversions,
    export_newick,
    linkage,
    minmax_path_closure,
    mst_kruskal,
)
from umtk.matrices import CoordinateMatrix, DissimilarityMatrix, euclidean_distances
from umtk.transforms import check_ultrametric

from .conftest import decimal_grid, random_dissimilarity, random_ultrametric
from .oracles import (
    closure_bruteforce,
    closure_floyd_warshall,
    join_levels_ix,
    linkage_loop,
    mst_kruskal_loop,
    mst_total_bruteforce,
    parse_newick,
    pearson,
)

THREE = DissimilarityMatrix(
    np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]]),
    ["a", "b", "c"],
)


def merge_tuples(h):
    return [(m.left, m.right, m.height, m.size) for m in h.merges]


def test_single_link_frozen_example():
    h = linkage(THREE, "single")
    assert merge_tuples(h) == [(0, 1, 1.0, 2), (2, 3, 2.0, 3)]


def test_complete_link_frozen_example():
    h = linkage(THREE, "complete")
    assert merge_tuples(h) == [(0, 1, 1.0, 2), (2, 3, 3.0, 3)]


def test_two_leaves_any_criterion():
    d = DissimilarityMatrix(np.array([[0.0, 4.0], [4.0, 0.0]]))
    for crit in LINKAGE_CRITERIA:
        h = linkage(d, crit)
        assert merge_tuples(h) == [(0, 1, 4.0, 2)]


def test_linkage_rejects_bad_input():
    with pytest.raises(ValueError, match="unknown linkage criterion"):
        linkage(THREE, "wpgma")
    with pytest.raises(ValueError, match="at least two"):
        linkage(DissimilarityMatrix(np.zeros((1, 1))), "single")


def test_squared_criteria_reject_distances_whose_squares_overflow():
    big = DissimilarityMatrix(np.array([[0.0, 1e200, 2e200],
                                        [1e200, 0.0, 3e200],
                                        [2e200, 3e200, 0.0]]))
    with np.errstate(all="raise"):  # and no RuntimeWarning on the way
        for criterion in ("ward", "centroid", "median"):
            with pytest.raises(ValueError, match=f"{criterion} linkage squares.*1.34078"):
                linkage(big, criterion)
        assert merge_tuples(linkage(big, "average")) == [(0, 1, 1e200, 2),
                                                         (2, 3, (2e200 + 3e200) / 2, 3)]
    top = 1.3407807929942596e154  # the largest double whose square is finite
    at_limit = DissimilarityMatrix(np.array([[0.0, top], [top, 0.0]]))
    assert merge_tuples(linkage(at_limit, "ward")) == [(0, 1, top, 2)]


def test_linkage_names_the_criterion_when_its_recurrence_overflows():
    # the squares fit, but ward's and centroid's weighted sums of them do not
    d = DissimilarityMatrix(1.3e154 * np.array([[0.0, 1.0, 0.9, 0.8],
                                                [1.0, 0.0, 0.85, 0.95],
                                                [0.9, 0.85, 0.0, 0.82],
                                                [0.8, 0.95, 0.82, 0.0]]))
    with np.errstate(all="raise"):  # and no RuntimeWarning on the way
        for criterion in ("ward", "centroid"):
            with pytest.raises(ValueError, match=f"{criterion} linkage overflows"):
                linkage(d, criterion)
        median = linkage(d, "median")  # halves, so it stays finite
    assert merge_tuples(median) == linkage_loop(d.values, "median")


def test_cophenetic_frozen_examples():
    u_single = cophenetic(linkage(THREE, "single"))
    np.testing.assert_array_equal(
        u_single.values, np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [2.0, 2.0, 0.0]])
    )
    u_complete = cophenetic(linkage(THREE, "complete"))
    np.testing.assert_array_equal(
        u_complete.values, np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 3.0], [3.0, 3.0, 0.0]])
    )


def test_cophenetic_star_ties():
    n = 5
    vals = np.full((n, n), 2.0)
    np.fill_diagonal(vals, 0.0)
    u = cophenetic(linkage(DissimilarityMatrix(vals), "single"))
    off = ~np.eye(n, dtype=bool)
    assert np.all(u.values[off] == 2.0)


def test_tie_break_is_lexicographic():
    # two pairs tie at 1.0; (0,1) must win over (2,3)
    vals = np.array(
        [
            [0.0, 1.0, 5.0, 6.0],
            [1.0, 0.0, 7.0, 8.0],
            [5.0, 7.0, 0.0, 1.0],
            [6.0, 8.0, 1.0, 0.0],
        ]
    )
    h = linkage(DissimilarityMatrix(vals), "single")
    assert h.merges[0].left == 0 and h.merges[0].right == 1
    assert h.merges[1].left == 2 and h.merges[1].right == 3


def test_all_criteria_match_scipy_on_untied_inputs(rng):
    scipy_names = {"mcquitty": "weighted"}
    for trial in range(6):
        pts = rng.normal(size=(rng.integers(6, 16), 3))
        d = euclidean_distances(CoordinateMatrix(pts))
        cond = d.condensed()
        for crit in LINKAGE_CRITERIA:
            ours = cophenetic(linkage(d, crit)).condensed()
            z = sch.linkage(cond, method=scipy_names.get(crit, crit))
            theirs = sch.cophenet(z)
            np.testing.assert_allclose(ours, theirs, rtol=1e-8, atol=1e-10)


def assert_monotone_heights(d):
    for crit in INVERSION_FREE_CRITERIA:
        h = linkage(d, crit)
        assert detect_inversions(h) == [], crit
        heights = [m.height for m in h.merges]
        assert heights == sorted(heights), crit


@st.composite
def decimal_dissimilarities(draw):
    """decimal_grid inputs: 0 to 3 decimals, times 0.1, 0.3 or 1."""
    return decimal_grid(draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 3)),
                        draw(st.sampled_from((0.1, 0.3, 1.0))))


def test_inversion_free_criteria_produce_monotone_heights(rng):
    for _ in range(5):
        assert_monotone_heights(random_dissimilarity(rng, 10))
    # the recurrences once rounded a merge one ulp below its child on these:
    # average on the first (n=10), ward on the second (n=14)
    assert_monotone_heights(decimal_grid(1330, 1, 0.1))
    assert_monotone_heights(decimal_grid(1421, 2, 0.3))


@settings(max_examples=100, deadline=None)
@given(decimal_dissimilarities())
def test_inversion_free_criteria_stay_monotone_on_decimal_grids(d):
    assert_monotone_heights(d)


def test_centroid_inversion_on_equilateral():
    vals = np.full((3, 3), 2.0)
    np.fill_diagonal(vals, 0.0)
    h = linkage(DissimilarityMatrix(vals), "centroid")
    assert h.merges[0].height == 2.0
    np.testing.assert_allclose(h.merges[1].height, np.sqrt(3.0), rtol=1e-12)
    inversions = detect_inversions(h)
    assert len(inversions) == 1
    idx, drop = inversions[0]
    assert idx == 1
    np.testing.assert_allclose(drop, 2.0 - np.sqrt(3.0), rtol=1e-12)


def test_detect_inversions_two_leaves():
    d = DissimilarityMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert detect_inversions(linkage(d, "centroid")) == []


def test_cophenetic_is_ultrametric_for_inversion_free(rng):
    d = random_dissimilarity(rng, 12)
    for crit in INVERSION_FREE_CRITERIA:
        u = cophenetic(linkage(d, crit))
        as_d = DissimilarityMatrix(u.values, list(u.labels))
        assert not check_ultrametric(as_d)


def test_linkage_permutation_equivariance(rng):
    d = random_dissimilarity(rng, 9)
    perm = rng.permutation(9)
    permuted = DissimilarityMatrix(
        d.values[np.ix_(perm, perm)], [d.labels[p] for p in perm]
    )
    u = cophenetic(linkage(d, "average")).values
    u_perm = cophenetic(linkage(permuted, "average")).values
    np.testing.assert_array_equal(u_perm, u[np.ix_(perm, perm)])


def test_mst_frozen_example():
    tree = mst_kruskal(THREE)
    assert tree.edges == [(0, 1, 1.0), (0, 2, 2.0)]
    assert tree.total_weight == 3.0


def test_mst_tie_break_lexicographic():
    vals = np.full((4, 4), 1.0)
    np.fill_diagonal(vals, 0.0)
    tree = mst_kruskal(DissimilarityMatrix(vals))
    assert tree.edges == [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)]


def test_mst_path_graph():
    # distances of points on a line: the path is the unique MST
    xs = np.array([[0.0], [1.0], [3.0], [6.0], [10.0]])
    d = euclidean_distances(CoordinateMatrix(xs))
    tree = mst_kruskal(d)
    assert [(i, j) for i, j, _ in tree.edges] == [(0, 1), (1, 2), (2, 3), (3, 4)]


def test_mst_total_matches_bruteforce(rng):
    for _ in range(5):
        d = random_dissimilarity(rng, 6)
        tree = mst_kruskal(d)
        assert tree.total_weight == pytest.approx(
            mst_total_bruteforce(d.values), rel=1e-12
        )


def test_closure_frozen_example():
    u = minmax_path_closure(THREE)
    np.testing.assert_array_equal(
        u.values, np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [2.0, 2.0, 0.0]])
    )


def test_closure_fixed_point(rng):
    u = random_ultrametric(rng, 10)
    again = minmax_path_closure(u)
    np.testing.assert_array_equal(again.values, u.values)


def test_closure_matches_bruteforce(rng):
    for _ in range(4):
        d = random_dissimilarity(rng, 6)
        np.testing.assert_array_equal(
            minmax_path_closure(d).values, closure_bruteforce(d.values)
        )


def test_closure_equals_single_link_cophenetic(rng):
    d = random_dissimilarity(rng, 20)
    u1 = minmax_path_closure(d).values
    u2 = cophenetic(linkage(d, "single")).values
    np.testing.assert_array_equal(u1, u2)


def test_correlation_frozen_values(rng):
    u = minmax_path_closure(THREE)
    got = cophenetic_correlation(THREE, u)
    np.testing.assert_allclose(got, np.sqrt(3.0) / 2.0, rtol=1e-15)

    ultra = random_ultrametric(rng, 8)
    assert cophenetic_correlation(ultra, minmax_path_closure(ultra)) == 1.0

    affine = DissimilarityMatrix(ultra.values * 3.0 + np.where(
        np.eye(8, dtype=bool), 0.0, 2.0
    ))
    np.testing.assert_allclose(
        cophenetic_correlation(affine, minmax_path_closure(ultra)), 1.0, rtol=1e-12
    )


def test_correlation_matches_manual_pearson(rng):
    d = random_dissimilarity(rng, 9)
    u = cophenetic(linkage(d, "average"))
    got = cophenetic_correlation(d, u)
    assert got == pytest.approx(pearson(d.condensed(), u.condensed()), rel=1e-12)


def test_correlation_errors():
    with pytest.raises(ValueError, match="constant"):
        star = np.full((3, 3), 1.0)
        np.fill_diagonal(star, 0.0)
        d = DissimilarityMatrix(star)
        cophenetic_correlation(d, minmax_path_closure(d))
    with pytest.raises(ValueError, match="dimensions"):
        cophenetic_correlation(THREE, minmax_path_closure(random_dissimilarity(
            np.random.default_rng(0), 4
        )))


def test_newick_frozen_example():
    assert export_newick(linkage(THREE, "single")) == "((a:1,b:1):1,c:2);"


def test_newick_two_leaves():
    d = DissimilarityMatrix(np.array([[0.0, 2.5], [2.5, 0.0]]), ["a", "b"])
    assert export_newick(linkage(d, "single")) == "(a:2.5,b:2.5);"


def test_newick_round_trip(rng):
    d = random_dissimilarity(rng, 11)
    h = linkage(d, "complete")
    records = dict(parse_newick(export_newick(h)))

    members: dict[int, frozenset] = {
        i: frozenset([h.labels[i]]) for i in range(h.n_leaves)
    }
    for step, m in enumerate(h.merges):
        group = members[m.left] | members[m.right]
        members[h.n_leaves + step] = group
        assert records[group] == pytest.approx(m.height, rel=1e-9)


def test_newick_quotes_awkward_labels():
    d = DissimilarityMatrix(
        np.array([[0.0, 1.0], [1.0, 0.0]]), ["has space", "b:c"]
    )
    text = export_newick(linkage(d, "single"))
    assert "'has space'" in text
    assert "'b:c'" in text


def test_newick_quotes_a_cr_as_it_quotes_an_lf():
    d = DissimilarityMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), ["a\rb", "e\nf"])
    assert export_newick(linkage(d, "single")) == "('a\rb':1,'e\nf':1);"


def test_newick_topology_only_on_inversion():
    vals = np.full((3, 3), 2.0)
    np.fill_diagonal(vals, 0.0)
    h = linkage(DissimilarityMatrix(vals, ["a", "b", "c"]), "centroid")
    with pytest.warns(UserWarning, match="topology-only"):
        text = export_newick(h)
    assert text == "((a,b),c);"


def test_dendrogram_validation():
    with pytest.raises(ValueError, match="n-1 merges"):
        Dendrogram(3, [Merge(0, 1, 1.0, 2)], ["a", "b", "c"])
    with pytest.raises(ValueError, match="merged twice"):
        Dendrogram(
            3,
            [Merge(0, 1, 1.0, 2), Merge(1, 3, 2.0, 3)],
            ["a", "b", "c"],
        )
    with pytest.raises(ValueError, match="left < right"):
        Dendrogram(
            3,
            [Merge(1, 0, 1.0, 2), Merge(2, 3, 2.0, 3)],
            ["a", "b", "c"],
        )
    with pytest.raises(ValueError, match="negative height"):
        Dendrogram(
            3,
            [Merge(0, 1, -1.0, 2), Merge(2, 3, 2.0, 3)],
            ["a", "b", "c"],
        )
    for step, bad in [(0, np.nan), (1, np.inf), (0, -np.inf)]:
        merges = [Merge(0, 1, 1.0, 2), Merge(2, 3, 2.0, 3)]
        merges[step] = merges[step]._replace(height=bad)
        with pytest.raises(ValueError, match=f"^merge {step} has non-finite height {bad!r}$"):
            Dendrogram(3, merges, ["a", "b", "c"])
    with pytest.raises(ValueError, match="size"):
        Dendrogram(
            3,
            [Merge(0, 1, 1.0, 2), Merge(2, 3, 2.0, 2)],
            ["a", "b", "c"],
        )


@st.composite
def small_dissimilarities(draw):
    n = draw(st.integers(min_value=3, max_value=7))
    m = n * (n - 1) // 2
    vals = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
            min_size=m,
            max_size=m,
        )
    )
    out = np.zeros((n, n))
    out[np.triu_indices(n, k=1)] = vals
    return DissimilarityMatrix(out + out.T)


@settings(max_examples=50, deadline=None)
@given(small_dissimilarities())
def test_subdominant_triple_equivalence(d):
    closure = minmax_path_closure(d).values
    single = cophenetic(linkage(d, "single")).values
    np.testing.assert_array_equal(closure, single)

    # max edge along the unique MST path, by explicit tree traversal
    tree = mst_kruskal(d)
    neighbors: dict[int, list[tuple[int, float]]] = {i: [] for i in range(d.n)}
    for i, j, w in tree.edges:
        neighbors[i].append((j, w))
        neighbors[j].append((i, w))
    for src in range(d.n):
        reach = {src: 0.0}
        stack = [src]
        while stack:
            v = stack.pop()
            for nb, w in neighbors[v]:
                if nb not in reach:
                    reach[nb] = max(reach[v], w)
                    stack.append(nb)
        for dst in range(d.n):
            assert reach[dst] == closure[src, dst]


@settings(max_examples=50, deadline=None)
@given(small_dissimilarities())
def test_extremal_bounds(d):
    single = cophenetic(linkage(d, "single")).values
    complete = cophenetic(linkage(d, "complete")).values
    assert np.all(single <= d.values)
    assert np.all(complete >= d.values)


@st.composite
def tied_dissimilarities(draw):
    """Integer-valued matrices, n in 0..40, with zeros off the diagonal."""
    n = draw(st.integers(0, 4) | st.integers(5, 40))  # small sizes get their share
    top = draw(st.integers(min_value=0, max_value=6))
    m = n * (n - 1) // 2
    vals = draw(
        st.lists(st.integers(min_value=0, max_value=top), min_size=m, max_size=m)
    )
    out = np.zeros((n, n))
    out[np.triu_indices(n, k=1)] = vals
    return DissimilarityMatrix(out + out.T)


def assert_mst_matches_kruskal_loop(d):
    tree = mst_kruskal(d)
    edges, total = mst_kruskal_loop(d.values)
    assert tree.edges == edges
    assert np.float64(tree.total_weight).tobytes() == np.float64(total).tobytes()


@settings(max_examples=150, deadline=None)
@given(tied_dissimilarities())
def test_mst_matches_kruskal_loop_on_tied_inputs(d):
    if d.n >= 2:
        assert_mst_matches_kruskal_loop(d)


def assert_closure_matches_floyd_warshall(d):
    got = minmax_path_closure(d).values
    want = closure_floyd_warshall(d.values)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(tied_dissimilarities())
def test_closure_matches_floyd_warshall_on_tied_inputs(d):
    assert_closure_matches_floyd_warshall(d)


def clustered_n300(seed):
    """300 clustered 5-d points, 50 of them duplicated, distances rounded."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=20.0, size=(8, 5))
    points = centers[rng.integers(0, 8, size=300)] + rng.normal(size=(300, 5))
    points[250:] = points[:50]  # duplicate points: zero distances off the diagonal
    d = np.rint(euclidean_distances(CoordinateMatrix(points)).values)
    assert np.count_nonzero(d) < d.size - d.shape[0]
    return DissimilarityMatrix(d)


def test_closure_matches_floyd_warshall_on_clustered_n300():
    assert_closure_matches_floyd_warshall(clustered_n300(300))


def test_mst_matches_kruskal_loop_on_clustered_n300():
    assert_mst_matches_kruskal_loop(clustered_n300(302))


def assert_linkage_matches_loop(d):
    for criterion in LINKAGE_CRITERIA:
        got = linkage(d, criterion).merges
        want = linkage_loop(d.values, criterion)
        assert [(m.left, m.right, m.size) for m in got] == [
            (m[0], m[1], m[3]) for m in want
        ], criterion
        got_heights = np.array([m.height for m in got])
        want_heights = np.array([m[2] for m in want])
        assert got_heights.tobytes() == want_heights.tobytes(), criterion


@st.composite
def tie_heavy_dissimilarities(draw):
    """Integer values 0..k (k <= 3), n in 2..60, some items duplicated."""
    n = draw(st.integers(2, 5) | st.integers(6, 60))  # small sizes get their share
    top = draw(st.integers(min_value=0, max_value=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    out = np.triu(rng.integers(0, top + 1, size=(n, n)), 1).astype(float)
    out += out.T
    copies = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                           max_size=3))
    for src, dst in copies:
        if src != dst:  # dst becomes a duplicate of src
            out[dst, :] = out[src, :]
            out[:, dst] = out[:, src]
            out[dst, dst] = out[src, dst] = out[dst, src] = 0.0
    return DissimilarityMatrix(out)


@settings(max_examples=150, deadline=None)
@given(tie_heavy_dissimilarities())
def test_linkage_matches_loop_on_tie_heavy_inputs(d):
    assert_linkage_matches_loop(d)


@settings(max_examples=60, deadline=None)
@given(decimal_dissimilarities())
def test_linkage_matches_loop_on_decimal_grids(d):
    assert_linkage_matches_loop(d)


def test_linkage_matches_loop_on_clustered_n300():
    assert_linkage_matches_loop(clustered_n300(301))


@st.composite
def single_linkage_inputs(draw):
    """Tie-heavy matrices, n = 2 and 3 included: integer distances, duplicate
    points, all-equal values or the cophenetic matrix of a multifurcating
    tree, sometimes with a -0.0 entry; and untied clouds but for one or two
    duplicated points, whose only tied run is at zero."""
    n = draw(st.integers(2, 3) | st.integers(4, 45))
    kind = draw(st.sampled_from(("integer", "duplicates", "all-equal", "multifurcating",
                                 "duplicated pair")))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "all-equal":
        values = np.full((n, n), float(draw(st.integers(0, 3))))
    elif kind in ("duplicates", "duplicated pair"):
        points = gen.normal(size=(n, 3))
        if kind == "duplicates":
            copied = gen.random(n) < 0.4
            points[copied] = points[gen.integers(0, n, size=n)[copied]]
        else:  # point 0 copied to 1, and point 2 or 0 copied to 3 when there is one
            points[1] = points[0]
            points[3:4] = points[min(draw(st.sampled_from((0, 2))), n - 1)]
        values = euclidean_distances(CoordinateMatrix(points)).values
    else:
        values = np.triu(gen.integers(0, draw(st.integers(1, 4)), size=(n, n)), 1).astype(float)
        values += values.T
        if kind == "multifurcating":  # integer levels tie, so nodes have many children
            values = cophenetic(linkage(DissimilarityMatrix(values), "average")).values
    np.fill_diagonal(values, 0.0)
    if draw(st.booleans()):  # one pair at zero: -0.0 above the diagonal, and maybe below
        i, j = sorted(gen.choice(n, size=2, replace=False).tolist())
        values[i, j], values[j, i] = -0.0, draw(st.sampled_from((0.0, -0.0)))
    return DissimilarityMatrix(values)


@settings(max_examples=200, deadline=None)
@given(single_linkage_inputs())
def test_single_linkage_off_the_mst_matches_the_loop(d):
    """The merges of the full-scan loop, and heights that are the tree's weights.

    The loop's level is a numpy min over a matrix, which may return either
    zero of a run holding both, so zero heights match it in value and the
    edges' weights in bits."""
    got = linkage(d, "single").merges
    want = linkage_loop(d.values, "single")
    assert [(m.left, m.right, m.size) for m in got] == [(m[0], m[1], m[3]) for m in want]
    heights = np.array([m.height for m in got])
    np.testing.assert_array_equal(heights, [m[2] for m in want])
    weights = np.array([w for _, _, w in mst_kruskal(d).edges])
    assert heights.tobytes() == weights.tobytes()
    if not np.signbit(d.values).any():
        assert heights.tobytes() == np.array([m[2] for m in want]).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_join_levels_fills_as_the_ix_oracle(n, seed, as_float, forest):
    """The leaf-order block fill equals np.ix_ assignments in leaf order, on
    random merge orders (of every cluster, or of a forest), for int32 node
    ids and for float levels, -0.0 among them."""
    gen = np.random.default_rng(seed)
    owner, joins = np.arange(n), []
    for s in range(int(gen.integers(0, n)) if forest else n - 1):
        a, b = gen.choice(np.unique(owner), size=2, replace=False)
        i, j = gen.choice(np.flatnonzero(owner == a)), gen.choice(np.flatnonzero(owner == b))
        level = float(gen.choice([-0.0, 0.0, gen.normal()])) if as_float else n + s
        joins.append((int(i), int(j), level))
        owner[owner == b] = a
    dtype = float if as_float else np.int32
    got = hierarchy._join_levels(n, iter(joins), dtype)
    want = join_levels_ix(n, joins, dtype)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
