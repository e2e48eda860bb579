from dataclasses import replace
from types import SimpleNamespace
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from umtk import consensus, hierarchy, triplets

from umtk.component import ultrametric_component
from umtk.consensus import (
    SHAPE_EQUILATERAL,
    SHAPE_ISOSCELES,
    SHAPE_TIE_OTHER,
    consensus_count,
    consensus_dendrogram,
    consensus_table,
    triplet_signature,
)
from umtk.hierarchy import (
    INVERSION_FREE_CRITERIA,
    cophenetic,
    linkage,
    minmax_path_closure,
)
from umtk.matrices import (
    CoordinateMatrix,
    DissimilarityMatrix,
    UltrametricMatrix,
    euclidean_distances,
)
from umtk.transforms import check_ultrametric
from umtk.triplets import triplet_count

from .conftest import random_dissimilarity, random_ultrametric, row_tuples
from .oracles import (
    brute_consensus,
    brute_signature,
    consensus_scan_float,
    consensus_table_scan,
    consensus_ultrametric_two_branch,
)


def ultra3(u01, u02, u12, labels=("x1", "x2", "x3")):
    return UltrametricMatrix(
        np.array([[0.0, u01, u02], [u01, 0.0, u12], [u02, u12, 0.0]]),
        list(labels),
    )


def untied_cophenetic(rng, n, criterion="single"):
    pts = CoordinateMatrix(rng.normal(size=(n, 3)))
    return cophenetic(linkage(euclidean_distances(pts), criterion))


def test_signature_isosceles_frozen():
    sig = triplet_signature(ultra3(1.0, 2.0, 2.0), 0, 1, 2)
    assert sig.shape == SHAPE_ISOSCELES
    assert sig.base == (0, 1)
    assert sig.apex == 2
    assert sig.base_value == 1.0
    assert sig.triplet == (0, 1, 2)


def test_signature_equilateral():
    sig = triplet_signature(ultra3(2.0, 2.0, 2.0), 0, 1, 2)
    assert sig.shape == SHAPE_EQUILATERAL
    assert sig.base is None and sig.apex is None
    assert sig.base_value == 2.0


def test_signature_tie_other():
    sig = triplet_signature(ultra3(1.0, 2.0, 3.0), 0, 1, 2)
    assert sig.shape == SHAPE_TIE_OTHER
    assert sig.base_value == 1.0


def test_signature_from_single_link_cophenetic():
    d = DissimilarityMatrix(
        np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    )
    u = cophenetic(linkage(d, "single"))
    sig = triplet_signature(u, 0, 1, 2)
    assert sig.shape == SHAPE_ISOSCELES
    assert sig.base == (0, 1)
    assert sig.apex == 2
    assert sig.base_value == 1.0


def test_signature_index_order_does_not_matter():
    u = ultra3(1.0, 2.0, 2.0)
    assert triplet_signature(u, 2, 0, 1) == triplet_signature(u, 0, 1, 2)


def test_signature_near_tie_tolerance():
    almost = 2.0 * (1.0 + 1e-12)
    assert triplet_signature(ultra3(1.0, 2.0, almost), 0, 1, 2).shape == SHAPE_ISOSCELES
    clearly_off = 2.0 * (1.0 + 1e-6)
    assert (
        triplet_signature(ultra3(1.0, 2.0, clearly_off), 0, 1, 2).shape
        == SHAPE_TIE_OTHER
    )


def test_signature_rejects_bad_indices():
    u = ultra3(1.0, 2.0, 2.0)
    with pytest.raises(ValueError, match="distinct"):
        triplet_signature(u, 0, 0, 1)
    with pytest.raises(ValueError, match="range"):
        triplet_signature(u, 0, 1, 5)


def test_signature_matches_bruteforce(rng):
    names = {"iso": SHAPE_ISOSCELES, "equi": SHAPE_EQUILATERAL, "other": SHAPE_TIE_OTHER}
    for source in (random_ultrametric(rng, 7), random_dissimilarity(rng, 7)):
        u = UltrametricMatrix(source.values, list(source.labels))
        import itertools

        for i, j, k in itertools.combinations(range(7), 3):
            expected = brute_signature(
                (u.values[i, j], u.values[i, k], u.values[j, k]), 1e-9
            )
            assert triplet_signature(u, i, j, k).shape == names[expected]


def test_self_consensus_untied(rng):
    u = untied_cophenetic(rng, 12)
    report = consensus_count(u, u)
    assert report.total_triplets == triplet_count(12) == 220
    assert report.matched == 220
    assert report.skipped_ties == 0
    assert len(report.matched_set) == 220


def test_consensus_different_apexes_no_match():
    u1 = ultra3(1.0, 2.0, 2.0)  # base {0,1}, apex 2
    u2 = ultra3(3.0, 1.0, 3.0)  # base {0,2}, apex 1
    report = consensus_count(u1, u2)
    assert report.matched == 0
    assert report.skipped_ties == 0  # both isosceles, just different apexes


def test_consensus_equilateral_is_skipped():
    u1 = ultra3(1.0, 2.0, 2.0)
    u2 = ultra3(2.0, 2.0, 2.0)
    report = consensus_count(u1, u2)
    assert report.matched == 0
    assert report.skipped_ties == 1


def test_consensus_matches_bruteforce(rng):
    for _ in range(10):
        u1 = untied_cophenetic(rng, 8, "ward")
        u2relabeled = untied_cophenetic(rng, 8, "single")
        u2 = UltrametricMatrix(u2relabeled.values, list(u1.labels))
        report = consensus_count(u1, u2)
        expected_set, expected_skips = brute_consensus(u1.values, u2.values, 1e-9)
        assert set(row_tuples(*report.matched_set.T)) == expected_set
        assert report.matched == len(expected_set)
        assert report.skipped_ties == expected_skips


def test_consensus_matched_set_sorted(rng):
    u1 = untied_cophenetic(rng, 9, "ward")
    u2 = UltrametricMatrix(untied_cophenetic(rng, 9).values, list(u1.labels))
    triples = row_tuples(*consensus_count(u1, u2).matched_set[:, :3].T)
    assert triples == sorted(triples)


def test_consensus_symmetric_in_arguments(rng):
    u1 = untied_cophenetic(rng, 10, "ward")
    u2 = UltrametricMatrix(untied_cophenetic(rng, 10).values, list(u1.labels))
    a = consensus_count(u1, u2)
    b = consensus_count(u2, u1)
    assert a.matched == b.matched
    assert a.skipped_ties == b.skipped_ties
    assert set(row_tuples(*a.matched_set[:, :3].T)) == set(row_tuples(*b.matched_set[:, :3].T))


def test_consensus_scan_streams_the_matched_rows_in_windows(rng, monkeypatch):
    u1 = untied_cophenetic(rng, 12, "ward")
    u2 = UltrametricMatrix(untied_cophenetic(rng, 12).values, list(u1.labels))
    report = consensus_count(u1, u2)
    monkeypatch.setattr(triplets, "DEFAULT_CHUNK", 9)
    original, windows = consensus._matched_rows, []

    def counting(*args):
        windows.append(args[-1].size)
        return original(*args)

    monkeypatch.setattr(consensus, "_matched_rows", counting)
    skipped, ultrametric, rows = consensus.consensus_scan(u1, u2)
    assert skipped == report.skipped_ties
    assert ultrametric == report.ultrametric
    assert windows == []  # the skips and the ultrametric come before any window
    first = next(rows)
    assert windows == [9]
    blocks = [first, *rows]
    assert [b.shape[0] <= 9 for b in blocks] == [True] * -(-triplet_count(12) // 9)
    assert len(windows) == len(blocks)
    np.testing.assert_array_equal(np.concatenate(blocks), report.matched_set)


def test_results_with_array_fields_compare_by_value(rng):
    u1 = untied_cophenetic(rng, 15, "ward")
    u2 = UltrametricMatrix(untied_cophenetic(rng, 15).values, list(u1.labels))
    report = consensus_count(u1, u2)
    assert report.matched > 1
    assert report == consensus_count(u1, u2)
    changed_row = report.matched_set.copy()
    changed_row[-1, 5] = changed_row[-1, 3]
    assert report != replace(report, matched_set=changed_row)
    assert report != replace(report, matched_set=report.matched_set[:-1])
    assert report != replace(report, ultrametric=u1)

    assert u1 == UltrametricMatrix(u1.values.copy(), list(u1.labels))
    assert u1 != UltrametricMatrix(u1.values, list(reversed(u1.labels)))
    assert u1 != DissimilarityMatrix(u1.values, list(u1.labels))

    coords = CoordinateMatrix(rng.normal(size=(10, 3)))
    assert coords == CoordinateMatrix(coords.coords.copy())
    assert coords != CoordinateMatrix(coords.coords[::-1])
    d = euclidean_distances(coords)
    table = consensus_table(d, ["ward", "single"])
    assert table == consensus_table(d, ["ward", "single"])
    assert table != replace(table, counts=table.counts + np.eye(2, dtype=table.counts.dtype))

    violations = check_ultrametric(d)
    assert violations == check_ultrametric(d)
    assert violations != replace(violations, slack=violations.slack * 2.0)

    profile = ultrametric_component(coords)[1]
    assert profile == ultrametric_component(coords)[1]
    assert profile != replace(profile, sorted_diffs=profile.sorted_diffs[1:])


def test_consensus_argument_validation(rng):
    u1 = untied_cophenetic(rng, 5)
    u2 = untied_cophenetic(rng, 6)
    renamed = UltrametricMatrix(u1.values, ["a", "b", "c", "d", "e"])
    with pytest.raises(ValueError, match="^ultrametrics must have matching dimensions"):
        consensus_count(u1, u2)
    with pytest.raises(ValueError, match="^ultrametrics must have matching labels"):
        consensus_count(u1, renamed)


def test_consensus_tiny_n():
    for values in ([[0.0, 1.0], [1.0, 0.0]], [[0.0]]):
        u = UltrametricMatrix(np.array(values))
        report = consensus_count(u, u)
        assert report.total_triplets == 0
        assert report.matched == report.skipped_ties == 0
        assert report.matched_set.shape == (0, 6)
        assert report.matched_set.dtype == np.int64
        assert report.ultrametric == u


def test_consensus_rejects_a_non_ultrametric_input():
    u = ultra3(1.0, 2.0, 2.0)
    for bad in (ultra3(1.0, 2.0, 3.0), ultra3(1.0, 2.0, np.nextafter(2.0, 3.0))):
        for args in ((bad, u), (u, bad)):
            with pytest.raises(ValueError, match="^consensus input is not an ultrametric"):
                consensus_count(*args)
            with pytest.raises(ValueError, match="^consensus input is not an ultrametric"):
                consensus.consensus_scan(*args)


def test_consensus_table_shape_and_diagonal(rng):
    pts = CoordinateMatrix(rng.normal(size=(12, 3)))
    d = euclidean_distances(pts)
    # integer-rounded distances: many tied levels in every hierarchy
    tied = DissimilarityMatrix(np.round(3.0 * d.values), list(d.labels))
    for d, criteria in (
        (d, ["ward", "single", "average"]),
        (tied, list(INVERSION_FREE_CRITERIA)),
    ):
        m = len(criteria)
        table = consensus_table(d, criteria)
        assert table.criteria == criteria
        assert table.counts.shape == (m, m)
        np.testing.assert_array_equal(table.counts, table.counts.T)
        ultrams = [cophenetic(linkage(d, crit)) for crit in criteria]
        assert len(table.ultrametrics) == m
        for got, want in zip(table.ultrametrics, ultrams):
            np.testing.assert_array_equal(got.values, want.values)
            assert got.labels == want.labels
        for p in range(m):
            for q in range(m):
                expected = consensus_count(ultrams[p], ultrams[q]).matched
                assert table.counts[p, q] == expected
        assert np.all(table.counts <= triplet_count(12))


def tied_distances(n, seed, kind, rounding=1):
    """Distances of seeded 3-d points: Gaussian, with duplicated points,
    integer-rounded, an integer-rounded ultrametric (multifurcating), or
    on a grid of tenths (decimal)."""
    gen = np.random.default_rng(seed)
    pts = gen.normal(size=(n, 3))
    if kind == "duplicates":
        copied = gen.random(n) < 0.3
        pts[copied] = pts[gen.integers(0, n, size=n)[copied]]
    d = euclidean_distances(CoordinateMatrix(pts))
    if kind == "multifurcating":
        d = minmax_path_closure(d)
    if kind in ("integer", "multifurcating"):
        return DissimilarityMatrix(np.rint(rounding * d.values))
    if kind == "decimal":
        return DissimilarityMatrix(np.rint(rounding * d.values) * 0.1)
    return DissimilarityMatrix(d.values)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 40),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(("gaussian", "duplicates", "integer", "multifurcating", "decimal")),
    rounding=st.integers(1, 4),
    tol=st.one_of(
        st.sampled_from((0.0, 1e-9, 0.05, 0.3, 0.7)), st.floats(0.0, 1.0, exclude_max=True)
    ),
)
def test_consensus_table_matches_the_triplet_scan(n, seed, kind, rounding, tol):
    d = tied_distances(n, seed, kind, rounding)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = consensus_table(d, list(INVERSION_FREE_CRITERIA), tol)
    np.testing.assert_array_equal(table.counts, consensus_table_scan(table.ultrametrics, tol))


@settings(max_examples=300, deadline=None)
@given(
    a=st.floats(0.0, 1e6),
    b=st.floats(0.0, 1e6),
    ulps=st.integers(0, 4),
    tol=st.floats(0.0, 1.0, exclude_max=True),
)
@example(a=1.05, b=3.5, ulps=1, tol=0.7)
@example(a=6.2, b=15.5, ulps=1, tol=0.6)
def test_tie_test_is_monotone_in_the_upper_level(a, b, ulps, tol):
    h, x = sorted((a, b))
    y = x
    for _ in range(ulps):
        y = np.nextafter(y, np.inf)
    assert consensus._tied(h, x, tol) or not consensus._tied(h, y, tol)


def test_consensus_table_matches_the_scan_at_a_high_tolerance():
    # 1.05 is untied from 3.5 at 0.7, and a tie test on the rounded
    # difference ties it to the next float up, so the scan would skip ab|e
    # while the tree, whose walk stops at 3.5, would count it
    far = np.nextafter(3.5, np.inf)
    d = DissimilarityMatrix(
        np.array(
            [
                [0.0, 1.05, 3.5, far],
                [1.05, 0.0, 3.5, far],
                [3.5, 3.5, 0.0, far],
                [far, far, far, 0.0],
            ]
        )
    )
    table = consensus_table(d, list(INVERSION_FREE_CRITERIA), 0.7)
    np.testing.assert_array_equal(table.counts, consensus_table_scan(table.ultrametrics, 0.7))
    single = table.criteria.index("single")
    assert table.counts[single, single] == 2  # ab|c, ab|e; ace and bce are equilateral


def test_consensus_table_reads_tied_trees_without_the_scan(monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("consensus_table scanned triplets")

    # the oracle scans through triplets.iter_scan, which stays in place
    monkeypatch.setattr(consensus, "iter_scan", no_scan)
    # the decimal input's unfloored average linkage had an inversion
    for kind, seed in [("duplicates", 7), ("integer", 7), ("multifurcating", 7), ("decimal", 160)]:
        d = tied_distances(40, seed, kind)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = consensus_table(d, list(INVERSION_FREE_CRITERIA), 0.05)
        np.testing.assert_array_equal(
            table.counts, consensus_table_scan(table.ultrametrics, 0.05)
        )


def test_consensus_table_rejects_bad_criteria(rng):
    d = random_dissimilarity(rng, 5)
    with pytest.raises(ValueError, match="inversions"):
        consensus_table(d, ["ward", "centroid"])
    with pytest.raises(ValueError, match="distinct"):
        consensus_table(d, ["ward", "ward"])
    with pytest.raises(ValueError, match="at least one"):
        consensus_table(d, [])


def test_consensus_ultrametric_frozen_example():
    u1 = ultra3(1.0, 2.0, 2.0)
    u2 = ultra3(0.5, 3.0, 3.0)
    merged = consensus_count(u1, u2).ultrametric
    np.testing.assert_array_equal(
        merged.values,
        np.array([[0.0, 0.5, 2.0], [0.5, 0.0, 2.0], [2.0, 2.0, 0.0]]),
    )


def test_consensus_ultrametric_identity(rng):
    u = untied_cophenetic(rng, 10)
    merged = consensus_count(u, u).ultrametric
    np.testing.assert_array_equal(merged.values, u.values)


def test_consensus_ultrametric_commutative(rng):
    u1 = untied_cophenetic(rng, 11, "ward")
    u2 = UltrametricMatrix(untied_cophenetic(rng, 11).values, list(u1.labels))
    ab = consensus_count(u1, u2).ultrametric
    ba = consensus_count(u2, u1).ultrametric
    np.testing.assert_array_equal(ab.values, ba.values)


def test_consensus_ultrametric_output_is_valid(rng):
    u1 = untied_cophenetic(rng, 10, "ward")
    u2 = UltrametricMatrix(untied_cophenetic(rng, 10).values, list(u1.labels))
    merged = consensus_count(u1, u2).ultrametric
    as_d = DissimilarityMatrix(merged.values, list(merged.labels))
    assert not check_ultrametric(as_d)
    assert np.all(merged.values <= np.maximum(u1.values, u2.values))


def test_consensus_ultrametric_tiny_n():
    a = UltrametricMatrix(np.array([[0.0, 3.0], [3.0, 0.0]]))
    b = UltrametricMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    merged = consensus_count(a, b).ultrametric
    np.testing.assert_array_equal(merged.values, b.values)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(3, 30),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(("gaussian", "integer", "duplicates", "multifurcating")),
    rounding=st.integers(1, 4),
    tol=st.sampled_from((0.0, 1e-9, 0.1, 0.3)),
)
def test_consensus_ultrametric_matches_two_branch_scan(n, seed, kind, rounding, tol):
    """The tree route gives the float scan's rows, skips and ultrametric, bit for bit."""
    d = tied_distances(n, seed, kind, rounding)
    ultrams = [cophenetic(linkage(d, crit)) for crit in INVERSION_FREE_CRITERIA]
    pairs = [(u1, u2) for u1 in ultrams for u2 in ultrams]
    wanted = [consensus_scan_float(u1, u2, tol) for u1, u2 in pairs]
    for (u1, u2), (_, _, ultrametric) in zip(pairs, wanted):
        assert ultrametric == consensus_ultrametric_two_branch(u1, u2, tol)
    # small windows, so that the matched rows come in several blocks
    original = triplets.triplet_windows
    built = []

    def counting(n):
        count, window = original(n)

        def counted(lo, hi):
            built.append(lo)
            return window(lo, hi)

        return count, counted

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(triplets, "DEFAULT_CHUNK", triplet_count(n) // 7 + 1)
        mp.setattr(triplets, "triplet_windows", counting)
        for (u1, u2), (rows, skipped, ultrametric) in zip(pairs, wanted):
            built.clear()
            got = consensus_count(u1, u2, tol)
            assert got.matched_set.tobytes() == rows.tobytes()
            assert got.skipped_ties == skipped
            assert got.ultrametric.values.tobytes() == ultrametric.values.tobytes()
            assert got.ultrametric.labels == u1.labels
            assert len(built) >= 2 or triplet_count(n) < 2


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 30),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(("gaussian", "duplicates", "integer", "multifurcating")),
    criteria=st.permutations(INVERSION_FREE_CRITERIA).map(lambda c: list(c[:3])),
    tol=st.sampled_from((0.0, 1e-9, 0.3)),
)
def test_pair_scan_on_the_tables_trees_matches_consensus_scan(n, seed, kind, criteria, tol):
    """The criteria's own trees give the skips, ultrametric bytes and rows
    that consensus_scan reads off single-linkage trees it builds anew."""
    table = consensus_table(tied_distances(n, seed, kind), criteria, tol)
    skipped, ultrametric, rows = table.pair_scan()
    want_skipped, want_ultrametric, want_rows = consensus.consensus_scan(*table.ultrametrics[:2],
                                                                           tol)
    assert skipped == want_skipped
    assert ultrametric.values.tobytes() == want_ultrametric.values.tobytes()
    assert ultrametric.labels == want_ultrametric.labels
    empty = np.zeros((0, 6), dtype=np.int64)
    assert np.concatenate([empty, *rows]).tobytes() == np.concatenate([empty, *want_rows]).tobytes()


def test_pair_scan_needs_two_criteria(rng):
    with pytest.raises(ValueError, match="^the pair scan needs two criteria$"):
        consensus_table(random_dissimilarity(rng, 5), ["ward"]).pair_scan()


def test_consensus_ultrametric_joins_a_tied_chain_at_its_lowest_pair():
    # at 0.3, 1.0 ties 1.3 but not 1.5 while 1.3 ties 1.5: the triplet abc is
    # equilateral, so ac and bc are lowered to 1.0, though their top is the root
    v = np.array([[0, 1.0, 1.3, 1.5], [1.0, 0, 1.3, 1.5], [1.3, 1.3, 0, 1.5], [1.5, 1.5, 1.5, 0]])
    u = UltrametricMatrix(v, list("abcd"))
    report = consensus_count(u, u, 0.3)
    assert (report.matched, report.skipped_ties) == (1, 3)  # ab|d; abc, acd, bcd tie
    np.testing.assert_array_equal(report.ultrametric.values[2], [1.0, 1.0, 0.0, 1.3])
    rows, skipped, ultrametric = consensus_scan_float(u, u, 0.3)
    assert report.ultrametric == ultrametric and report.skipped_ties == skipped


def test_consensus_dendrogram_frozen_example():
    u = ultra3(0.5, 2.0, 2.0)
    h = consensus_dendrogram(u)
    assert [(m.left, m.right, m.height, m.size) for m in h.merges] == [
        (0, 1, 0.5, 2),
        (2, 3, 2.0, 3),
    ]


def test_consensus_dendrogram_round_trip(rng):
    u1 = untied_cophenetic(rng, 14, "ward")
    u2 = UltrametricMatrix(untied_cophenetic(rng, 14).values, list(u1.labels))
    merged = consensus_count(u1, u2).ultrametric
    h = consensus_dendrogram(merged)
    np.testing.assert_array_equal(cophenetic(h).values, merged.values)


def test_consensus_dendrogram_two_leaves():
    u = UltrametricMatrix(np.array([[0.0, 1.25], [1.25, 0.0]]), ["a", "b"])
    h = consensus_dendrogram(u)
    assert [(m.left, m.right, m.height) for m in h.merges] == [(0, 1, 1.25)]


def test_consensus_dendrogram_rejects_non_ultrametric():
    bad = ultra3(1.0, 2.0, 3.0)
    with pytest.raises(ValueError, match="not ultrametric") as err:
        consensus_dendrogram(bad)
    assert str(err.value) == (
        "input is not ultrametric within tolerance 3e-09: triple (0, 1, 2) "
        "has slack 1 (1 violating triples in total)"
    )


def test_consensus_dendrogram_skips_the_check_on_a_closed_ultrametric(rng, monkeypatch):
    def no_windows(n):
        raise AssertionError("a triplet window was built")

    monkeypatch.setattr(triplets, "triplet_windows", no_windows)
    for u in (
        minmax_path_closure(random_dissimilarity(rng, 15)),
        cophenetic(linkage(tied_distances(30, 1, "integer"), "ward")),
    ):
        np.testing.assert_array_equal(cophenetic(consensus_dendrogram(u)).values, u.values)
    with pytest.raises(ValueError, match="tolerance must be nonnegative"):
        consensus_dendrogram(u, float("nan"))


def dendrogram_or_message(u, tolerance):
    try:
        h = consensus_dendrogram(u, tolerance)
    except ValueError as exc:
        return str(exc)
    return [tuple(m) for m in h.merges]


# a chain of triples each tied within 1 (slack 1), its ends 2 above their closure
CHAIN = [[0, 10, 11, 12], [10, 0, 10, 11], [11, 10, 0, 10], [12, 11, 10, 0]]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 14),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(("integer", "gaussian")),
    nudged=st.floats(0.0, 1.0),
    steps=st.integers(1, 4),
    tolerance=st.sampled_from((None, 0.0, 1e-9, 0.5, 1.0, 2.0)),
)
def test_consensus_dendrogram_accepts_and_rejects_as_the_scan_does(
    n, seed, kind, nudged, steps, tolerance
):
    """The closure gap route gives the scan's verdict and message."""
    gen = np.random.default_rng(seed)
    values = euclidean_distances(CoordinateMatrix(gen.normal(size=(n, 3)))).values
    if kind == "integer":
        values = np.rint(3 * values)  # tied levels
    u = cophenetic(linkage(DissimilarityMatrix(values), "ward")).values
    # near-ultrametric: some pairs moved by whole steps of the default tolerance,
    # or of 0.5 against a tolerance of 1
    scale = max(1e-9 * float(u.max()), 1e-300) if tolerance != 1.0 else 0.5
    moved = np.triu(gen.random((n, n)) < nudged, 1)
    noise = np.where(moved, gen.integers(-steps, steps + 1, size=(n, n)) * scale, 0.0)
    u = np.maximum(u + noise + noise.T, 0.0)
    np.fill_diagonal(u, 0.0)
    u = UltrametricMatrix(u)
    got = dendrogram_or_message(u, tolerance)

    def never_closed(h):  # every gap infinite: the check always scans
        return SimpleNamespace(values=np.full((h.n_leaves, h.n_leaves), -np.inf))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(consensus, "cophenetic", never_closed)
        assert got == dendrogram_or_message(u, tolerance)


def test_consensus_dendrogram_scans_only_a_gap_above_tolerance(monkeypatch):
    u = UltrametricMatrix(np.array(CHAIN, dtype=float))
    windows = []
    original = triplets.triplet_windows

    def counting(n):
        windows.append(n)
        return original(n)

    monkeypatch.setattr(triplets, "triplet_windows", counting)
    assert isinstance(dendrogram_or_message(u, 2.0), list)  # u is not closed, gap 2
    assert windows == []
    assert isinstance(dendrogram_or_message(u, 1.0), list)  # gap 2, every slack 1
    assert "slack 1 (4 violating triples" in dendrogram_or_message(u, 0.5)
    assert windows == [4, 4]


def test_consensus_dendrogram_builds_one_spanning_tree(rng, monkeypatch):
    u = minmax_path_closure(random_dissimilarity(rng, 12))
    original, sizes = hierarchy._mst, []

    def counting(values):
        sizes.append(values.shape[0])
        return original(values)

    monkeypatch.setattr(hierarchy, "_mst", counting)
    np.testing.assert_array_equal(cophenetic(consensus_dendrogram(u)).values, u.values)
    assert sizes == [12]


def test_consensus_dendrogram_rejects_nan_tolerance():
    with pytest.raises(ValueError, match="tolerance must be nonnegative"):
        consensus_dendrogram(ultra3(1.0, 2.0, 3.0), float("nan"))


BAD_TIE_TOLERANCES = [float("nan"), -1.0, -1e-12, 1.0, float("inf")]


@pytest.mark.parametrize("tol", BAD_TIE_TOLERANCES)
def test_triplet_signature_rejects_bad_tie_tolerance(tol):
    with pytest.raises(ValueError, match="tie_tolerance"):
        triplet_signature(ultra3(1.0, 2.0, 2.0), 0, 1, 2, tie_tolerance=tol)


@pytest.mark.parametrize("tol", BAD_TIE_TOLERANCES)
def test_consensus_count_rejects_bad_tie_tolerance(tol):
    u = ultra3(1.0, 2.0, 2.0)
    with pytest.raises(ValueError, match="tie_tolerance"):
        consensus_count(u, u, tie_tolerance=tol)


@pytest.mark.parametrize("tol", BAD_TIE_TOLERANCES)
def test_consensus_table_rejects_bad_tie_tolerance_before_linkage(rng, monkeypatch, tol):
    def no_linkage(*args):
        raise AssertionError("linkage ran before the tie_tolerance check")

    monkeypatch.setattr(consensus, "linkage", no_linkage)
    with pytest.raises(ValueError, match="tie_tolerance"):
        consensus_table(random_dissimilarity(rng, 6), ["ward", "single"], tol)


def test_tie_tolerance_accepts_zero_and_just_below_one(rng):
    d = euclidean_distances(CoordinateMatrix(rng.normal(size=(12, 3))))
    criteria = ["ward", "single"]
    exact = consensus_table(d, criteria, 0.0).counts
    np.testing.assert_array_equal(exact, consensus_table(d, criteria).counts)
    consensus_table(d, criteria, float(np.nextafter(1.0, 0.0)))


def test_consensus_dendrogram_fixed_point_closure(rng):
    u = random_ultrametric(rng, 9)
    as_u = UltrametricMatrix(u.values, list(u.labels))
    h = consensus_dendrogram(as_u)
    np.testing.assert_array_equal(cophenetic(h).values, u.values)
    np.testing.assert_array_equal(
        minmax_path_closure(u).values, u.values
    )
