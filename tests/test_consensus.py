from dataclasses import replace
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from umtk import consensus, triplets

from umtk.component import ultrametric_component
from umtk.consensus import (
    DEFAULT_TIE_TOLERANCE,
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
    Dendrogram,
    cophenetic,
    detect_inversions,
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


def test_consensus_parallel_equals_serial(rng):
    u1 = untied_cophenetic(rng, 15, "ward")
    u2 = UltrametricMatrix(untied_cophenetic(rng, 15).values, list(u1.labels))
    serial = consensus_count(u1, u2, workers=1)
    parallel = consensus_count(u1, u2, workers=4)
    assert (serial.total_triplets, serial.matched, serial.skipped_ties) == (
        parallel.total_triplets, parallel.matched, parallel.skipped_ties
    )
    assert np.array_equal(serial.matched_set, parallel.matched_set)


def test_results_with_array_fields_compare_by_value(rng):
    u1 = untied_cophenetic(rng, 15, "ward")
    u2 = UltrametricMatrix(untied_cophenetic(rng, 15).values, list(u1.labels))
    report = consensus_count(u1, u2)
    assert report.matched > 1
    assert report == consensus_count(u1, u2)
    assert consensus_count(u1, u2, workers=2) == consensus_count(u1, u2, workers=1)
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
    u = UltrametricMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    report = consensus_count(u, u)
    assert report.total_triplets == 0
    assert report.matched == 0
    assert report.matched_set.shape == (0, 6)
    assert report.matched_set.dtype == np.int64


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
    integer-rounded, or an integer-rounded ultrametric (multifurcating)."""
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
    return DissimilarityMatrix(d.values)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(3, 40),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(("gaussian", "duplicates", "integer", "multifurcating")),
    rounding=st.integers(1, 4),
    tol=st.one_of(st.sampled_from((0.0, 1e-9, 0.05, 0.3)), st.floats(0.0, 0.3)),
)
def test_consensus_table_matches_the_triplet_scan(n, seed, kind, rounding, tol):
    d = tied_distances(n, seed, kind, rounding)
    table = consensus_table(d, list(INVERSION_FREE_CRITERIA), tol)
    np.testing.assert_array_equal(table.counts, consensus_table_scan(table.ultrametrics, tol))


def test_consensus_table_reads_tied_trees_without_the_scan(monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("consensus_table scanned triplets")

    # the oracle scans through triplets.scan, which stays in place
    monkeypatch.setattr(consensus, "scan", no_scan)
    for kind in ("duplicates", "integer", "multifurcating"):
        d = tied_distances(40, 7, kind)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = consensus_table(d, list(INVERSION_FREE_CRITERIA), 0.05)
        np.testing.assert_array_equal(
            table.counts, consensus_table_scan(table.ultrametrics, 0.05)
        )


def test_consensus_table_falls_back_to_the_scan_on_an_inversion(monkeypatch):
    d = tied_distances(24, 3, "integer")
    n = d.n

    def one_ulp_inversion(d, criterion):
        h = linkage(d, criterion)
        if criterion != "single":
            return h
        merges = list(h.merges)
        # a merge at the height of its internal child drops one ulp below it
        s = next(s for s, m in enumerate(merges)
                 if m.right >= n and m.height == merges[m.right - n].height > 0)
        merges[s] = merges[s]._replace(height=float(np.nextafter(merges[s].height, 0.0)))
        return Dendrogram(n, merges, list(h.labels))

    assert detect_inversions(one_ulp_inversion(d, "single"))
    monkeypatch.setattr(consensus, "linkage", one_ulp_inversion)
    criteria = ["ward", "single", "average"]
    with pytest.warns(UserWarning, match="single") as caught:
        table = consensus_table(d, criteria)
    assert len(caught) == 1
    np.testing.assert_array_equal(
        table.counts, consensus_table_scan(table.ultrametrics, DEFAULT_TIE_TOLERANCE)
    )


def test_consensus_table_falls_back_on_a_non_monotone_tie_test(monkeypatch):
    d = tied_distances(24, 5, "integer")
    tied = consensus._tied
    high = float(np.median(d.values))

    def ties_every_high_level(a, b, tol):
        return tied(a, b, tol) | (np.maximum(a, b) >= high)

    # the scans, the oracle's included, see the same tie test
    monkeypatch.setattr(consensus, "_tied", ties_every_high_level)
    with pytest.warns(UserWarning, match="breaks the tree rule"):
        table = consensus_table(d, ["ward", "average"])
    np.testing.assert_array_equal(
        table.counts, consensus_table_scan(table.ultrametrics, DEFAULT_TIE_TOLERANCE)
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
    kind=st.sampled_from(("gaussian", "integer", "duplicates")),
    rounding=st.integers(1, 4),
)
def test_consensus_ultrametric_matches_two_branch_scan(n, seed, kind, rounding):
    gen = np.random.default_rng(seed)
    pts = gen.normal(size=(n, 3))
    if kind == "duplicates":
        copied = gen.random(n) < 0.3
        pts[copied] = pts[gen.integers(0, n, size=n)[copied]]
    values = euclidean_distances(CoordinateMatrix(pts)).values
    if kind != "gaussian":
        values = np.rint(rounding * values)
    d = DissimilarityMatrix(values)
    ultrams = [cophenetic(linkage(d, crit)) for crit in INVERSION_FREE_CRITERIA]
    pairs = [(u1, u2) for u1 in ultrams for u2 in ultrams]
    wanted = [consensus_ultrametric_two_branch(u1, u2).values.tobytes() for u1, u2 in pairs]
    # small chunks, so that four workers really do lower the shared
    # candidate matrix from several chunks at once
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
        for (u1, u2), want in zip(pairs, wanted):
            for workers in (1, 4):
                built.clear()
                got = consensus_count(u1, u2, workers=workers).ultrametric
                assert got.values.tobytes() == want
                assert got.labels == u1.labels
                assert len(built) >= 2 or triplet_count(n) < 2


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
