import math

import numpy as np
import pytest

from umtk.component import (
    RETAINED_DTYPE,
    EpsilonProfile,
    epsilon_threshold_count,
    ultrametric_component,
)
from umtk.consensus import consensus_count
from umtk.hierarchy import cophenetic, linkage, minmax_path_closure
from umtk.matrices import CoordinateMatrix, DissimilarityMatrix, euclidean_distances
from umtk.spectral import pcoa
from umtk.ultrametricity import DEFAULT_EPSILON

from .conftest import random_dissimilarity, random_points, retained_triplets, row_tuples
from .oracles import brute_angles, brute_component, brute_consensus


def point_cloud(rng, n, dim):
    return CoordinateMatrix(random_points(rng, n, dim))


def stage_one_report(coords, criterion_a="ward", criterion_b="single"):
    d = euclidean_distances(coords)
    u_a = cophenetic(linkage(d, criterion_a))
    u_b = cophenetic(linkage(d, criterion_b))
    return consensus_count(u_a, u_b)


def test_retained_subset_of_matched(rng):
    pts = point_cloud(rng, 12, 3)
    retained, profile = ultrametric_component(pts)
    matched_triples = set(row_tuples(*stage_one_report(pts).matched_set[:, :3].T))
    assert retained_triplets(retained) <= matched_triples
    assert np.all(retained["base_angle_diff"] <= DEFAULT_EPSILON)
    assert len(retained) <= profile.count_at_threshold


def test_matches_bruteforce_two_stage(rng):
    for _ in range(5):
        pts = point_cloud(rng, 10, 3)
        d = euclidean_distances(pts)
        u_a = cophenetic(linkage(d, "ward"))
        u_b = cophenetic(linkage(d, "single"))
        matched, _ = brute_consensus(u_a.values, u_b.values, 1e-9)
        for eps in (0.01, DEFAULT_EPSILON, 0.5):
            retained, profile = ultrametric_component(pts, epsilon=eps)
            expected = brute_component(pts.coords, matched, eps)
            assert retained_triplets(retained) == expected
        nondegenerate = sum(
            1
            for (i, j, k, *_rest) in matched
            if brute_angles(pts.coords[i], pts.coords[j], pts.coords[k]) is not None
        )
        assert len(profile.sorted_diffs) == nondegenerate


def test_profile_is_sorted_and_counts_threshold(rng):
    pts = point_cloud(rng, 14, 2)
    retained, profile = ultrametric_component(pts, epsilon=0.2)
    diffs = profile.sorted_diffs
    assert np.all(np.diff(diffs) >= 0)
    assert profile.threshold == 0.2
    assert profile.count_at_threshold == int(np.sum(diffs <= 0.2))
    # binary-search helper agrees with a linear scan at other thresholds
    for eps in (0.0, 0.01, 0.1, 0.7, float(diffs.max()) if diffs.size else 1.0):
        assert epsilon_threshold_count(profile, eps) == int(np.sum(diffs <= eps))
    if diffs.size:
        assert epsilon_threshold_count(profile, float(diffs.max())) == diffs.size
        assert epsilon_threshold_count(profile, math.pi) == diffs.size


def test_retained_monotone_in_epsilon(rng):
    pts = point_cloud(rng, 12, 3)
    previous: set = set()
    for eps in (0.005, 0.05, 0.2, 1.0):
        retained, _ = ultrametric_component(pts, epsilon=eps)
        current = retained_triplets(retained)
        assert previous <= current
        previous = current


def test_embedded_ultrametric_keeps_every_match(rng):
    # coordinates that realise an exact ultrametric: agreement should be
    # total, so the geometric stage discards nothing
    u = minmax_path_closure(random_dissimilarity(rng, 12))
    pts, _, _ = pcoa(DissimilarityMatrix(u.values, list(u.labels)))
    retained, profile = ultrametric_component(pts)
    report = stage_one_report(pts)
    assert len(retained) == report.matched
    assert profile.count_at_threshold == len(profile.sorted_diffs)


def test_rows_sorted_and_labelled(rng):
    labels = [f"p{i:02d}" for i in range(11)]
    pts = CoordinateMatrix(rng.normal(size=(11, 3)), labels)
    retained, _ = ultrametric_component(pts, epsilon=0.8)
    assert len(retained) > 0
    assert retained.dtype == RETAINED_DTYPE
    keys = [(r["base_angle_diff"], (labels[r["base1"]], labels[r["base2"]]), labels[r["apex"]])
            for r in retained]
    assert keys == sorted(keys)
    for r in retained:
        i, j, k = int(r["i"]), int(r["j"]), int(r["k"])
        assert i < j < k
        assert labels[r["base1"]] < labels[r["base2"]]
        assert {int(r["base1"]), int(r["base2"]), int(r["apex"])} == {i, j, k}


def test_rows_sorted_by_python_label_order(rng):
    # integer grid points give many exactly tied diffs, so the label keys
    # decide, and the labels' order is unrelated to the point ids; each
    # point has a mirror image with the same label, so some rows tie on
    # every key and must keep ascending triplet order
    cells = rng.choice(20, size=8, replace=False)
    half = np.column_stack([cells // 5 + 1, cells % 5]).astype(float)
    names = ["p10", "p2", "B", "a", "é", "Z", "", "ß"]
    labels = names + names
    pts = CoordinateMatrix(np.vstack([half, half * [-1.0, 1.0]]), labels)
    retained, _ = ultrametric_component(pts, epsilon=0.5)
    assert len(retained) > 0
    rows = [(float(r["base_angle_diff"]),
             tuple(sorted([labels[r["base1"]], labels[r["base2"]]])),
             labels[r["apex"]], int(r["i"]), int(r["j"]), int(r["k"]))
            for r in retained]
    # the order a stable Python sort gives on rows taken in triplet order
    expected = sorted(sorted(rows, key=lambda row: row[3:]), key=lambda row: row[:3])
    assert rows == expected
    assert len({row[0] for row in rows}) < len(rows)  # some diffs tie
    assert len({row[:3] for row in rows}) < len(rows)  # some rows tie on every key
    assert all(labels[r["base1"]] <= labels[r["base2"]] for r in retained)


def test_similarity_invariance(rng):
    pts = point_cloud(rng, 10, 3)
    theta = 0.7
    rot = np.array(
        [
            [math.cos(theta), -math.sin(theta), 0.0],
            [math.sin(theta), math.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    moved = CoordinateMatrix(
        2.0 * pts.coords @ rot.T + np.array([3.25, -1.5, 0.125]),
        list(pts.point_labels),
    )
    base, _ = ultrametric_component(pts)
    same, _ = ultrametric_component(moved)
    assert retained_triplets(base) == retained_triplets(same)


def test_default_criteria_are_ward_single(rng):
    pts = point_cloud(rng, 9, 2)
    implicit, _ = ultrametric_component(pts)
    explicit, _ = ultrametric_component(pts, criterion_a="ward", criterion_b="single")
    assert np.array_equal(implicit, explicit)


def test_other_criterion_pairs_accepted(rng):
    pts = point_cloud(rng, 9, 2)
    retained, profile = ultrametric_component(
        pts, criterion_a="average", criterion_b="complete"
    )
    assert profile.count_at_threshold >= len(retained) - 0  # profile covers retained
    assert np.all(retained["base_angle_diff"] <= DEFAULT_EPSILON)


def test_argument_validation(rng):
    tiny = CoordinateMatrix(np.zeros((2, 2)))
    with pytest.raises(ValueError, match="three points"):
        ultrametric_component(tiny)
    pts = point_cloud(rng, 6, 2)
    with pytest.raises(ValueError, match="epsilon"):
        ultrametric_component(pts, epsilon=0.0)
    with pytest.raises(ValueError, match="inversions"):
        ultrametric_component(pts, criterion_a="centroid")


def test_profile_dataclass_fields():
    profile = EpsilonProfile(
        sorted_diffs=np.array([0.01, 0.02, 0.5]),
        threshold=0.1,
        count_at_threshold=2,
    )
    assert epsilon_threshold_count(profile, 0.02) == 2
    assert epsilon_threshold_count(profile, 0.01) == 1
    assert epsilon_threshold_count(profile, 0.005) == 0
