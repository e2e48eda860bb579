import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from umtk import transforms
from umtk.hierarchy import minmax_path_closure
from umtk.matrices import CoordinateMatrix, DissimilarityMatrix, euclidean_distances
from umtk.transforms import (
    REPAIR_TOLERANCE_FACTOR,
    cailliez_additive,
    check_metric,
    check_ultrametric,
    power_shrink,
)
from umtk.triplets import DEFAULT_CHUNK, triplet_count

from .conftest import random_dissimilarity, random_ultrametric, row_tuples
from .oracles import (
    brute_strong_violations,
    brute_triangle_violations,
    power_shrink_full_bisection,
)


def three_point(d12, d13, d23):
    return DissimilarityMatrix(
        np.array([[0.0, d12, d13], [d12, 0.0, 0.0], [d13, 0.0, 0.0]])
        + np.array([[0.0, 0.0, 0.0], [0.0, 0.0, d23], [0.0, d23, 0.0]])
    )


@st.composite
def dissimilarities(draw):
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


@st.composite
def power_inputs(draw):
    """Tie-heavy, near-metric, squared, cubed or zero-holding dissimilarities."""
    n = draw(st.integers(min_value=3, max_value=9))
    kind = draw(st.sampled_from(["integer", "near-metric", "squared", "cubed", "zero"]))
    m = n * (n - 1) // 2
    if kind == "integer":
        out = np.zeros((n, n))
        out[np.triu_indices(n, k=1)] = draw(
            st.lists(st.integers(min_value=1, max_value=4), min_size=m, max_size=m)
        )
        return DissimilarityMatrix(out + out.T)
    coords = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
    points = draw(st.lists(st.tuples(coords, coords), min_size=n, max_size=n))
    values = euclidean_distances(CoordinateMatrix(np.array(points))).values
    if kind == "near-metric":
        noise = np.zeros((n, n))
        noise[np.triu_indices(n, k=1)] = draw(
            st.lists(st.floats(min_value=-1e-9, max_value=1e-9), min_size=m, max_size=m)
        )
        values = values * (1.0 + noise + noise.T)
    elif kind in ("squared", "cubed"):
        values = values ** (2 if kind == "squared" else 3)
    else:
        values[0, 1] = values[1, 0] = 0.0
    return DissimilarityMatrix(values)


def assert_power_matches_full_bisection(d):
    try:
        expected, expected_r = power_shrink_full_bisection(d)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            power_shrink(d)
        return
    out, r = power_shrink(d)
    assert r == expected_r
    assert out.values.tobytes() == expected.values.tobytes()


def test_check_metric_frozen_example():
    report = check_metric(three_point(1.0, 5.0, 1.0))
    assert report.kind == "triangle"
    assert row_tuples(*report.triples.T, report.slack) == [(0, 1, 2, 3.0)]
    assert report.triples.dtype == np.int64 and report.slack.dtype == np.float64
    assert bool(report)


def test_check_metric_empty_on_euclidean(rng):
    pts = CoordinateMatrix(rng.normal(size=(15, 3)))
    assert not check_metric(euclidean_distances(pts))


def test_check_metric_empty_on_ultrametric(rng):
    assert not check_metric(random_ultrametric(rng, 12))


def test_check_ultrametric_frozen_examples():
    assert not check_ultrametric(three_point(1.0, 2.0, 2.0))
    report = check_ultrametric(three_point(1.0, 2.0, 3.0))
    assert report.kind == "strong-triangle"
    assert row_tuples(*report.triples.T, report.slack) == [(0, 1, 2, 1.0)]


def test_check_ultrametric_empty_on_closure(rng):
    assert not check_ultrametric(random_ultrametric(rng, 15))


def test_tolerance_is_strict_threshold():
    d = three_point(1.0, 2.0, 3.0)
    loose = check_ultrametric(d, tolerance=1.0)
    assert loose.triples.shape == (0, 3) and loose.slack.shape == (0,)
    tight = check_ultrametric(d, tolerance=0.999)
    assert row_tuples(*tight.triples.T, tight.slack) == [(0, 1, 2, 1.0)]
    with pytest.raises(ValueError):
        check_metric(d, tolerance=-1e-9)


@pytest.mark.parametrize("check", [check_metric, check_ultrametric])
def test_nan_check_tolerance_is_rejected(check):
    # metric and ultrametric both fail on this triple, so a NaN tolerance must not pass it
    with pytest.raises(ValueError, match="tolerance must be nonnegative"):
        check(three_point(1.0, 2.0, 4.0), tolerance=float("nan"))


def test_violations_match_bruteforce(rng):
    for _ in range(10):
        d = random_dissimilarity(rng, 8)
        got = check_metric(d)
        expected = brute_triangle_violations(d.values, 0.0)
        assert row_tuples(*got.triples.T) == [v[:3] for v in expected]
        np.testing.assert_array_equal(got.slack, [v[3] for v in expected])
        got_u = check_ultrametric(d, tolerance=1e-9)
        expected_u = brute_strong_violations(d.values, 1e-9)
        assert row_tuples(*got_u.triples.T) == [v[:3] for v in expected_u]


def test_violations_listed_once_in_ascending_order(rng):
    d = random_dissimilarity(rng, 9)
    triples = row_tuples(*check_metric(d).triples.T)
    assert triples == sorted(set(triples))
    assert all(i < j < k for i, j, k in triples)


def test_cailliez_frozen_example():
    repaired, c = cailliez_additive(three_point(1.0, 5.0, 1.0))
    assert c == 3.0
    np.testing.assert_array_equal(
        repaired.values, np.array([[0.0, 4.0, 8.0], [4.0, 0.0, 4.0], [8.0, 4.0, 0.0]])
    )
    assert not check_metric(repaired)


def test_cailliez_second_frozen_example():
    _, c = cailliez_additive(three_point(2.0, 9.0, 3.0))
    assert c == 4.0


def test_cailliez_metric_input_unchanged(rng):
    d = euclidean_distances(CoordinateMatrix(rng.normal(size=(10, 3))))
    repaired, c = cailliez_additive(d)
    assert c == 0.0
    np.testing.assert_array_equal(repaired.values, d.values)


def test_cailliez_small_n():
    d = DissimilarityMatrix(np.array([[0.0, 7.0], [7.0, 0.0]]))
    repaired, c = cailliez_additive(d)
    assert c == 0.0
    np.testing.assert_array_equal(repaired.values, d.values)


@settings(max_examples=60, deadline=None)
@given(dissimilarities())
def test_cailliez_output_metric_and_idempotent(d):
    repaired, c = cailliez_additive(d)
    assert c >= 0.0
    assert not check_metric(repaired)
    again, c2 = cailliez_additive(repaired)
    assert c2 == 0.0
    np.testing.assert_array_equal(again.values, repaired.values)


def test_power_metric_input_returns_one(rng):
    d = euclidean_distances(CoordinateMatrix(rng.normal(size=(8, 3))))
    out, r = power_shrink(d)
    assert r == 1.0
    np.testing.assert_array_equal(out.values, d.values)


def test_power_frozen_example():
    out, r = power_shrink(three_point(1.0, 4.0, 1.0))
    # the binding triple solves 4**r = 2 at exactly one half, and the
    # bisection never moves off that endpoint
    assert r == 0.5
    np.testing.assert_array_equal(
        out.values, np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    )


def test_power_frozen_example_after_halving():
    # 8**r = 2 binds at r = 1/3: the halving loop fails at 0.5, and the
    # bisection then tests midpoints above 0.5 before it comes down
    d = three_point(1.0, 8.0, 1.0)
    out, r = power_shrink(d)
    assert r == 0.33333301544189453
    assert power_shrink_full_bisection(d)[1] == r
    assert not check_metric(out, tolerance=REPAIR_TOLERANCE_FACTOR * float(out.values.max()))


@pytest.mark.parametrize("cap", [transforms._CANDIDATE_CAP, 3], ids=["default-cap", "cap-3"])
@settings(max_examples=80, deadline=None)
@given(d=power_inputs())
def test_power_matches_full_bisection(cap, d):
    with mock.patch.object(transforms, "_CANDIDATE_CAP", cap):
        assert_power_matches_full_bisection(d)


def test_power_matches_full_bisection_across_chunks(rng, monkeypatch):
    centres = rng.normal(scale=6.0, size=(8, 5))
    points = centres[np.arange(130) % 8] + rng.normal(size=(130, 5))
    d = DissimilarityMatrix(euclidean_distances(CoordinateMatrix(points)).values ** 2)
    assert triplet_count(d.n) > DEFAULT_CHUNK
    assert_power_matches_full_bisection(d)
    # above the cap the first tests scan every triple
    monkeypatch.setattr(transforms, "_CANDIDATE_CAP", 5)
    floor = -transforms._SETTLED_MARGIN * float(d.values.max())
    assert transforms._worst_metric_slack(d.values, d.n, floor=floor)[1] is None
    assert_power_matches_full_bisection(d)


def test_power_rejects_off_diagonal_zero():
    with pytest.raises(ValueError, match="positive off-diagonal"):
        power_shrink(three_point(0.0, 1.0, 1.0))


def test_power_rejects_bad_tolerance(rng):
    with pytest.raises(ValueError):
        power_shrink(random_dissimilarity(rng, 4), r_tolerance=0.0)


def test_power_rejects_nan_tolerance():
    with pytest.raises(ValueError, match="r_tolerance must be positive"):
        power_shrink(three_point(1.0, 2.0, 4.0), r_tolerance=float("nan"))


@settings(max_examples=40, deadline=None)
@given(dissimilarities())
def test_power_output_certified_metric(d):
    out, r = power_shrink(d)
    assert 0.0 < r <= 1.0
    scale = float(out.values.max())
    assert not check_metric(out, tolerance=1e-12 * scale)
    # the predicate is monotone: half the exponent is also metric
    half = d.values ** (r / 2)
    np.fill_diagonal(half, 0.0)
    halved = DissimilarityMatrix(half)
    assert not check_metric(halved, tolerance=1e-12 * float(half.max()))


@settings(max_examples=40, deadline=None)
@given(dissimilarities())
def test_strong_triangle_implies_triangle(d):
    closed = minmax_path_closure(d)
    as_d = DissimilarityMatrix(closed.values, list(closed.labels))
    assert not check_ultrametric(as_d)
    assert not check_metric(as_d)
