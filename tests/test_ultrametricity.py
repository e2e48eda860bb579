import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import rankdata

from umtk.matrices import CoordinateMatrix, DissimilarityMatrix
from umtk.triplets import triplet_count
from umtk.ultrametricity import (
    ANGLE_SLACK,
    DEFAULT_EPSILON,
    TripletGeometry,
    alpha_epsilon,
    classify_triplet,
    coefficient_scan,
    lerman_h,
    rammal_index,
    scan_triplet_verdicts,
    treves_hartmann_points,
    triplet_geometry,
    _angles_from_sides,
    _average_ranks,
)

from .conftest import random_dissimilarity, random_ultrametric
from .oracles import average_ranks_unique, brute_alpha, brute_classify

EQUILATERAL = CoordinateMatrix(
    np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
)
RIGHT_ISO = CoordinateMatrix(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
COLLINEAR = CoordinateMatrix(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))


def three_values(a, b, c):
    return DissimilarityMatrix(
        np.array([[0.0, a, b], [a, 0.0, c], [b, c, 0.0]])
    )


def test_geometry_equilateral():
    g = triplet_geometry(EQUILATERAL, 0, 1, 2)
    assert not g.degenerate
    np.testing.assert_allclose(g.angles, [math.pi / 3] * 3, rtol=1e-12)
    np.testing.assert_allclose(sum(g.angles), math.pi, atol=1e-9)


def test_geometry_collinear_degenerate():
    g = triplet_geometry(COLLINEAR, 0, 1, 2)
    assert g.degenerate
    assert g.angles is None


def test_geometry_coincident_degenerate():
    pts = CoordinateMatrix(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]]))
    assert triplet_geometry(pts, 0, 1, 2).degenerate


def test_geometry_right_isosceles():
    g = triplet_geometry(RIGHT_ISO, 0, 1, 2)
    np.testing.assert_allclose(
        g.angles, [math.pi / 2, math.pi / 4, math.pi / 4], rtol=1e-12
    )


def test_geometry_sides_opposite_vertices():
    g = triplet_geometry(RIGHT_ISO, 0, 1, 2)
    # side opposite the right angle at vertex 0 is the hypotenuse
    np.testing.assert_allclose(g.sides[0], math.sqrt(2.0), rtol=1e-15)
    assert g.sides[1] == 1.0 and g.sides[2] == 1.0


def test_geometry_rejects_bad_indices():
    with pytest.raises(ValueError, match="distinct"):
        triplet_geometry(EQUILATERAL, 0, 0, 1)
    with pytest.raises(ValueError, match="out of range"):
        triplet_geometry(EQUILATERAL, 0, 1, 3)


def test_geometry_angle_sum_random(rng):
    pts = CoordinateMatrix(rng.normal(size=(6, 3)))
    g = triplet_geometry(pts, 1, 3, 5)
    np.testing.assert_allclose(sum(g.angles), math.pi, atol=1e-9)


@st.composite
def triangle_sides(draw):
    """Side triples at scales 1e-9..1e9: generic, near-equilateral, near-flat."""
    scale = 10.0 ** draw(st.floats(-9.0, 9.0))
    kind = draw(st.sampled_from(("generic", "near-equilateral", "near-flat")))
    if kind == "near-equilateral":
        sides = [1.0 + draw(st.floats(-1e-6, 1e-6)) for _ in range(3)]
    elif kind == "near-flat":
        y = draw(st.floats(1e-3, 1.0))
        sides = [1.0, y, (1.0 + y) * (1.0 - draw(st.floats(0.0, 1e-6)))]
    else:
        x, y = draw(st.floats(1e-3, 1.0)), draw(st.floats(1e-3, 1.0))
        lo, hi = abs(x - y), x + y
        sides = [x, y, lo + (hi - lo) * draw(st.floats(0.0, 1.0))]
    return [s * scale for s in draw(st.permutations(sides))]


@settings(max_examples=500, deadline=None)
@given(triangle_sides())
def test_smallest_angle_of_nondegenerate_triangle_at_most_60_degrees(sides):
    # the vectorized classifier relies on this instead of testing the apex angle
    *angles, degenerate = _angles_from_sides(*(np.array([s]) for s in sides))
    if not degenerate[0]:
        assert min(float(a[0]) for a in angles) <= math.pi / 3 + ANGLE_SLACK


def test_classify_equilateral():
    v = classify_triplet(triplet_geometry(EQUILATERAL, 0, 1, 2))
    assert v.ultrametric
    assert v.base_angle_diff == pytest.approx(0.0, abs=1e-12)
    assert v.apex == 0  # tie on angles -> lowest vertex id
    assert v.base == (1, 2)


def test_classify_right_isosceles_not_ultrametric():
    v = classify_triplet(triplet_geometry(RIGHT_ISO, 0, 1, 2))
    assert not v.ultrametric
    assert v.base_angle_diff == pytest.approx(math.pi / 4, rel=1e-12)


def test_classify_small_base_isosceles():
    pts = CoordinateMatrix(np.array([[0.0, 0.0], [0.1, 0.0], [0.05, 1.0]]))
    v = classify_triplet(triplet_geometry(pts, 0, 1, 2), epsilon=DEFAULT_EPSILON)
    assert v.ultrametric
    assert v.apex == 2
    assert v.base == (0, 1)
    assert v.base_angle_diff == pytest.approx(0.0, abs=1e-12)


def test_classify_hand_built_angles_above_60_degrees():
    # equal angles of 66 degrees are no triangle; the apex bound rejects them
    wide = math.radians(66.0)
    g = TripletGeometry(0, 1, 2, (1.0, 1.0, 1.0), (wide, wide, wide), False)
    v = classify_triplet(g)
    assert v.apex == 0 and v.base_angle_diff == 0.0
    assert not v.ultrametric


def test_classify_rejects_degenerate_and_bad_epsilon():
    g = triplet_geometry(COLLINEAR, 0, 1, 2)
    with pytest.raises(ValueError, match="degenerate"):
        classify_triplet(g)
    with pytest.raises(ValueError, match="epsilon"):
        classify_triplet(triplet_geometry(EQUILATERAL, 0, 1, 2), epsilon=0.0)


@pytest.mark.parametrize("entry", ["alpha_epsilon", "scan_triplet_verdicts", "classify_triplet"])
def test_nan_epsilon_is_rejected(entry):
    calls = {
        "alpha_epsilon": lambda: alpha_epsilon(RIGHT_ISO, epsilon=math.nan),
        "scan_triplet_verdicts": lambda: scan_triplet_verdicts(RIGHT_ISO, epsilon=math.nan),
        "classify_triplet": lambda: classify_triplet(
            triplet_geometry(RIGHT_ISO, 0, 1, 2), epsilon=math.nan
        ),
    }
    with pytest.raises(ValueError, match="epsilon must be positive"):
        calls[entry]()


def test_classify_matches_bruteforce(rng):
    pts = rng.normal(size=(8, 2))
    coords = CoordinateMatrix(pts)
    for (i, j, k) in [(0, 1, 2), (2, 5, 7), (1, 4, 6), (0, 3, 7)]:
        expected = brute_classify(pts, i, j, k, DEFAULT_EPSILON)
        g = triplet_geometry(coords, i, j, k)
        if expected is None:
            assert g.degenerate
            continue
        v = classify_triplet(g)
        apex, diff, ultra = expected
        assert v.apex == apex
        assert v.base_angle_diff == pytest.approx(diff, abs=1e-12)
        assert v.ultrametric == ultra


def test_alpha_equilateral_is_one():
    report = alpha_epsilon(EQUILATERAL)
    assert report.alpha == 1.0
    assert report.counted == 1
    assert report.excluded_degenerate == 0
    assert not report.sampled
    assert report.seed is None


def test_alpha_examines_all_triplets(rng):
    coords = CoordinateMatrix(rng.normal(size=(30, 3)))
    report = alpha_epsilon(coords)
    assert report.counted + report.excluded_degenerate == 4060


def test_alpha_thin_rectangle_matches_bruteforce():
    pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 1.0], [10.0, 1.0]])
    report = alpha_epsilon(CoordinateMatrix(pts))
    expected_alpha, counted, degen = brute_alpha(pts, DEFAULT_EPSILON)
    assert report.counted == counted
    assert report.excluded_degenerate == degen
    assert report.alpha == pytest.approx(expected_alpha, rel=1e-15)


def test_alpha_matches_bruteforce_random(rng):
    pts = rng.normal(size=(10, 2))
    report = alpha_epsilon(CoordinateMatrix(pts), epsilon=0.3)
    expected_alpha, counted, _ = brute_alpha(pts, 0.3)
    assert report.counted == counted
    assert report.alpha == pytest.approx(expected_alpha, rel=1e-15)


def test_alpha_monotone_in_epsilon(rng):
    coords = CoordinateMatrix(rng.normal(size=(15, 2)))
    alphas = [
        alpha_epsilon(coords, epsilon=e).alpha
        for e in (0.005, 0.02, 0.1, 0.5, 1.0)
    ]
    assert alphas == sorted(alphas)


def test_alpha_similarity_invariance(rng):
    pts = rng.normal(size=(12, 3))
    theta = 0.7
    rot = np.array(
        [
            [math.cos(theta), -math.sin(theta), 0.0],
            [math.sin(theta), math.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    moved = 2.0 * (pts @ rot.T) + np.array([3.25, -1.5, 0.125])
    before = alpha_epsilon(CoordinateMatrix(pts))
    after = alpha_epsilon(CoordinateMatrix(moved))
    assert before.counted == after.counted
    assert before.excluded_degenerate == after.excluded_degenerate
    assert before.alpha == after.alpha


def test_alpha_sampling_determinism(rng):
    coords = CoordinateMatrix(rng.normal(size=(25, 2)))
    a = alpha_epsilon(coords, sample=500, seed=99)
    b = alpha_epsilon(coords, sample=500, seed=99)
    assert a == b
    assert a.sampled and a.seed == 99
    assert a.counted + a.excluded_degenerate == 500


def test_alpha_errors(rng):
    with pytest.raises(ValueError, match="three points"):
        alpha_epsilon(CoordinateMatrix(np.zeros((2, 2))))
    with pytest.raises(ValueError, match="epsilon"):
        alpha_epsilon(EQUILATERAL, epsilon=-0.1)
    with pytest.raises(ValueError, match="seed"):
        alpha_epsilon(EQUILATERAL, sample=10)
    with pytest.raises(ValueError, match="degenerate"):
        alpha_epsilon(COLLINEAR)


def test_coefficient_scan_options_are_keyword_only(rng):
    # a fifth positional argument would otherwise silently set lerman
    with pytest.raises(TypeError):
        coefficient_scan(random_dissimilarity(rng, 5), None, None, None, 2)


def test_scan_verdicts_agree_with_alpha(rng):
    pts = np.vstack([rng.normal(size=(6, 2)), [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]])
    coords = CoordinateMatrix(pts)
    ii, jj, kk, apex, diff, ultra = scan_triplet_verdicts(coords, epsilon=0.2)
    assert ii.shape == (triplet_count(coords.n),)
    assert np.array_equal(np.ma.getmaskarray(apex), np.ma.getmaskarray(diff))
    report = alpha_epsilon(coords, epsilon=0.2)
    assert int(np.ma.getmaskarray(apex).sum()) == report.excluded_degenerate
    assert int(ultra.sum()) == round(report.alpha * report.counted)
    assert not np.any(ultra & np.ma.getmaskarray(apex))


def test_scan_verdicts_reject_nonpositive_epsilon():
    for epsilon in (0.0, -1.0):
        with pytest.raises(ValueError, match="epsilon"):
            scan_triplet_verdicts(EQUILATERAL, epsilon=epsilon)
    with pytest.raises(ValueError, match="three points"):
        scan_triplet_verdicts(CoordinateMatrix(np.zeros((2, 2))))


@st.composite
def integer_triangles(draw):
    """Three points on a small 3-d integer grid, with exact ties on purpose."""
    kind = draw(st.sampled_from(("generic", "equilateral", "isosceles")))
    if kind == "equilateral":
        s = draw(st.integers(1, 5))
        pts = [[s, 0, 0], [0, s, 0], [0, 0, s]]
    elif kind == "isosceles":
        h = draw(st.integers(1, 12))
        w = draw(st.integers(1, 12))
        pts = [[-w, 0, 0], [w, 0, 0], [0, h, 0]]
    else:
        coord = st.integers(-6, 6)
        pts = [[draw(coord) for _ in range(3)] for _ in range(3)]
    shift = [draw(st.integers(-5, 5)) for _ in range(3)]
    pts = [[a + b for a, b in zip(p, shift)] for p in draw(st.permutations(pts))]
    return np.array(pts, dtype=float)


@settings(max_examples=300, deadline=None)
@given(integer_triangles())
def test_classify_matches_scan_in_every_index_order(pts):
    coords = CoordinateMatrix(pts)
    ii, jj, kk, apex, diff, ultra = scan_triplet_verdicts(coords, DEFAULT_EPSILON)
    if np.ma.getmaskarray(apex)[0]:
        assert triplet_geometry(coords, 0, 1, 2).degenerate
        return
    for perm in itertools.permutations(range(3)):
        v = classify_triplet(triplet_geometry(coords, *perm))
        assert v.apex == int(apex[0])
        assert v.base == tuple(sorted({0, 1, 2} - {v.apex}))
        assert v.base_angle_diff == float(diff[0])
        if min(v.geometry.angles) <= math.pi / 3:
            assert v.ultrametric == bool(ultra[0])


@st.composite
def float_clouds(draw):
    """Three to six points with float coordinates in 2 to 5 dimensions.

    Often the last point is put on the perpendicular bisector of the first
    two, so the triangle it closes with them is isosceles up to rounding:
    its two long sides differ by an ulp or two, and so do its base angles.
    """
    dim = draw(st.integers(2, 5))
    coord = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
    pts = np.array([[draw(coord) for _ in range(dim)] for _ in range(draw(st.integers(3, 6)))])
    axis = pts[1] - pts[0]
    if draw(st.booleans()) and axis @ axis > 0:
        offset = pts[-1] - pts[-1] @ axis / (axis @ axis) * axis
        pts[-1] = (pts[0] + pts[1]) / 2 + draw(st.floats(0.01, 100.0)) * offset
    return pts


@settings(max_examples=200, deadline=None)
@given(float_clouds())
def test_classify_matches_scan_bit_for_bit_on_float_coordinates(pts):
    coords = CoordinateMatrix(pts)
    rows = zip(*scan_triplet_verdicts(coords, DEFAULT_EPSILON))
    for i, j, k, apex, diff, ultra in rows:
        if apex is np.ma.masked:
            assert triplet_geometry(coords, i, j, k).degenerate
            continue
        for perm in itertools.permutations((int(i), int(j), int(k))):
            v = classify_triplet(triplet_geometry(coords, *perm))
            assert (v.apex, v.base_angle_diff, v.ultrametric) == (int(apex), float(diff), ultra)


def test_rammal_frozen_values(rng):
    assert rammal_index(three_values(1.0, 2.0, 3.0)) == 1.0 / 6.0
    assert rammal_index(random_ultrametric(rng, 10)) == 0.0


def test_rammal_fixed_point(rng):
    from umtk.hierarchy import minmax_path_closure

    d = random_dissimilarity(rng, 15)
    value = rammal_index(d)
    assert 0.0 <= value <= 1.0
    closed = minmax_path_closure(d)
    again = rammal_index(DissimilarityMatrix(closed.values, list(closed.labels)))
    assert again == 0.0


def test_rammal_scale_invariance(rng):
    d = random_dissimilarity(rng, 12)
    base = rammal_index(d)
    doubled = rammal_index(DissimilarityMatrix(d.values * 2.0, list(d.labels)))
    assert doubled == base
    scaled = rammal_index(DissimilarityMatrix(d.values * 3.7, list(d.labels)))
    assert scaled == pytest.approx(base, rel=1e-12)


def test_rammal_rejects_all_zero():
    with pytest.raises(ValueError, match="zero"):
        rammal_index(DissimilarityMatrix(np.zeros((4, 4))))


def test_lerman_frozen_triple():
    assert lerman_h(three_values(1.0, 2.0, 3.0)) == 0.5


def test_lerman_zero_on_ultrametric(rng):
    assert lerman_h(random_ultrametric(rng, 12)) == 0.0


def test_lerman_positive_on_random(rng):
    assert lerman_h(random_dissimilarity(rng, 30)) > 0.0


def test_lerman_rank_invariance(rng):
    # depends only on the ordering of pair values
    d = random_dissimilarity(rng, 10)
    transformed = DissimilarityMatrix(d.values ** 3 + np.where(
        np.eye(10, dtype=bool), 0.0, 1.0
    ), list(d.labels))
    assert lerman_h(transformed) == lerman_h(d)


def test_lerman_matches_manual_computation(rng):
    d = random_dissimilarity(rng, 7)
    cond = d.condensed()
    order = np.argsort(np.argsort(cond))
    ranks = order + 1.0  # untied values: plain 1-based ranks
    n = d.n
    rank_mat = np.zeros((n, n))
    rank_mat[np.triu_indices(n, k=1)] = ranks
    rank_mat += rank_mat.T
    total = 0.0
    count = 0
    import itertools

    for i, j, k in itertools.combinations(range(n), 3):
        vals = sorted([rank_mat[i, j], rank_mat[i, k], rank_mat[j, k]])
        total += vals[2] - vals[1]
        count += 1
    expected = total / (count * (len(cond) - 1))
    assert lerman_h(d) == pytest.approx(expected, rel=1e-15)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(st.integers(0, 4).map(float), max_size=300),
    st.lists(st.sampled_from([0.0, -0.0, 1e-300, 2.5, 1e300]), max_size=60),
    st.lists(st.floats(-1e9, 1e9), max_size=300, unique=True),
    st.lists(st.floats(0.0, 1e9), max_size=300),
))
def test_average_ranks_bits_match_scipy(values):
    values = np.array(values, dtype=np.float64)
    expected = rankdata(values, method="average")
    got = _average_ranks(values)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(st.sampled_from([0.0, -0.0, 1.0, 2.5]), max_size=200),
    st.lists(st.integers(-3, 3).map(float), max_size=300),
    st.lists(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -np.inf, np.inf]),
             max_size=60),
    st.lists(st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0]), max_size=200),
))
def test_average_ranks_bits_match_the_unique_form(values):
    # one argsort, with -0.0 and 0.0 in one tie run as np.unique puts them
    values = np.array(values, dtype=np.float64)
    assert _average_ranks(values).tobytes() == average_ranks_unique(values).tobytes()


def test_lerman_needs_three_items():
    with pytest.raises(ValueError):
        lerman_h(DissimilarityMatrix(np.zeros((2, 2))))


def test_treves_hartmann_frozen_triples():
    result = treves_hartmann_points(three_values(1.0, 1.0, 1.0))
    np.testing.assert_array_equal(result.points, [[1.0, 1.0, 0.0]])
    assert result.skipped_zero_max == 0

    result = treves_hartmann_points(three_values(1.0, 2.0, 3.0))
    np.testing.assert_allclose(result.points, [[1.0 / 3.0, 2.0 / 3.0, 1.0]])

    result = treves_hartmann_points(three_values(1.0, 2.0, 2.0))
    np.testing.assert_array_equal(result.points, [[0.5, 1.0, 0.0]])


def test_treves_hartmann_skips_zero_max():
    vals = np.zeros((4, 4))
    vals[:3, 3] = vals[3, :3] = 1.0
    result = treves_hartmann_points(DissimilarityMatrix(vals))
    assert result.skipped_zero_max == 1
    assert result.points.shape == (3, 3)
    np.testing.assert_array_equal(result.points, [[0.0, 1.0, 0.0]] * 3)


def test_treves_hartmann_sampled_determinism(rng):
    d = random_dissimilarity(rng, 20)
    a = treves_hartmann_points(d, sample=50, seed=4)
    b = treves_hartmann_points(d, sample=50, seed=4)
    assert a == b
    assert a.points.shape == (50, 3)
    assert a != treves_hartmann_points(d, sample=50, seed=5)


def test_treves_hartmann_results_compare_by_value():
    d = random_dissimilarity(np.random.default_rng(0), 6)
    a, b = treves_hartmann_points(d), treves_hartmann_points(d)
    assert a.points.shape[0] > 1
    assert a == b
    assert not a != b
    assert a != type(a)(a.points + 1.0, a.skipped_zero_max)
    assert a != type(a)(a.points, a.skipped_zero_max + 1)
    assert a != (a.points, a.skipped_zero_max)
