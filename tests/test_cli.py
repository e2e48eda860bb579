import csv
import gc
import os
import re
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import numpy as np
import pytest

from umtk import __version__, cli, consensus, matrixio, triplets
from umtk.cli import main
from umtk.consensus import consensus_count
from umtk.corpus import random_mirror
from umtk.hierarchy import cophenetic, export_newick, linkage
from umtk.matrices import CoordinateMatrix, DissimilarityMatrix, euclidean_distances
from umtk.triplets import triplet_count
from umtk.ultrametricity import (
    DEFAULT_EPSILON,
    alpha_epsilon,
    lerman_h,
    rammal_index,
    scan_triplet_verdicts,
    treves_hartmann_points,
)

from .conftest import decimal_grid, row_tuples
from .oracles import write_rows

ROOT = Path(__file__).resolve().parents[1]


def write_example_distances(path):
    d = DissimilarityMatrix(
        np.array(
            [
                [0.0, 2.0, 6.0, 7.0],
                [2.0, 0.0, 5.0, 8.0],
                [6.0, 5.0, 0.0, 3.0],
                [7.0, 8.0, 3.0, 0.0],
            ]
        ),
        ["a", "b", "c", "d"],
    )
    matrixio.write_dissimilarity(path, d)
    return d


def write_example_coords(path, n=7, seed=5):
    gen = np.random.default_rng(seed)
    coords = CoordinateMatrix(gen.normal(size=(n, 3)))
    matrixio.write_coordinates(path, coords)
    return coords


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines()


def header_lines_of(path):
    """The '#' lines of a written file, with their escapes undone."""
    return [unescape_header(line[2:]) for line in read_lines(path) if line.startswith("# ")]


def awkward_coords(n=14, seed=3):
    """Points with duplicates and collinear triples, labels with , and \"."""
    pts = np.round(np.random.default_rng(seed).normal(size=(n, 3)) * 4, 1)
    pts[3] = pts[2]
    pts[4] = pts[2]
    pts[6] = (pts[0] + pts[1]) / 2
    pts[7] = 2 * pts[1] - pts[0]
    labels = [f"p{i}" for i in range(n)]
    labels[0], labels[1], labels[2] = "a,b", 'say "hi"', 'x",y'
    return CoordinateMatrix(pts, labels)


def test_mirror_runs_and_rerun_is_byte_identical(tmp_path):
    first = tmp_path / "one"
    second = tmp_path / "two"
    assert main(["mirror", "5", "4", "--seed", "11", "--out", str(first)]) == 0
    assert main(["mirror", "5", "4", "--seed", "11", "--out", str(second)]) == 0
    a = (first / "mirror.csv").read_bytes()
    b = (second / "mirror.csv").read_bytes()
    assert a == b
    table = matrixio.read_frequency(first / "mirror.csv")
    np.testing.assert_array_equal(table.values, random_mirror(5, 4, 11).values)


def test_mirror_header_lines(tmp_path):
    assert main(["mirror", "3", "3", "--seed", "2", "--out", str(tmp_path)]) == 0
    lines = read_lines(tmp_path / "mirror.csv")
    assert lines[0] == f"# umtk {__version__}"
    assert lines[1] == "# subcommand: mirror"
    assert "# cols: 3" in lines and "# rows: 3" in lines and "# seed: 2" in lines


def test_mirror_rejects_tiny_shape(tmp_path, capsys):
    assert main(["mirror", "1", "9", "--out", str(tmp_path)]) == 1
    assert "rows >= 2" in capsys.readouterr().err


def test_unknown_subcommand_and_missing_args(tmp_path, capsys):
    assert main(["definitely-not-a-subcommand"]) == 1
    assert main(["hclust"]) == 1  # --input is required
    capsys.readouterr()


def test_pcoa_outputs(tmp_path):
    src = tmp_path / "d.csv"
    write_example_distances(src)
    out = tmp_path / "out"
    assert main(["pcoa", "--input", str(src), "--out", str(out)]) == 0
    for name in ("pcoa_coords.csv", "pcoa_eigenvalues.csv", "pcoa_metricity.txt"):
        assert (out / name).exists()
    report = dict(
        line[2:].split(": ", 1)
        for line in read_lines(out / "pcoa_metricity.txt")
        if line.startswith("# ") and ": " in line
    )
    assert report["subcommand"] == "pcoa"
    assert report["input"] == "d.csv"  # basename only, not the full path
    body = (out / "pcoa_metricity.txt").read_text(encoding="utf-8")
    assert "coefficient: " in body


def test_missing_input_is_io_error(tmp_path, capsys):
    assert main(["pcoa", "--input", str(tmp_path / "absent.csv"),
                 "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("umtk: ")


def test_hclust_outputs_match_library(tmp_path):
    src = tmp_path / "d.csv"
    d = write_example_distances(src)
    out = tmp_path / "out"
    assert main(["hclust", "--input", str(src), "--criterion", "average",
                 "--out", str(out)]) == 0
    h = linkage(d, "average")
    newick_lines = [
        line for line in read_lines(out / "hclust_average.nwk")
        if not line.startswith("#")
    ]
    assert newick_lines == [export_newick(h)]
    round_trip = matrixio.read_dissimilarity(out / "hclust_average_cophenetic.csv")
    np.testing.assert_array_equal(round_trip.values, cophenetic(h).values)
    merge_rows = [
        line.split(",") for line in read_lines(out / "hclust_average_merges.csv")
        if not line.startswith("#")
    ]
    assert merge_rows[0] == ["left", "right", "height", "size"]
    assert len(merge_rows) == 1 + len(h.merges)


def unescape_header(line):
    """A header line as it was before the writer escaped its backslashes, CRs and LFs."""
    return re.sub(r"\\(.)", lambda m: {"\\": "\\", "r": "\r", "n": "\n"}[m[1]], line)


@pytest.mark.parametrize("labels", [
    ["a\nb", "c", "d"],
    ["Smith, J.", "c", "d"],
    ["back\\slash\r\nx", 'say "hi"', "d"],
    ["x\ry", "c\r", "d"],
])
def test_hclust_header_lines_stay_one_line_each(tmp_path, labels):
    d = DissimilarityMatrix(np.array([[0.0, 1, 2], [1, 0, 1.5], [2, 1.5, 0]]), labels)
    matrixio.write_dissimilarity(tmp_path / "d.csv", d)
    assert main(["hclust", "--input", str(tmp_path / "d.csv"), "--out", str(tmp_path)]) == 0
    merges = (tmp_path / "hclust_ward_merges.csv").read_bytes().decode("utf-8")
    block, header, _ = merges.partition("left,right,height,size\n")
    *headers, label_line = block.split("\n")[:-1]
    assert header and "\r" not in block
    assert all(line.startswith("# ") for line in headers)
    assert label_line.startswith("# labels: ")
    assert list(csv.reader([unescape_header(label_line[10:])])) == [labels]
    matrixio.read_labeled_matrix(tmp_path / "hclust_ward_merges.csv")
    assert (tmp_path / "hclust_ward.nwk").read_bytes().decode("utf-8") == "".join(
        f"{line}\n" for line in headers + [export_newick(linkage(d, "ward"))])
    assert matrixio.read_dissimilarity(tmp_path / "hclust_ward_cophenetic.csv").labels == labels


def test_hclust_and_consensus_on_a_decimal_grid(tmp_path):
    """Unfloored, average linkage put a merge one ulp below its child here:
    hclust wrote a topology-only tree and warned, and consensus warned."""
    d = decimal_grid(1330, 1, 0.1)
    matrixio.write_dissimilarity(tmp_path / "d.csv", d)

    def run(*args):
        return subprocess.run([sys.executable, "-m", "umtk", *args, "--out", str(tmp_path)],
                              capture_output=True, text=True, env=source_env(), cwd=tmp_path)

    result = run("hclust", "--input", "d.csv", "--criterion", "average")
    assert (result.returncode, result.stderr) == (0, "")
    rows = [line.split(",") for line in read_lines(tmp_path / "hclust_average_merges.csv")
            if not line.startswith("#")][1:]
    heights = [float(row[2]) for row in rows]
    assert len(heights) == d.n - 1 and heights == sorted(heights)
    newick = [line for line in read_lines(tmp_path / "hclust_average.nwk")
              if not line.startswith("#")]
    assert newick == [export_newick(linkage(d, "average"))]
    assert newick[0].count(":") == 2 * d.n - 2  # a branch length on every edge
    result = run("consensus", "--input", "d.csv", "--criteria", "average,ward,single,complete")
    assert (result.returncode, result.stderr) == (0, "")


def test_coeffs_requires_exactly_one_input(tmp_path, capsys):
    coords_path = tmp_path / "pts.csv"
    dist_path = tmp_path / "d.csv"
    write_example_coords(coords_path)
    write_example_distances(dist_path)
    assert main(["coeffs", "--out", str(tmp_path)]) == 1
    assert main(["coeffs", "--coords", str(coords_path),
                 "--distances", str(dist_path), "--out", str(tmp_path)]) == 1
    assert main(["coeffs", "--distances", str(dist_path), "--per-triplet",
                 "--out", str(tmp_path)]) == 1
    assert "--per-triplet requires --coords" in capsys.readouterr().err


def test_coeffs_with_coordinates(tmp_path):
    coords_path = tmp_path / "pts.csv"
    write_example_coords(coords_path, n=7)
    out = tmp_path / "out"
    assert main(["coeffs", "--coords", str(coords_path), "--per-triplet",
                 "--out", str(out)]) == 0
    body = (out / "coeffs_report.txt").read_text(encoding="utf-8")
    for key in ("alpha: ", "rammal: ", "lerman_h: ",
                "treves_hartmann_points: "):
        assert key in body
    triplet_rows = [
        line for line in read_lines(out / "coeffs_triplets.csv")
        if not line.startswith("#")
    ]
    assert len(triplet_rows) == 1 + triplet_count(7)


@pytest.mark.parametrize("sample", [[], ["--sample", "500", "--seed", "3"]])
def test_coeffs_triplets_file_matches_row_writer(tmp_path, sample):
    coords = awkward_coords()
    coords_path = tmp_path / "pts.csv"
    matrixio.write_coordinates(coords_path, coords)
    out = tmp_path / "out"
    assert main(["coeffs", "--coords", str(coords_path), "--per-triplet",
                 *sample, "--out", str(out)]) == 0
    kw = {"sample": 500, "seed": 3} if sample else {}
    rows = row_tuples(*scan_triplet_verdicts(coords, DEFAULT_EPSILON, **kw))
    assert any(row[3] is None for row in rows)  # degenerate triangles present
    got = out / "coeffs_triplets.csv"
    expected = tmp_path / "oracle.csv"
    header = ["i", "j", "k", "apex", "base_angle_diff", "ultrametric"]
    write_rows(expected, [header] + rows, header_lines_of(got))
    assert got.read_bytes() == expected.read_bytes()


def test_coeffs_with_distances_only(tmp_path):
    dist_path = tmp_path / "d.csv"
    write_example_distances(dist_path)
    out = tmp_path / "out"
    assert main(["coeffs", "--distances", str(dist_path), "--out", str(out)]) == 0
    body = (out / "coeffs_report.txt").read_text(encoding="utf-8")
    assert "alpha: unavailable (requires coordinates)" in body
    assert not (out / "coeffs_triplets.csv").exists()


def test_coeffs_sampled_rerun_is_byte_identical(tmp_path):
    coords_path = tmp_path / "pts.csv"
    write_example_coords(coords_path, n=12)
    runs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        assert main(["coeffs", "--coords", str(coords_path), "--sample", "60",
                     "--seed", "7", "--out", str(out)]) == 0
        runs.append((
            (out / "coeffs_report.txt").read_bytes(),
            (out / "treves_hartmann.csv").read_bytes(),
        ))
    assert runs[0] == runs[1]


def coeffs_by_functions(out, headers, coords, d, epsilon, sample, seed, per_triplet):
    """The coeffs files from the four public functions and whole-column writes."""
    kw = {"sample": sample, "seed": seed}
    report = {"alpha": "unavailable (requires coordinates)"}
    if coords is not None:
        alpha = alpha_epsilon(coords, epsilon, **kw)
        report = {"alpha": alpha.alpha, "alpha_counted": alpha.counted,
                  "alpha_excluded_degenerate": alpha.excluded_degenerate}
    th = treves_hartmann_points(d, **kw)
    report.update({
        "epsilon": epsilon, "sampled": sample is not None, "sample": sample, "seed": seed,
        "rammal": rammal_index(d), "lerman_h": lerman_h(d, **kw),
        "lerman_h_definition": "mean((rank(max)-rank(med))/(pairs-1)) over triplets",
        "treves_hartmann_points": th.points.shape[0],
        "treves_hartmann_skipped_zero_max": th.skipped_zero_max,
    })
    out.mkdir()
    matrixio.write_key_values(out / "coeffs_report.txt", report, headers)
    matrixio.write_table(out / "treves_hartmann.csv",
                         ["min_over_max", "med_over_max", "max_minus_med"],
                         list(th.points.T), headers)
    if per_triplet:
        matrixio.write_table(out / "coeffs_triplets.csv",
                             ["i", "j", "k", "apex", "base_angle_diff", "ultrametric"],
                             scan_triplet_verdicts(coords, epsilon, **kw), headers)


def gaussian_coords():
    return CoordinateMatrix(np.random.default_rng(8).normal(size=(16, 3)))


# awkward_coords repeats one point three times: degenerate and zero-max triplets
@pytest.mark.parametrize("cloud", [awkward_coords, gaussian_coords])
@pytest.mark.parametrize("source", ["coords", "coords-per-triplet", "distances"])
@pytest.mark.parametrize("sample", [None, 700])
def test_coeffs_files_match_the_public_functions(tmp_path, monkeypatch, cloud, source, sample):
    coords = cloud()
    path = tmp_path / "in.csv"
    d = euclidean_distances(coords)
    if source == "distances":
        matrixio.write_dissimilarity(path, d)
    else:
        matrixio.write_coordinates(path, coords)
    # small windows, so every file is written in several blocks
    monkeypatch.setattr(triplets, "DEFAULT_CHUNK", 97)
    argv = ["coeffs", "--" + source.split("-")[0], str(path), "--epsilon", "0.05"]
    argv += ["--per-triplet"] if source.endswith("per-triplet") else []
    argv += ["--sample", str(sample), "--seed", "4"] if sample else []
    assert main(argv + ["--out", str(tmp_path / "cli")]) == 0
    headers = header_lines_of(tmp_path / "cli" / "coeffs_report.txt")
    coeffs_by_functions(tmp_path / "functions", headers,
                        None if source == "distances" else coords, d, 0.05, sample,
                        4 if sample else None, source.endswith("per-triplet"))
    names = sorted(p.name for p in (tmp_path / "functions").iterdir())
    assert sorted(p.name for p in (tmp_path / "cli").iterdir()) == names
    assert len(names) == (3 if source.endswith("per-triplet") else 2)
    for name in names:
        assert ((tmp_path / "cli" / name).read_bytes()
                == (tmp_path / "functions" / name).read_bytes()), name
    skipped = [line for line in read_lines(tmp_path / "cli" / "coeffs_report.txt")
               if line.startswith("treves_hartmann_skipped_zero_max: ")]
    assert (skipped != ["treves_hartmann_skipped_zero_max: 0"]) == (cloud is awkward_coords)


_LINE = np.column_stack([np.arange(9.0), 2 * np.arange(9.0), -np.arange(9.0)])


@pytest.mark.parametrize("points, extra, message", [
    (_LINE, [], "every examined triplet was degenerate"),
    (np.ones((5, 2)), [], "every examined triplet was degenerate"),
    (np.ones((5, 2)), ["--sample", "0"], "sample count must be positive"),
    (np.zeros((1, 2)), [], "need at least three points"),
])
def test_coeffs_failing_cloud_leaves_no_table(tmp_path, capsys, points, extra, message):
    path = tmp_path / "pts.csv"
    matrixio.write_coordinates(path, CoordinateMatrix(points))
    out = tmp_path / "out"
    assert main(["coeffs", "--coords", str(path), "--per-triplet", *extra,
                 "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("extra, message", [
    (["--epsilon", "0"], "epsilon must be positive"),
    (["--sample", "0"], "sample count must be positive"),
])
def test_coeffs_checks_its_arguments_before_opening_a_table(tmp_path, capsys, extra, message):
    path = tmp_path / "pts.csv"
    matrixio.write_coordinates(path, CoordinateMatrix(np.random.default_rng(3).normal(size=(6, 2))))
    out = tmp_path / "out"
    out.mkdir()
    names = ("treves_hartmann.csv", "coeffs_triplets.csv")
    for name in names:
        (out / name).write_text("earlier run\n")
    assert main(["coeffs", "--coords", str(path), "--per-triplet", *extra,
                 "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert [(out / name).read_text() for name in names] == ["earlier run\n"] * 2


@pytest.mark.parametrize("epsilon", ["nan", "0", "-1"])
def test_coeffs_with_distances_rejects_a_bad_epsilon_before_reading(tmp_path, capsys, epsilon):
    path = tmp_path / "d.csv"
    points = CoordinateMatrix(np.random.default_rng(5).normal(size=(5, 2)))
    matrixio.write_dissimilarity(path, euclidean_distances(points))
    out = tmp_path / "out"
    for source in (path, tmp_path / "missing.csv"):  # exit 1, not the I/O error's 2
        assert main(["coeffs", "--distances", str(source), f"--epsilon={epsilon}",
                     "--out", str(out)]) == 1
        assert "epsilon must be positive" in capsys.readouterr().err
        assert not out.exists()


def test_coeffs_and_transform_enumerate_once(tmp_path, monkeypatch):
    built = {"ranks": 0, "draws": 0, "distances": 0}
    original_windows, original_sample = triplets.triplet_windows, triplets.sample_triplets
    original_distances = cli.euclidean_distances

    def counting_windows(n):
        count, window = original_windows(n)

        def counted(lo, hi):
            built["ranks"] += hi - lo
            return window(lo, hi)

        return count, counted

    def counting_sample(n, count, seed, start=0):
        built["draws"] += count
        return original_sample(n, count, seed, start)

    def counting_distances(coords):
        built["distances"] += 1
        return original_distances(coords)

    monkeypatch.setattr(triplets, "DEFAULT_CHUNK", 50)
    monkeypatch.setattr(triplets, "triplet_windows", counting_windows)
    monkeypatch.setattr(triplets, "sample_triplets", counting_sample)
    monkeypatch.setattr(cli, "euclidean_distances", counting_distances)
    coords = write_example_coords(tmp_path / "pts.csv", n=12)
    assert main(["coeffs", "--coords", str(tmp_path / "pts.csv"), "--per-triplet",
                 "--out", str(tmp_path / "a")]) == 0
    assert built == {"ranks": triplet_count(12), "draws": 0, "distances": 1}
    assert main(["coeffs", "--coords", str(tmp_path / "pts.csv"), "--per-triplet",
                 "--sample", "333", "--out", str(tmp_path / "b")]) == 0
    assert built == {"ranks": triplet_count(12), "draws": 333, "distances": 2}
    squared = DissimilarityMatrix(euclidean_distances(coords).values ** 2)
    matrixio.write_dissimilarity(tmp_path / "sq.csv", squared)
    assert main(["transform", "--input", str(tmp_path / "sq.csv"),
                 "--out", str(tmp_path / "c")]) == 0
    assert built["ranks"] == 2 * triplet_count(12)


def test_transform_both_matches_separate_methods(tmp_path):
    gen = np.random.default_rng(12)
    points = gen.uniform(-10.0, 10.0, size=(30, 2))
    squared = DissimilarityMatrix(euclidean_distances(CoordinateMatrix(points)).values ** 2)
    matrixio.write_dissimilarity(tmp_path / "sq.csv", squared)
    for method in ("both", "cailliez", "power"):
        assert main(["transform", "--input", str(tmp_path / "sq.csv"), "--method", method,
                     "--out", str(tmp_path / method)]) == 0

    def without_method(path):
        return [line for line in read_lines(path) if not line.startswith("# method: ")]

    for name, method in (("transform_cailliez.csv", "cailliez"), ("transform_power.csv", "power")):
        assert without_method(tmp_path / "both" / name) == without_method(tmp_path / method / name)
    assert not (tmp_path / "cailliez" / "transform_power.csv").exists()


def test_consensus_outputs(tmp_path):
    src = tmp_path / "d.csv"
    write_example_distances(src)
    out = tmp_path / "out"
    assert main(["consensus", "--input", str(src),
                 "--criteria", "ward,single,complete", "--out", str(out)]) == 0
    for name in ("consensus_table.csv", "consensus_matched.csv",
                 "consensus_ultrametric.csv", "consensus_merges.csv",
                 "consensus.nwk"):
        assert (out / name).exists()
    table_rows = [
        line.split(",") for line in read_lines(out / "consensus_table.csv")
        if not line.startswith("#")
    ]
    assert table_rows[0] == ["", "ward", "single", "complete"]
    assert [r[0] for r in table_rows[1:]] == ["ward", "single", "complete"]


def test_consensus_builds_each_tree_once(tmp_path, monkeypatch):
    """The pair reads the table's trees: one linkage per criterion, one for the dendrogram."""
    src = tmp_path / "d.csv"
    write_example_distances(src)
    built = []

    def counting(d, criterion):
        built.append(criterion)
        return linkage(d, criterion)

    monkeypatch.setattr(consensus, "linkage", counting)
    assert main(["consensus", "--input", str(src), "--criteria", "ward,single,complete",
                 "--out", str(tmp_path / "out")]) == 0
    assert built == ["ward", "single", "complete", "single"]


def test_consensus_rerun_is_byte_identical(tmp_path):
    src = tmp_path / "d.csv"
    write_example_distances(src)
    blobs = []
    for sub in ("one", "two"):
        out = tmp_path / sub
        assert main(["consensus", "--input", str(src), "--out", str(out)]) == 0
        blobs.append([
            (out / name).read_bytes()
            for name in sorted(p.name for p in out.iterdir())
        ])
    assert blobs[0] == blobs[1]


def test_consensus_matched_file_matches_row_writer(tmp_path):
    values = np.rint(euclidean_distances(awkward_coords(n=16)).values)
    d = DissimilarityMatrix(values, [f"q{i}" for i in range(16)])
    src = tmp_path / "d.csv"
    matrixio.write_dissimilarity(src, d)
    out = tmp_path / "out"
    assert main(["consensus", "--input", str(src), "--criteria",
                 "average,complete,ward", "--out", str(out)]) == 0
    report = consensus_count(cophenetic(linkage(d, "average")),
                             cophenetic(linkage(d, "complete")))
    assert 0 < report.matched and report.skipped_ties > 0
    got = out / "consensus_matched.csv"
    expected = tmp_path / "oracle.csv"
    header = ["i", "j", "k", "base_i", "base_j", "apex"]
    skip_lines = [h for h in header_lines_of(got) if h.startswith("skipped_ties: ")]
    assert skip_lines == [f"skipped_ties: {report.skipped_ties}"]
    write_rows(expected, [header] + row_tuples(*report.matched_set.T), header_lines_of(got))
    assert got.read_bytes() == expected.read_bytes()


def test_consensus_runs_one_triplet_scan(tmp_path, monkeypatch):
    """The pair's (matched set and ultrametric): the table is read off the
    dendrograms, and the consensus dendrogram skips check_ultrametric on
    the pair's closure."""
    values = np.rint(euclidean_distances(awkward_coords(n=12)).values)
    src = tmp_path / "d.csv"
    matrixio.write_dissimilarity(src, DissimilarityMatrix(values))
    original = triplets.triplet_windows
    started = []

    def counting(n):
        started.append(n)
        return original(n)

    # every exhaustive scan asks for its window function once
    monkeypatch.setattr(triplets, "triplet_windows", counting)
    assert main(["consensus", "--input", str(src), "--criteria",
                 "ward,single,average,complete", "--out", str(tmp_path / "out")]) == 0
    assert started == [12]


PAIR_SCAN_FILES = ("consensus_matched.csv", "consensus_ultrametric.csv",
                   "uca_listing.csv", "uca_profile.csv")


def pair_scan_files(tmp_path, out):
    """Bytes of the files the pair scan writes, for consensus and uca on one cloud."""
    coords = awkward_coords(n=24)
    matrixio.write_coordinates(tmp_path / "pts.csv", coords)
    tied = DissimilarityMatrix(np.rint(euclidean_distances(coords).values), coords.point_labels)
    matrixio.write_dissimilarity(tmp_path / "d.csv", tied)
    assert main(["consensus", "--input", str(tmp_path / "d.csv"), "--criteria",
                 "ward,single,average,complete", "--out", str(out)]) == 0
    assert main(["uca", "--coords", str(tmp_path / "pts.csv"), "--epsilon", "0.3",
                 "--out", str(out)]) == 0
    assert not list(out.glob("*.part"))
    return {name: (out / name).read_bytes() for name in PAIR_SCAN_FILES}


@pytest.mark.parametrize("chunk", [7, 97])
def test_pair_scan_files_do_not_depend_on_the_window(tmp_path, monkeypatch, chunk):
    wanted = pair_scan_files(tmp_path, tmp_path / "default")
    assert wanted["consensus_matched.csv"].count(b"\n") > 200
    assert wanted["uca_listing.csv"].count(b"\n") > 20
    monkeypatch.setattr(triplets, "DEFAULT_CHUNK", chunk)
    assert pair_scan_files(tmp_path, tmp_path / "small") == wanted


def test_uca_profile_does_not_depend_on_its_blocks(tmp_path, monkeypatch):
    wanted = pair_scan_files(tmp_path, tmp_path / "default")
    assert wanted["uca_profile.csv"].count(b"\n") > 20
    # 5-cell chunks write the profile in 5-row blocks of 2-row chunks
    monkeypatch.setattr(matrixio, "CHUNK_CELLS", 5)
    assert pair_scan_files(tmp_path, tmp_path / "small") == wanted


def test_uca_writes_an_empty_profile_as_its_header(tmp_path):
    (tmp_path / "line.csv").write_text(",f1,f2\na,0,0\nb,1,0\nc,2,0\n")
    out = tmp_path / "out"
    assert main(["uca", "--coords", str(tmp_path / "line.csv"), "--out", str(out)]) == 0
    profile = read_lines(out / "uca_profile.csv")
    assert "# count_at_threshold: 0" in profile
    assert [line for line in profile if not line.startswith("#")] == ["rank,angle_diff_radians"]


def test_consensus_failing_scan_leaves_no_matched_file(tmp_path, monkeypatch):
    values = np.rint(euclidean_distances(awkward_coords(n=12)).values)
    d = DissimilarityMatrix(values)
    matrixio.write_dissimilarity(tmp_path / "d.csv", d)
    report = consensus_count(cophenetic(linkage(d, "ward")), cophenetic(linkage(d, "single")))
    assert report.skipped_ties > 0
    original, windows, seen = consensus._matched_rows, [], []
    out = tmp_path / "out"

    def failing(*args):
        windows.append(args[-1].size)
        seen.append(sorted(p.name for p in out.iterdir()))
        if len(windows) == 2:
            raise RuntimeError("second window fails")
        return original(*args)

    with monkeypatch.context() as mp:
        mp.setattr(triplets, "DEFAULT_CHUNK", 50)
        mp.setattr(consensus, "_matched_rows", failing)
        with pytest.raises(RuntimeError, match="second window fails"):
            main(["consensus", "--input", str(tmp_path / "d.csv"), "--out", str(out)])
    assert len(windows) == 2
    # the rows go straight to the matched file, never to a .part file
    assert seen == [["consensus_table.csv"], ["consensus_matched.csv", "consensus_table.csv"]]
    assert sorted(p.name for p in out.iterdir()) == ["consensus_table.csv"]
    assert main(["consensus", "--input", str(tmp_path / "d.csv"), "--out", str(out)]) == 0
    skip_lines = [h for h in header_lines_of(out / "consensus_matched.csv")
                  if h.startswith("skipped_ties: ")]
    assert skip_lines == [f"skipped_ties: {report.skipped_ties}"]


def test_consensus_criteria_validation(tmp_path, capsys):
    src = tmp_path / "d.csv"
    write_example_distances(src)
    assert main(["consensus", "--input", str(src), "--criteria", "ward",
                 "--out", str(tmp_path)]) == 1
    assert "at least two" in capsys.readouterr().err
    assert main(["consensus", "--input", str(src),
                 "--criteria", "ward,centroid", "--out", str(tmp_path)]) == 1
    assert "inversions" in capsys.readouterr().err


def test_uca_outputs(tmp_path):
    coords_path = tmp_path / "pts.csv"
    write_example_coords(coords_path, n=9)
    out = tmp_path / "out"
    assert main(["uca", "--coords", str(coords_path), "--epsilon", "0.2",
                 "--out", str(out)]) == 0
    listing = read_lines(out / "uca_listing.csv")
    data = [line for line in listing if not line.startswith("#")]
    assert data[0] == "base1,base2,apex,angle_diff_radians"
    profile_header = [
        line for line in read_lines(out / "uca_profile.csv")
        if line.startswith("# count_at_threshold: ")
    ]
    assert len(profile_header) == 1


def test_uca_needs_exactly_two_criteria(tmp_path, capsys):
    coords_path = tmp_path / "pts.csv"
    write_example_coords(coords_path)
    assert main(["uca", "--coords", str(coords_path),
                 "--criteria", "ward,single,average", "--out", str(tmp_path)]) == 1
    assert "exactly two" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["uca", "coeffs"])
def test_nan_epsilon_exits_1_before_writing(tmp_path, capsys, command):
    coords_path = tmp_path / "pts.csv"
    write_example_coords(coords_path)
    out = tmp_path / "out"
    assert main([command, "--coords", str(coords_path), "--epsilon", "nan",
                 "--out", str(out)]) == 1
    assert "epsilon must be positive" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def test_transform_both_writes_two_files(tmp_path):
    src = tmp_path / "d.csv"
    d = DissimilarityMatrix(
        np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]),
        ["a", "b", "c"],
    )
    matrixio.write_dissimilarity(src, d)
    out = tmp_path / "out"
    assert main(["transform", "--input", str(src), "--out", str(out)]) == 0
    assert (out / "transform_cailliez.csv").exists()
    assert (out / "transform_power.csv").exists()
    cailliez_header = [
        line for line in read_lines(out / "transform_cailliez.csv")
        if line.startswith("# additive_constant: ")
    ]
    assert cailliez_header == ["# additive_constant: 3"]


def test_transform_both_skips_power_on_zero_distance(tmp_path, capsys):
    src = tmp_path / "d.csv"
    d = DissimilarityMatrix(
        np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]),
        ["a", "b", "c"],
    )
    matrixio.write_dissimilarity(src, d)
    out = tmp_path / "out"
    assert main(["transform", "--input", str(src), "--out", str(out)]) == 0
    assert (out / "transform_cailliez.csv").exists()
    assert not (out / "transform_power.csv").exists()
    assert "skipping power repair" in capsys.readouterr().err
    # power alone on the same input is a hard failure
    assert main(["transform", "--input", str(src), "--method", "power",
                 "--out", str(out)]) == 1


def test_mirror_to_ca_pipeline(tmp_path):
    mirror_dir = tmp_path / "mirror"
    assert main(["mirror", "6", "8", "--seed", "4", "--out", str(mirror_dir)]) == 0
    ca_dir = tmp_path / "ca"
    assert main(["ca", "--input", str(mirror_dir / "mirror.csv"),
                 "--out", str(ca_dir)]) == 0
    for name in ("ca_row_coords.csv", "ca_col_coords.csv", "ca_row_masses.csv",
                 "ca_col_masses.csv", "ca_singular_values.csv"):
        assert (ca_dir / name).exists()
    coords = matrixio.read_coordinates(ca_dir / "ca_row_coords.csv")
    assert coords.n == 6
    assert coords.dim <= 5
    sv_rows = [
        line.split(",") for line in read_lines(ca_dir / "ca_singular_values.csv")
        if not line.startswith("#")
    ]
    values = [float(r[1]) for r in sv_rows[1:]]
    assert values == sorted(values, reverse=True)


def test_ingest_corpus_directory(tmp_path):
    corpus_dir = tmp_path / "docs"
    corpus_dir.mkdir()
    (corpus_dir / "alpha.txt").write_text("the cat sat on the mat", encoding="utf-8")
    (corpus_dir / "beta.txt").write_text("the dog sat", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["ingest", "--input", str(corpus_dir), "--top-k", "3",
                 "--out", str(out)]) == 0
    table = matrixio.read_frequency(out / "termdoc.csv")
    assert table.row_labels == ["alpha", "beta"]
    assert table.col_labels == ["the", "sat", "cat"]  # the:3, sat:2, then ties a-z
    header = (out / "termdoc.csv").read_text(encoding="utf-8")
    assert "# top_k: 3" in header


def test_ingest_quotes_a_dropped_document_id_with_a_comma(tmp_path):
    corpus_dir = tmp_path / "docs"
    corpus_dir.mkdir()
    # the three dropped documents hold no token
    for doc_id, text in {"a,b": "12 34", "c": "", 'say "hi"': "--", "d": "the cat"}.items():
        (corpus_dir / f"{doc_id}.txt").write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    with pytest.warns(UserWarning) as caught:
        assert main(["ingest", "--input", str(corpus_dir), "--top-k", "3", "--out", str(out)]) == 0
    assert sorted(str(w.message) for w in caught) == [
        "corpus has only 2 distinct terms, fewer than top_k=3; using all of them",
        'dropped 3 all-zero documents: a,b, c, say "hi"',
    ]
    line, = [h for h in header_lines_of(out / "termdoc.csv") if h.startswith("dropped_docs: ")]
    assert next(csv.reader([line[len("dropped_docs: "):]])) == ["a,b", "c", 'say "hi"']


def test_ingest_then_ca_keeps_a_cr_in_a_document_id(tmp_path):
    corpus_dir = tmp_path / "docs"
    corpus_dir.mkdir()
    texts = {"ch1\rdraft": "the cat sat on the mat", "ch2": "the dog sat on a log",
             "ch3": "a cat and a dog ran"}
    try:
        for doc_id, text in texts.items():
            (corpus_dir / f"{doc_id}.txt").write_text(text, encoding="utf-8")
    except OSError:
        pytest.skip("the file system refuses a CR in a file name")
    out = tmp_path / "out"
    assert main(["ingest", "--input", str(corpus_dir), "--top-k", "6", "--out", str(out)]) == 0
    assert main(["ca", "--input", str(out / "termdoc.csv"), "--out", str(out)]) == 0
    assert matrixio.read_coordinates(out / "ca_row_coords.csv").point_labels == sorted(texts)


def pyproject_project():
    """The [project] table of this checkout's pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(ROOT / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"]


def test_version_matches_pyproject():
    # every output file's first line is "# umtk <__version__>"
    assert __version__ == pyproject_project()["version"]


def test_console_script_installed(tmp_path):
    """The `umtk` script declared in pyproject.toml works when run by name.

    Nothing is installed: the test writes the launcher an installer
    writes for the declared entry point, puts it first on PATH and puts
    this checkout's `src` first on PYTHONPATH, so the script under test
    is the one this source tree declares.
    """
    value = pyproject_project()["scripts"]["umtk"]
    ep = EntryPoint(name="umtk", value=value, group="console_scripts")

    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / "umtk"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {ep.module} import {ep.attr}\n"
        f"sys.exit({ep.attr}())\n",
        encoding="utf-8",
    )
    script.chmod(0o755)

    env = dict(os.environ)
    for var, first in (("PATH", bin_dir), ("PYTHONPATH", ROOT / "src")):
        env[var] = os.pathsep.join(filter(None, [str(first), env.get(var)]))

    def run(*args):
        return subprocess.run(
            ["umtk", *args], capture_output=True, text=True, env=env
        )

    out = tmp_path / "out"
    result = run("mirror", "3", "4", "--seed", "1", "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert (out / "mirror.csv").exists()

    # main's validation exit code reaches the shell
    result = run("mirror", "1", "9", "--out", str(tmp_path / "tiny"))
    assert result.returncode == 1
    assert "rows >= 2" in result.stderr


def source_env():
    """The environment with this checkout's `src` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def test_python_dash_m_umtk(tmp_path):
    """`python -m umtk` runs the command line from this checkout's source."""
    env = source_env()

    def run(*args):
        return subprocess.run([sys.executable, "-m", "umtk", *args],
                              capture_output=True, text=True, env=env)

    out = tmp_path / "out"
    result = run("mirror", "3", "4", "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert (out / "mirror.csv").exists()
    result = run("mirror", "1", "9", "--out", str(tmp_path / "tiny"))
    assert result.returncode == 1
    assert "rows >= 2" in result.stderr


NO_SCIPY = "import sys; sys.modules['scipy'] = None; from umtk.cli import entry; entry()"


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    write_example_distances(root / "d.csv")
    write_example_coords(root / "c.csv")
    assert main(["mirror", "5", "4", "--out", str(root)]) == 0
    return root


@pytest.mark.parametrize("args", [
    ["--help"],
    ["consensus", "--input", "d.csv"],
    ["uca", "--coords", "c.csv"],
    ["coeffs", "--coords", "c.csv", "--per-triplet"],
    ["coeffs", "--distances", "d.csv", "--sample", "20"],
    ["transform", "--input", "d.csv"],
    ["hclust", "--input", "d.csv"],
    ["pcoa", "--input", "d.csv"],
    ["ca", "--input", "mirror.csv"],
    ["mirror", "3", "4"],
], ids=lambda args: "-".join(a.lstrip("-") for a in args[:2]))
def test_commands_run_without_scipy(tiny_inputs, tmp_path, args):
    """Every command runs in a process where importing scipy fails."""
    out = [] if args == ["--help"] else ["--out", str(tmp_path)]
    result = subprocess.run([sys.executable, "-c", NO_SCIPY, *args, *out], capture_output=True,
                            text=True, env=source_env(), cwd=tiny_inputs)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("prefix", ["scipy", "concurrent"])
def test_import_loads_no(prefix):
    code = f"import sys, umtk.cli; print(sorted(m for m in sys.modules if m.startswith({prefix!r})))"
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, env=source_env())
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def run_entry(code_at_exit, args, cwd):
    """Run entry() on args in a fresh process that prints code_at_exit's value at exit."""
    code = (f"import atexit, gc, sys; atexit.register(lambda: print({code_at_exit})); "
            "from umtk.cli import entry; entry()")
    result = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                            text=True, env=source_env(), cwd=cwd)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()[-1]


@pytest.mark.parametrize("args", [["--help"], ["mirror", "3", "4", "--out", "out"]])
def test_entry_freezes_the_import_time_heap(tmp_path, args):
    assert int(run_entry("gc.get_freeze_count()", args, tmp_path)) > 0


def test_main_freezes_nothing(tmp_path):
    """In-process callers keep their own objects collectable."""
    before = gc.get_freeze_count()
    assert main(["mirror", "3", "4", "--out", str(tmp_path)]) == 0
    assert gc.get_freeze_count() == before


def test_per_triplet_coeffs_do_not_load_numpy_ma(tmp_path):
    """Degenerate triangles are written blank without a masked array."""
    matrixio.write_coordinates(tmp_path / "c.csv", awkward_coords())
    args = ["coeffs", "--coords", "c.csv", "--per-triplet", "--out", "out"]
    assert run_entry("'numpy.ma' in sys.modules", args, tmp_path) == "False"
    assert ",," in (tmp_path / "out" / "coeffs_triplets.csv").read_text(encoding="utf-8")


def test_consensus_and_uca_do_not_load_numpy_ma(tmp_path):
    """The pair's tie skips come off the trees without np.unique, which imports numpy.ma."""
    coords = awkward_coords()
    matrixio.write_coordinates(tmp_path / "c.csv", coords)
    tied = DissimilarityMatrix(np.rint(euclidean_distances(coords).values), coords.point_labels)
    matrixio.write_dissimilarity(tmp_path / "d.csv", tied)
    for args in (["consensus", "--input", "d.csv", "--criteria", "ward,single,average,complete"],
                 ["uca", "--coords", "c.csv"]):
        assert run_entry("'numpy.ma' in sys.modules", args + ["--out", "out"], tmp_path) == "False"
