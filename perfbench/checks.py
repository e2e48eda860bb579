"""Output checks for the benchmark's commands.

Each check reads a command's output directory and returns a list of
problems; an empty list means the output is correct. The checks re-derive
what they can with their own numpy code from the generated inputs, so a
wrong count or a broken invariant in the program shows as a failed
operation rather than as a fast one.
"""

from __future__ import annotations

import csv
import hashlib
import io
from math import comb
from pathlib import Path

import numpy as np

TIE_TOLERANCE = 1e-9
EPSILON = 0.034906585
METRIC_SLACK = 1e-9
MIRROR_TRIPLETS = comb(30, 3)

#: Lines of a command's standard output that hold a timing, not a result.
_TIMING_PREFIX = b"done in "
#: Diagnostics, not output: neither hashed nor counted as bytes written.
_STDERR = "stderr.txt"


def read_csv(path: Path) -> tuple[dict[str, str], list[list[str]]]:
    """('#'-header key/values, data rows) of a CSV written by umtk."""
    headers: dict[str, str] = {}
    data: list[str] = []
    with open(path, encoding="utf-8", newline="") as fh:
        for line in fh:
            if line.startswith("# "):
                key, _, value = line[2:].rstrip("\n").partition(": ")
                headers[key] = value
            elif line.strip():
                data.append(line)
    return headers, list(csv.reader(data))


def read_matrix(path: Path) -> tuple[dict[str, str], list[str], np.ndarray]:
    headers, rows = read_csv(path)
    values = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    return headers, [r[0] for r in rows[1:]], values


def read_report(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.startswith("#"):
            key, _, value = line.partition(": ")
            out[key] = value
    return out


def data_rows(path: Path) -> int:
    """Rows after the column-header row, counted without parsing."""
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip() and not line.startswith(b"#")) - 1


def _outputs(out_dir: Path) -> list[Path]:
    return sorted(p for p in out_dir.iterdir() if p.name != _STDERR)


def digest(out_dir: Path) -> str:
    """Hash of every output file, with timing lines of captured stdout dropped."""
    h = hashlib.sha256()
    for path in _outputs(out_dir):
        data = path.read_bytes()
        if path.name == "stdout.txt":
            data = b"".join(ln for ln in io.BytesIO(data) if not ln.startswith(_TIMING_PREFIX))
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def output_bytes(out_dir: Path) -> int:
    return sum(p.stat().st_size for p in _outputs(out_dir))


def _triplet_blocks(n: int):
    """(i, j, k) index arrays of all i < j < k, one block per i."""
    for i in range(n - 2):
        jj, kk = np.triu_indices(n - i - 1, k=1)
        yield np.full(jj.size, i), jj + i + 1, kk + i + 1


def _sorted_sides(values: np.ndarray, ii, jj, kk) -> np.ndarray:
    s = np.stack([values[ii, jj], values[ii, kk], values[jj, kk]])
    s.sort(axis=0)
    return s


def _tied(a, b):
    return np.abs(a - b) <= TIE_TOLERANCE * np.maximum(np.abs(a), np.abs(b))


def non_isosceles_count(u: np.ndarray) -> int:
    """Triplets whose two largest levels tie with the smallest, or do not tie."""
    total = 0
    for ii, jj, kk in _triplet_blocks(u.shape[0]):
        s = _sorted_sides(u, ii, jj, kk)
        iso = ~_tied(s[0], s[2]) & _tied(s[1], s[2]) & ~_tied(s[0], s[1])
        total += int((~iso).sum())
    return total


def worst_slack(values: np.ndarray, strong: bool) -> float:
    """Largest violation of the (strong) triangle inequality, relative to the scale."""
    worst = -np.inf
    for ii, jj, kk in _triplet_blocks(values.shape[0]):
        s = _sorted_sides(values, ii, jj, kk)
        slack = s[2] - s[1] if strong else s[2] - s[1] - s[0]
        worst = max(worst, float(slack.max()))
    return worst / float(values.max())


def _missing(out_dir: Path, names) -> list[str]:
    return [f"missing {name}" for name in names if not (out_dir / name).is_file()]


def _symmetric(values: np.ndarray, what: str) -> list[str]:
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        return [f"{what} is not square"]
    return [] if np.array_equal(values, values.T) else [f"{what} is not symmetric"]


def check_consensus(out_dir: Path, ctx: dict) -> list[str]:
    """Table symmetric, diagonal = C(n,3) - self-consensus ties, detail files consistent.

    The expected diagonal counts, with this module's own code, the triplets
    that are not isosceles under each criterion's cophenetic matrix, built
    from ctx["distances"] by umtk's linkage.
    """
    from umtk.hierarchy import cophenetic, linkage
    from umtk.matrices import DissimilarityMatrix

    problems = _missing(out_dir, ["consensus_table.csv", "consensus_matched.csv",
                                  "consensus_ultrametric.csv", "consensus_merges.csv",
                                  "consensus.nwk"])
    if problems:
        return problems
    n, criteria = ctx["n"], ctx["criteria"]
    _, labels, table = read_matrix(out_dir / "consensus_table.csv")
    problems += _symmetric(table, "consensus table")
    if labels != criteria:
        return problems + [f"table criteria {labels} != {criteria}"]
    d = DissimilarityMatrix(ctx["distances"])
    for p, crit in enumerate(criteria):
        u = cophenetic(linkage(d, crit)).values
        expected = comb(n, 3) - non_isosceles_count(u)
        if table[p, p] != expected:
            problems.append(f"diagonal {crit}: {table[p, p]:.0f} != {expected}")
    matched = data_rows(out_dir / "consensus_matched.csv")
    if matched != table[0, 1]:
        problems.append(f"{matched} matched rows != table entry {table[0, 1]:.0f}")
    _, _, merged = read_matrix(out_dir / "consensus_ultrametric.csv")
    problems += _symmetric(merged, "consensus ultrametric")
    if worst_slack(merged, strong=True) > TIE_TOLERANCE:
        problems.append("consensus ultrametric violates the strong triangle inequality")
    if data_rows(out_dir / "consensus_merges.csv") != n - 1:
        problems.append("consensus dendrogram does not have n - 1 merges")
    return problems


def check_uca(out_dir: Path, ctx: dict) -> list[str]:
    """Profile ascending, count_at_threshold = profile rows <= epsilon, listing within it."""
    problems = _missing(out_dir, ["uca_listing.csv", "uca_profile.csv"])
    if problems:
        return problems
    headers, rows = read_csv(out_dir / "uca_profile.csv")
    diffs = np.array([float(r[1]) for r in rows[1:]])
    if np.any(np.diff(diffs) < 0):
        problems.append("uca profile is not ascending")
    at_threshold = int(headers.get("count_at_threshold", -1))
    if at_threshold != int((diffs <= EPSILON).sum()):
        problems.append(f"count_at_threshold {at_threshold} != profile rows <= epsilon")
    _, listing = read_csv(out_dir / "uca_listing.csv")
    listed = np.array([float(r[3]) for r in listing[1:]])
    if listed.size > at_threshold or np.any(listed > EPSILON) or np.any(np.diff(listed) < 0):
        problems.append("uca listing is not a sorted subset of the profile at epsilon")
    if at_threshold == 0:
        problems.append("empty ultrametric component")
    return problems


def check_coeffs(out_dir: Path, ctx: dict) -> list[str]:
    """Report counts add up to C(n,3), or to the sample size when sampled."""
    names = ["coeffs_report.txt", "treves_hartmann.csv"]
    if ctx.get("per_triplet"):
        names.append("coeffs_triplets.csv")
    problems = _missing(out_dir, names)
    if problems:
        return problems
    report = read_report(out_dir / "coeffs_report.txt")
    scanned = ctx["sample"] if ctx.get("sample") else comb(ctx["n"], 3)
    th_points = int(report["treves_hartmann_points"])
    if th_points + int(report["treves_hartmann_skipped_zero_max"]) != scanned:
        problems.append("Treves-Hartmann counts do not add up to the triplets scanned")
    if data_rows(out_dir / "treves_hartmann.csv") != th_points:
        problems.append("treves_hartmann.csv row count != treves_hartmann_points")
    if not 0.0 <= float(report["rammal"]) <= 1.0:
        problems.append("rammal index outside [0, 1]")
    if ctx.get("per_triplet"):
        if int(report["alpha_counted"]) + int(report["alpha_excluded_degenerate"]) != scanned:
            problems.append("alpha counts do not add up to C(n,3)")
        if not 0.0 <= float(report["alpha"]) <= 1.0:
            problems.append("alpha outside [0, 1]")
        if data_rows(out_dir / "coeffs_triplets.csv") != scanned:
            problems.append("coeffs_triplets.csv does not hold one row per triplet")
    elif report.get("sample") != str(ctx["sample"]):
        problems.append("coeffs report does not record the sample size")
    return problems


def check_transform(out_dir: Path, ctx: dict) -> list[str]:
    """Both repairs written, with a positive constant, an exponent in (0, 1), metric output."""
    problems = _missing(out_dir, ["transform_cailliez.csv", "transform_power.csv"])
    if problems:
        return problems
    headers, _, repaired = read_matrix(out_dir / "transform_cailliez.csv")
    if not float(headers["additive_constant"]) > 0.0:
        problems.append("squared distances needed no additive constant")
    if worst_slack(repaired, strong=False) > METRIC_SLACK:
        problems.append("Cailliez output violates the triangle inequality")
    headers, _, shrunk = read_matrix(out_dir / "transform_power.csv")
    if not 0.0 < float(headers["exponent"]) < 1.0:
        problems.append("power exponent outside (0, 1)")
    if worst_slack(shrunk, strong=False) > METRIC_SLACK:
        problems.append("power output violates the triangle inequality")
    return problems


def check_hclust(out_dir: Path, ctx: dict) -> list[str]:
    """n - 1 monotone merges ending at size n; cophenetic levels are the merge heights."""
    stem = f"hclust_{ctx['criterion']}"
    problems = _missing(out_dir, [f"{stem}_merges.csv", f"{stem}.nwk", f"{stem}_cophenetic.csv"])
    if problems:
        return problems
    _, merges = read_csv(out_dir / f"{stem}_merges.csv")
    heights = np.array([float(r[2]) for r in merges[1:]])
    n = ctx["n"]
    if heights.size != n - 1 or int(merges[-1][3]) != n:
        problems.append("dendrogram does not merge all n items in n - 1 steps")
    if np.any(np.diff(heights) < 0):
        problems.append("merge heights are not monotone")
    _, _, coph = read_matrix(out_dir / f"{stem}_cophenetic.csv")
    problems += _symmetric(coph, "cophenetic matrix")
    levels = np.unique(coph[np.triu_indices(coph.shape[0], k=1)])
    if not np.array_equal(levels, np.unique(heights)):
        problems.append("cophenetic levels differ from the merge heights")
    if not (out_dir / f"{stem}.nwk").read_text(encoding="utf-8").rstrip().endswith(";"):
        problems.append("Newick tree is not terminated")
    return problems


def check_mirror(out_dir: Path, ctx: dict) -> list[str]:
    """The agreement table is printed, symmetric, with counts out of C(30,3)."""
    text = (out_dir / "stdout.txt").read_text(encoding="utf-8")
    marker = f"triplet agreement counts out of {MIRROR_TRIPLETS}:"
    if marker not in text:
        return ["mirror pipeline printed no agreement table"]
    lines = text.split(marker, 1)[1].strip().splitlines()[1:6]
    table = np.array([[int(v) for v in ln.split()[1:]] for ln in lines])
    problems = _symmetric(table, "mirror agreement table")
    if table.shape == (5, 5) and (np.any(table > MIRROR_TRIPLETS) or np.any(table <= 0)):
        problems.append("mirror agreement counts out of range")
    return problems
