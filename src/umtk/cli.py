"""Command-line interface.

Every output file starts with '#' comment lines recording the tool
version, the subcommand, and the full parameter set (including the seed
whenever randomness is involved), so reruns are reproducible
byte-for-byte. Input paths are echoed by basename only, to keep outputs
location-independent.

Exit codes: 0 success, 1 validation error, 2 I/O error.

entry() (the umtk script, python -m) freezes the import-time heap with
gc.freeze() before main(); main() does not, so in-process callers keep
their objects collectable.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import sys
from pathlib import Path

import numpy as np

from . import __version__, matrixio
from .component import ultrametric_component
from .consensus import (
    DEFAULT_TIE_TOLERANCE,
    consensus_dendrogram,
    consensus_table,
)
from .corpus import build_term_doc, random_mirror, read_corpus_dir, read_corpus_file
from .hierarchy import (
    LINKAGE_CRITERIA,
    Dendrogram,
    Merge,
    export_newick,
    join_nodes,
    linkage,
)
from .matrices import euclidean_distances
from .spectral import correspondence_analysis, pcoa
from .transforms import POWER_R_TOLERANCE, cailliez_additive, metric_repairs, power_shrink
from .ultrametricity import DEFAULT_EPSILON, coefficient_scan, rammal_index


class CliError(Exception):
    """Validation failure; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliError(f"{message}\n{self.format_usage()}")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="umtk",
        description=(
            "Quantify how metric and how ultrametric a data set is, "
            "and extract its ultrametric component."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_out(p: _Parser) -> None:
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("ingest", help="corpus directory or marker file to term-document CSV")
    p.set_defaults(run=_cmd_ingest)
    p.add_argument("--input", required=True, help="directory of .txt files or '===DOC id===' file")
    p.add_argument("--top-k", type=int, default=2000, dest="top_k",
                   help="vocabulary size (most frequent terms)")
    add_out(p)

    p = sub.add_parser("ca", help="correspondence analysis of a frequency CSV")
    p.set_defaults(run=_cmd_ca)
    p.add_argument("--input", required=True)
    add_out(p)

    p = sub.add_parser("pcoa", help="classical scaling of a dissimilarity CSV")
    p.set_defaults(run=_cmd_pcoa)
    p.add_argument("--input", required=True)
    add_out(p)

    p = sub.add_parser("hclust", help="agglomerative clustering of a dissimilarity CSV")
    p.set_defaults(run=_cmd_hclust)
    p.add_argument("--input", required=True)
    p.add_argument("--criterion", default="ward", choices=LINKAGE_CRITERIA)
    add_out(p)

    p = sub.add_parser("coeffs", help="ultrametricity coefficients")
    p.set_defaults(run=_cmd_coeffs)
    p.add_argument("--coords", help="coordinate CSV (enables the angle coefficient)")
    p.add_argument("--distances", help="dissimilarity CSV")
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    p.add_argument("--sample", type=int, default=None,
                   help="sampled scan with this many seeded draws instead of exhaustive")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--per-triplet", action="store_true", dest="per_triplet",
                   help="also write per-triplet verdicts (coords input only)")
    add_out(p)

    p = sub.add_parser("consensus", help="triplet consensus between linkage criteria")
    p.set_defaults(run=_cmd_consensus)
    p.add_argument("--input", required=True, help="dissimilarity CSV")
    p.add_argument("--criteria", default="ward,single",
                   help="comma-separated linkage criteria (first two give the consensus tree)")
    add_out(p)

    p = sub.add_parser("uca", help="ultrametric component of a coordinate cloud")
    p.set_defaults(run=_cmd_uca)
    p.add_argument("--coords", required=True, help="coordinate CSV")
    p.add_argument("--criteria", default="ward,single",
                   help="exactly two comma-separated linkage criteria")
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)
    add_out(p)

    p = sub.add_parser("transform", help="repair a dissimilarity CSV into a metric")
    p.set_defaults(run=_cmd_transform)
    p.add_argument("--input", required=True)
    p.add_argument("--method", default="both", choices=("cailliez", "power", "both"))
    add_out(p)

    p = sub.add_parser("mirror", help="seeded uniform random table of a given shape")
    p.set_defaults(run=_cmd_mirror)
    p.add_argument("rows", type=int)
    p.add_argument("cols", type=int)
    p.add_argument("--seed", type=int, default=0)
    add_out(p)

    return parser


def _headers(args: argparse.Namespace, params: dict) -> list[str]:
    lines = [f"umtk {__version__}", f"subcommand: {args.subcommand}"]
    for key in sorted(params):
        lines.append(f"{key}: {matrixio.format_value(params[key])}")
    return lines


def _out_path(args: argparse.Namespace, name: str) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _basename(path: str | None) -> str | None:
    return Path(path).name if path else None


def _write_dendrogram(
    args: argparse.Namespace, h: Dendrogram, stem: str, headers: list[str]
) -> None:
    label_line = "labels: " + ",".join(map(matrixio._quote_cell, h.labels))
    matrixio.write_table(_out_path(args, f"{stem}_merges.csv"), Merge._fields,
                         [np.array(c) for c in zip(*h.merges)], headers + [label_line])
    matrixio.write_lines(_out_path(args, f"{stem}.nwk"), [export_newick(h)], headers)


def _cmd_ingest(args: argparse.Namespace) -> int:
    path = Path(args.input)
    corpus = read_corpus_dir(path) if path.is_dir() else read_corpus_file(path)
    td = build_term_doc(corpus, args.top_k)
    headers = _headers(args, {
        "input": _basename(args.input),
        "top_k": args.top_k,
        "tokenizer": "lowercase; alphabetic runs; word-internal apostrophes",
        "dropped_docs": ",".join(map(matrixio._quote_cell, td.dropped_docs)),
    })
    matrixio.write_frequency(_out_path(args, "termdoc.csv"), td.matrix, headers)
    return 0


def _cmd_ca(args: argparse.Namespace) -> int:
    table = matrixio.read_frequency(args.input)
    result = correspondence_analysis(table)
    headers = _headers(args, {"input": _basename(args.input)})
    matrixio.write_coordinates(_out_path(args, "ca_row_coords.csv"),
                               result.row_coords, headers)
    matrixio.write_coordinates(_out_path(args, "ca_col_coords.csv"),
                               result.col_coords, headers)
    matrixio.write_labeled_matrix(_out_path(args, "ca_row_masses.csv"),
                                  result.row_masses[:, None],
                                  result.row_coords.point_labels, ["mass"], headers)
    matrixio.write_labeled_matrix(_out_path(args, "ca_col_masses.csv"),
                                  result.col_masses[:, None],
                                  result.col_coords.point_labels, ["mass"], headers)
    sv_labels = [f"s{i + 1}" for i in range(result.singular_values.size)]
    matrixio.write_labeled_matrix(_out_path(args, "ca_singular_values.csv"),
                                  result.singular_values[:, None],
                                  sv_labels, ["value"], headers)
    return 0


def _cmd_pcoa(args: argparse.Namespace) -> int:
    d = matrixio.read_dissimilarity(args.input)
    coords, spectral, metricity = pcoa(d)
    headers = _headers(args, {"input": _basename(args.input)})
    matrixio.write_coordinates(_out_path(args, "pcoa_coords.csv"), coords, headers)
    ev_labels = [f"l{i + 1}" for i in range(spectral.eigenvalues.size)]
    matrixio.write_labeled_matrix(_out_path(args, "pcoa_eigenvalues.csv"),
                                  spectral.eigenvalues[:, None],
                                  ev_labels, ["value"], headers)
    matrixio.write_key_values(_out_path(args, "pcoa_metricity.txt"), {
        "positive_mass": metricity.positive_mass,
        "total_abs_mass": metricity.total_abs_mass,
        "coefficient": metricity.coefficient,
        "axes": coords.dim,
    }, headers)
    return 0


def _cmd_hclust(args: argparse.Namespace) -> int:
    d = matrixio.read_dissimilarity(args.input)
    h = linkage(d, args.criterion)
    headers = _headers(args, {
        "input": _basename(args.input),
        "criterion": args.criterion,
    })
    stem = f"hclust_{args.criterion}"
    _write_dendrogram(args, h, stem, headers)
    heights, joins = join_nodes(h)
    matrixio.write_level_matrix(_out_path(args, f"{stem}_cophenetic.csv"),
                                joins, heights, h.labels, headers)
    return 0


def _cmd_coeffs(args: argparse.Namespace) -> int:
    if (args.coords is None) == (args.distances is None):
        raise CliError("coeffs needs exactly one of --coords or --distances")
    if args.per_triplet and args.coords is None:
        raise CliError("--per-triplet requires --coords")
    if not args.epsilon > 0:
        raise CliError("epsilon must be positive")
    seed = args.seed if args.sample is not None else None
    params = {"epsilon": args.epsilon, "sample": args.sample, "seed": seed}
    if args.coords is not None:
        params["coords"] = _basename(args.coords)
        d = euclidean_distances(matrixio.read_coordinates(args.coords))
    else:
        params["distances"] = _basename(args.distances)
        d = matrixio.read_dissimilarity(args.distances)
    headers = _headers(args, params)
    epsilon = None if args.coords is None else args.epsilon

    def stream(name: str, *header: str):
        return matrixio.table_stream(_out_path(args, name), header, headers)

    # the scan checks its arguments before a table is opened; a later failure removes them
    with contextlib.ExitStack() as tables:
        points = tables.enter_context(
            stream("treves_hartmann.csv", "min_over_max", "med_over_max", "max_minus_med"))
        verdicts = tables.enter_context(stream(
            "coeffs_triplets.csv", "i", "j", "k", "apex", "base_angle_diff", "ultrametric",
        )) if args.per_triplet else None
        alpha, lerman, kept, skipped = coefficient_scan(
            d, epsilon, args.sample, seed, points=points, verdicts=verdicts)
        if epsilon is not None and alpha is None:
            raise CliError("every examined triplet was degenerate")
        rammal = rammal_index(d)
    report: dict[str, object] = {"alpha": "unavailable (requires coordinates)"}
    if alpha is not None:
        report = {"alpha": alpha.alpha, "alpha_counted": alpha.counted,
                  "alpha_excluded_degenerate": alpha.excluded_degenerate}
    report.update({
        "epsilon": args.epsilon,
        "sampled": args.sample is not None,
        "sample": args.sample,
        "seed": seed,
        "rammal": rammal,
        "lerman_h": lerman,
        "lerman_h_definition": "mean((rank(max)-rank(med))/(pairs-1)) over triplets",
        "treves_hartmann_points": kept,
        "treves_hartmann_skipped_zero_max": skipped,
    })
    matrixio.write_key_values(_out_path(args, "coeffs_report.txt"), report, headers)
    return 0


def _cmd_consensus(args: argparse.Namespace) -> int:
    if len(args.criteria) < 2:
        raise CliError("consensus needs at least two criteria")
    d = matrixio.read_dissimilarity(args.input)
    table = consensus_table(d, args.criteria)
    headers = _headers(args, {
        "input": _basename(args.input),
        "criteria": ",".join(args.criteria),
        "tie_tolerance": DEFAULT_TIE_TOLERANCE,
        "consensus_rule": "per-pair minimum then min-max path closure",
    })
    matrixio.write_labeled_matrix(_out_path(args, "consensus_table.csv"),
                                  table.counts, table.criteria, table.criteria,
                                  headers)
    crit_a, crit_b = args.criteria[0], args.criteria[1]
    pair_headers = headers + [f"pair_detail: {crit_a},{crit_b}"]
    skipped, ultrametric, rows = table.pair_scan()
    with matrixio.table_stream(_out_path(args, "consensus_matched.csv"),
                               ["i", "j", "k", "base_i", "base_j", "apex"],
                               pair_headers + [f"skipped_ties: {skipped}"]) as write:
        for block in rows:
            write([block])
            del block  # before the next window is built
    del table, rows  # the criteria's trees and matrices, before the dendrogram's sort
    # the float route: with -0.0 in the input, the tree's cophenetic can flip a zero's sign
    matrixio.write_dissimilarity(_out_path(args, "consensus_ultrametric.csv"),
                                 ultrametric, pair_headers)
    tree = consensus_dendrogram(ultrametric)
    _write_dendrogram(args, tree, "consensus", pair_headers)
    return 0


def _cmd_uca(args: argparse.Namespace) -> int:
    if len(args.criteria) != 2:
        raise CliError("uca needs exactly two criteria")
    coords = matrixio.read_coordinates(args.coords)
    retained, profile = ultrametric_component(
        coords, args.criteria[0], args.criteria[1], args.epsilon
    )
    headers = _headers(args, {
        "coords": _basename(args.coords),
        "criteria": ",".join(args.criteria),
        "epsilon": args.epsilon,
    })
    labels = np.array(coords.point_labels, dtype=object)
    matrixio.write_table(_out_path(args, "uca_listing.csv"),
                         ["base1", "base2", "apex", "angle_diff_radians"],
                         [labels[retained["base1"]], labels[retained["base2"]],
                          labels[retained["apex"]], retained["base_angle_diff"]], headers)
    diffs, step = profile.sorted_diffs, matrixio.CHUNK_CELLS
    with matrixio.table_stream(_out_path(args, "uca_profile.csv"), ["rank", "angle_diff_radians"],
                               headers + [f"count_at_threshold: {profile.count_at_threshold}"]
                               ) as write:
        for lo in range(0, diffs.size, step):  # a rank column per block, not per profile
            write([np.arange(lo + 1, min(lo + step, diffs.size) + 1), diffs[lo:lo + step]])
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    d = matrixio.read_dissimilarity(args.input)
    base = {"input": _basename(args.input), "method": args.method}
    cailliez = power = None
    if args.method == "both":
        try:
            cailliez, power = metric_repairs(d)
        except ValueError as exc:
            print(f"umtk: skipping power repair: {exc}", file=sys.stderr)
            cailliez = cailliez_additive(d)
    elif args.method == "cailliez":
        cailliez = cailliez_additive(d)
    else:
        power = power_shrink(d)
    if cailliez is not None:
        headers = _headers(args, base | {"additive_constant": cailliez[1]})
        matrixio.write_dissimilarity(_out_path(args, "transform_cailliez.csv"),
                                     cailliez[0], headers)
    if power is not None:
        headers = _headers(args, base | {"exponent": power[1], "r_tolerance": POWER_R_TOLERANCE})
        matrixio.write_dissimilarity(_out_path(args, "transform_power.csv"), power[0], headers)
    return 0


def _cmd_mirror(args: argparse.Namespace) -> int:
    if args.rows < 2 or args.cols < 2:
        raise CliError("mirror needs rows >= 2 and cols >= 2")
    table = random_mirror(args.rows, args.cols, args.seed)
    headers = _headers(args, {"rows": args.rows, "cols": args.cols, "seed": args.seed})
    matrixio.write_frequency(_out_path(args, "mirror.csv"), table, headers)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "criteria", None) is not None:
            args.criteria = [c.strip() for c in args.criteria.split(",") if c.strip()]
        return args.run(args)
    except (CliError, ValueError, KeyError) as exc:
        print(f"umtk: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"umtk: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    # import-time objects are never garbage: frozen, no collection walks them, not even at exit
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
