#!/usr/bin/env python3
"""umtk benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload agreement --seed 1 --seconds 36 --trace 0

Each workload is a fixed sequence of real umtk processes (`python -m
umtk.cli ...` with PYTHONPATH=src, plus scripts/mirror_pipeline.py) on
inputs generated from --seed. With --trace 0 the sequence is repeated
until --seconds have passed (at least twice), a no-work `--help` process
is timed before every repetition, a fixed reference process
(perfbench/reference.py) runs before every timed process, and the
end-to-end metrics are reported, the times scaled to a fixed host speed
by the reference runs (see end_to_end). With --trace 1 each repetition
runs the sequence twice, untraced and then under perfbench/tracer.py,
and the per-layer metrics of the traced runs are reported instead.

Every command's output is checked (perfbench/checks.py) and compared
byte for byte with the first repetition; a command that exits non-zero
or fails a check counts as failed. The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}; the line
before it records the interpreter, library versions, CPU count, load
average and the generated inputs.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy loads, here and in every child.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CLI = SRC / "umtk" / "cli.py"
MIRROR_SCRIPT = ROOT / "scripts" / "mirror_pipeline.py"
TRACER = HERE / "tracer.py"
LAUNCHER = HERE / "launcher.py"
REFERENCE = HERE / "reference.py"
WORK_ROOT = ROOT / ".perfbench_work"

sys.path.insert(0, str(SRC))  # the consensus check recomputes linkages with umtk
import checks  # noqa: E402
import inputs  # noqa: E402

WORKLOADS = ("agreement", "triplet-dump", "dense-matrix")

#: Input sizes. "full" is what the benchmark measures; "toy" is for the self-check.
SIZES = {
    "full": {"agreement": 100, "triplet-dump": 110, "dense-matrix": 600,
             "sample": 200_000, "mirror": []},
    "toy": {"agreement": 16, "triplet-dump": 16, "dense-matrix": 40,
            "sample": 2_000, "mirror": ["--rows", "40", "--cols", "200"]},
}

CONSENSUS_CRITERIA = ["ward", "single", "average", "complete"]
UCA_CRITERIA = ["ward", "single"]

#: Untraced runs repeat the sequence at least twice, so every run compares
#: two sets of outputs byte for byte; a traced run compares its traced
#: outputs with its untraced ones instead.
MIN_REPETITIONS = {False: 2, True: 1}
#: Every process is killed once the run is this old, so a hung command
#: cannot keep the run past its limit.
RUN_LIMIT_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "output_mb": "MiB"}

#: Wall time of perfbench/reference.py on an idle 2-vCPU Xeon guest (Python
#: 3.11, numpy 2.4). End-to-end times are reported at this host speed: each
#: run divides its measured times by its own mean reference time over REF_S.
REF_S = 0.8

#: Layers reported by self time; a layer's self time excludes its traced children.
LAYER_TIMES = [
    "consensus.consensus_count", "consensus.consensus_table",
    "consensus.consensus_ultrametric", "consensus.consensus_dendrogram",
    "component.ultrametric_component",
    "triplets.iter_triplet_chunks", "triplets.sample_triplets",
    "ultrametricity.alpha_epsilon", "ultrametricity.lerman_h",
    "ultrametricity.treves_hartmann_points", "ultrametricity.scan_triplet_verdicts",
    "ultrametricity.rammal_index",
    "transforms.check_ultrametric", "transforms.cailliez_additive", "transforms.power_shrink",
    "matrixio.read_rows", "matrixio.read_labeled_matrix",
    "matrixio.write_rows", "matrixio.write_labeled_matrix",
    "hierarchy.linkage.ward", "hierarchy.linkage.single", "hierarchy.linkage.average",
    "hierarchy.linkage.complete", "hierarchy.linkage.mcquitty",
    "hierarchy.cophenetic", "hierarchy.minmax_path_closure", "hierarchy.export_newick",
    "matrices.euclidean_distances", "spectral.correspondence_analysis", "corpus.random_mirror",
]

#: Counted work: metric -> (layer, field, unit).
LAYER_COUNTS = {
    "consensus.consensus_count.calls": ("consensus.consensus_count", "calls", "count"),
    "consensus.consensus_count.triplets": ("consensus.consensus_count", "triplets", "count"),
    "consensus.consensus_count.matched": ("consensus.consensus_count", "matched", "count"),
    "consensus.consensus_count.skipped_ties": ("consensus.consensus_count", "skipped_ties", "count"),
    "consensus.consensus_count.rss_growth_mb": ("consensus.consensus_count", "rss_growth_mb", "MiB"),
    "component.ultrametric_component.retained": ("component.ultrametric_component", "retained", "count"),
    "component.ultrametric_component.profile_rows": ("component.ultrametric_component", "profile_rows", "count"),
    "component.ultrametric_component.rss_growth_mb": ("component.ultrametric_component", "rss_growth_mb", "MiB"),
    "triplets.iter_triplet_chunks.scans": ("triplets.iter_triplet_chunks", "scans", "count"),
    "triplets.iter_triplet_chunks.chunks": ("triplets.iter_triplet_chunks", "chunks", "count"),
    "triplets.iter_triplet_chunks.triplets": ("triplets.iter_triplet_chunks", "triplets", "count"),
    "triplets.sample_triplets.draws": ("triplets.sample_triplets", "draws", "count"),
    "ultrametricity.alpha_epsilon.degenerate": ("ultrametricity.alpha_epsilon", "degenerate", "count"),
    "ultrametricity.scan_triplet_verdicts.rows": ("ultrametricity.scan_triplet_verdicts", "rows", "count"),
    "ultrametricity.scan_triplet_verdicts.rss_growth_mb": ("ultrametricity.scan_triplet_verdicts", "rss_growth_mb", "MiB"),
    "matrixio.write_rows.rows": ("matrixio.write_rows", "rows", "count"),
    "matrixio.write_rows.bytes": ("matrixio.write_rows", "bytes", "B"),
    "matrixio.write_labeled_matrix.cells": ("matrixio.write_labeled_matrix", "cells", "count"),
    "matrixio.write_labeled_matrix.bytes": ("matrixio.write_labeled_matrix", "bytes", "B"),
    "matrixio.read_labeled_matrix.cells": ("matrixio.read_labeled_matrix", "cells", "count"),
}

#: Useful outcomes over attempts: metric -> (layer, numerator, denominator).
LAYER_RATIOS = {
    "consensus.consensus_count.match_ratio": ("consensus.consensus_count", "matched", "triplets"),
    "component.ultrametric_component.retained_ratio": ("component.ultrametric_component", "retained", "profile_rows"),
}

#: Root span of each command; `.s` is its traced time, `.self_s` the part no layer covers.
TOP_SPANS = ["cli.consensus", "cli.uca", "cli.coeffs", "cli.transform", "cli.hclust",
             "script.mirror_pipeline"]

#: Modules whose cumulative import time `python -X importtime` reports.
IMPORTS = ["umtk.cli", "umtk.matrices", "umtk.ultrametricity"]


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in reporting order."""
    units = {f"{layer}.s": "s" for layer in LAYER_TIMES}
    units.update({name: unit for name, (_, _, unit) in LAYER_COUNTS.items()})
    units.update({name: "ratio" for name in LAYER_RATIOS})
    for top in TOP_SPANS:
        units[f"{top}.s"] = "s"
        units[f"{top}.self_s"] = "s"
    units.update({f"import.{mod}.s": "s" for mod in IMPORTS})
    units["trace.unlisted_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


@dataclass
class Command:
    """One process of a workload; `args` go to umtk.cli, or to `script`."""

    name: str
    args: list[str]
    out: Path
    check: Callable[[Path, dict], list[str]]
    ctx: dict = field(default_factory=dict)
    script: Path | None = None


@dataclass
class Workload:
    commands: Callable[[Path], list[Command]]
    inputs: list[dict]


def _agreement(work: Path, seed: int, size: dict) -> Workload:
    n = size["agreement"]
    points = inputs.clustered_cloud(n, seed)
    rounded = np.rint(inputs.distances(points))
    inputs.write_coordinates(work / "cloud.csv", points)
    inputs.write_distances(work / "cloud_rounded.csv", rounded)
    ctx = {"n": n, "criteria": CONSENSUS_CRITERIA, "distances": rounded}

    def commands(out: Path) -> list[Command]:
        return [
            Command("consensus", ["consensus", "--input", str(work / "cloud_rounded.csv"),
                                  "--criteria", ",".join(CONSENSUS_CRITERIA)],
                    out / "consensus", checks.check_consensus, ctx),
            Command("uca", ["uca", "--coords", str(work / "cloud.csv"),
                            "--criteria", ",".join(UCA_CRITERIA)],
                    out / "uca", checks.check_uca, {"n": n}),
        ]

    return Workload(commands, [inputs.describe("cloud_rounded.csv", rounded),
                               inputs.describe("cloud.csv", points)])


def _triplet_dump(work: Path, seed: int, size: dict) -> Workload:
    n = size["triplet-dump"]
    points = inputs.clustered_cloud(n, seed)
    squared = inputs.distances(points) ** 2
    inputs.write_coordinates(work / "cloud.csv", points)
    inputs.write_distances(work / "cloud_squared.csv", squared)

    def commands(out: Path) -> list[Command]:
        return [
            Command("coeffs", ["coeffs", "--coords", str(work / "cloud.csv"), "--per-triplet"],
                    out / "coeffs", checks.check_coeffs, {"n": n, "per_triplet": True}),
            Command("transform", ["transform", "--input", str(work / "cloud_squared.csv"),
                                  "--method", "both"],
                    out / "transform", checks.check_transform, {"n": n}),
        ]

    return Workload(commands, [inputs.describe("cloud.csv", points),
                               inputs.describe("cloud_squared.csv", squared)])


def _dense_matrix(work: Path, seed: int, size: dict) -> Workload:
    n, sample = size["dense-matrix"], size["sample"]
    d = inputs.distances(inputs.gaussian_cloud(n, seed))
    inputs.write_distances(work / "dense.csv", d)

    def commands(out: Path) -> list[Command]:
        return [
            Command("hclust", ["hclust", "--input", str(work / "dense.csv"), "--criterion", "ward"],
                    out / "hclust", checks.check_hclust, {"n": n, "criterion": "ward"}),
            Command("coeffs", ["coeffs", "--distances", str(work / "dense.csv"),
                               "--sample", str(sample), "--seed", str(seed)],
                    out / "coeffs", checks.check_coeffs, {"n": n, "sample": sample}),
            Command("mirror_pipeline", list(size["mirror"]), out / "mirror_pipeline",
                    checks.check_mirror, script=MIRROR_SCRIPT),
        ]

    return Workload(commands, [inputs.describe("dense.csv", d)])


WORKLOAD_SPECS = {"agreement": _agreement, "triplet-dump": _triplet_dump, "dense-matrix": _dense_matrix}


@dataclass
class Proc:
    wall_s: float
    rss_mb: float
    status: int


class Runner:
    """Runs the benchmark's processes one at a time through perfbench/launcher.py.

    The launcher runs in its own process group with the children's
    environment, so close() can stop it together with a running child.
    """

    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env["PYTHONPATH"] = str(SRC)
        self.launcher = subprocess.Popen(
            [sys.executable, str(LAUNCHER)], cwd=ROOT, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, start_new_session=True)

    def close(self) -> None:
        """Let the launcher finish; stop it and its child if it has not within 5 s."""
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=5)
        except subprocess.TimeoutExpired:
            os.killpg(self.launcher.pid, signal.SIGKILL)
            self.launcher.wait()
        self.launcher.stdout.close()

    def spawn(self, argv: list[str], out: Path) -> Proc:
        """Run argv with stdout/stderr captured into `out`; time it from spawn to exit."""
        out.mkdir(parents=True, exist_ok=True)
        timeout = max(self.deadline - time.monotonic(), 1.0)
        request = {"argv": argv, "out": str(out), "timeout": timeout}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the process launcher exited")
        return Proc(**json.loads(reply))

    def run_command(self, cmd: Command, spans: Path | None = None) -> Proc:
        target = [str(cmd.script)] if cmd.script else ["-m", "umtk.cli"]
        if spans is not None:
            script = ["--script", str(cmd.script)] if cmd.script else []
            target = [str(TRACER), str(spans), *script, "--"]
        out_args = [] if cmd.script else ["--out", str(cmd.out)]
        return self.spawn([sys.executable, *target, *cmd.args, *out_args], cmd.out)

    def reference(self, scratch: Path) -> tuple[float, str]:
        """Wall time and checksum of one perfbench/reference.py process."""
        proc = self.spawn([sys.executable, str(REFERENCE)], scratch)
        text = (scratch / "stdout.txt").read_text(encoding="utf-8").strip()
        if proc.status != 0 or not text:
            raise RuntimeError("perfbench/reference.py failed: "
                               + (scratch / "stderr.txt").read_text(encoding="utf-8")[-400:])
        return proc.wall_s, text

    def help_probe(self, scratch: Path) -> float:
        """Wall time of a no-work `python -m umtk.cli --help` process."""
        proc = self.spawn([sys.executable, "-m", "umtk.cli", "--help"], scratch)
        text = (scratch / "stdout.txt").read_text(encoding="utf-8")
        if proc.status != 0 or "usage:" not in text:
            raise RuntimeError("umtk.cli --help failed: "
                               + (scratch / "stderr.txt").read_text(encoding="utf-8")[-400:])
        return proc.wall_s

    def import_probe(self, scratch: Path) -> dict[str, float]:
        """Cumulative import seconds of IMPORTS from `python -X importtime`."""
        proc = self.spawn([sys.executable, "-X", "importtime", "-c", "import umtk.cli"], scratch)
        if proc.status != 0:
            raise RuntimeError("import umtk.cli failed")
        found = {}
        for line in (scratch / "stderr.txt").read_text(encoding="utf-8").splitlines():
            parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[2] in IMPORTS:
                found[parts[2]] = int(parts[1]) / 1e6
        return found


@dataclass
class Pass:
    """One execution of a workload's command sequence."""

    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    output_bytes: int = 0
    cmd_s: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    failed: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)
    tops: dict = field(default_factory=dict)
    consensus_calls: list = field(default_factory=list)


def run_pass(runner: Runner, commands: list[Command], full_check: bool,
             spans_dir: Path | None = None,
             reference: Callable[[], float] | None = None) -> Pass:
    """Run each command, check it, record its digest and size, delete its output.

    `reference`, if given, runs before every command.
    """
    result = Pass()
    for cmd in commands:
        if reference is not None:
            reference()
        spans = spans_dir / f"{cmd.name}.json" if spans_dir else None
        proc = runner.run_command(cmd, spans)
        result.wall_s += proc.wall_s
        result.cmd_s[cmd.name] = proc.wall_s
        result.peak_rss_mb = max(result.peak_rss_mb, proc.rss_mb)
        problems = [] if proc.status == 0 else [
            f"exit status {proc.status}: "
            + (cmd.out / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-400:]]
        if not problems:
            if full_check:
                problems = cmd.check(cmd.out, cmd.ctx)
            result.digests[cmd.name] = checks.digest(cmd.out)
            result.output_bytes += checks.output_bytes(cmd.out)
        if spans is not None and not problems:
            traced = json.loads(spans.read_text(encoding="utf-8"))
            result.tops[traced["top"]] = traced["layers"].pop(traced["top"])
            for name, layer in traced["layers"].items():
                merged = result.layers.setdefault(name, {})
                for key, value in layer.items():
                    merged[key] = max(merged.get(key, 0), value) if key == "rss_growth_mb" \
                        else merged.get(key, 0) + value
            result.consensus_calls += [dict(c, command=cmd.name)
                                       for c in traced["consensus_calls"]]
        if problems:
            result.failed[cmd.name] = "; ".join(problems)
        shutil.rmtree(cmd.out, ignore_errors=True)
    return result


def check_repeat(first: Pass, later: Pass) -> None:
    """Outputs of a repetition must be byte-identical to the first one's."""
    for name, value in later.digests.items():
        if first.digests.get(name) not in (None, value):
            later.failed.setdefault(name, "output differs from the first repetition")


def layer_metrics(p: Pass) -> dict[str, float]:
    """Per-layer values of one traced pass (times, counts and ratios)."""
    def get(layer: str, key: str) -> float:
        return p.layers.get(layer, {}).get(key, 0)

    values = {f"{layer}.s": get(layer, "self_s") for layer in LAYER_TIMES}
    values.update({name: get(layer, key) for name, (layer, key, _) in LAYER_COUNTS.items()})
    for name, (layer, num, den) in LAYER_RATIOS.items():
        values[name] = get(layer, num) / get(layer, den) if get(layer, den) else 0.0
    for top in TOP_SPANS:
        values[f"{top}.s"] = p.tops.get(top, {}).get("total_s", 0.0)
        values[f"{top}.self_s"] = p.tops.get(top, {}).get("self_s", 0.0)
    listed = set(LAYER_TIMES)
    values["trace.unlisted_s"] = sum(layer["self_s"] for name, layer in p.layers.items()
                                     if name not in listed)
    return values


def tie_shares(calls: list[dict]) -> list[dict]:
    """skipped_ties / triplets of every consensus_count call, labelled by criterion pair."""
    table_pairs = [(a, b) for i, a in enumerate(CONSENSUS_CRITERIA)
                   for b in CONSENSUS_CRITERIA[i:]]
    out = []
    for call in calls:
        if call["command"] == "mirror_pipeline":
            continue
        if call["parent"] == "consensus.consensus_table":
            pair = table_pairs[len(out)]
        else:
            pair = UCA_CRITERIA if call["command"] == "uca" else CONSENSUS_CRITERIA[:2]
        out.append({"command": call["command"], "pair": "/".join(pair),
                    "tie_share": call["skipped_ties"] / call["triplets"]})
    return out


def _median(values) -> float:
    return float(statistics.median(values))


@dataclass
class Collected:
    """Everything one run measured, before it is reduced to metrics."""

    passes: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    setup: list = field(default_factory=list)
    setup_ref: list = field(default_factory=list)
    imports: list = field(default_factory=list)
    ref_s: list = field(default_factory=list)
    ref_sums: set = field(default_factory=set)


def collect(runner: Runner, commands: list[Command], work: Path, seconds: float,
            trace: bool, started: float) -> Collected:
    """Repeat the workload until another repetition would end after `seconds`.

    Untraced, a reference process runs before every timed process and once
    after the last, so the reference samples the host's speed all through
    the timed work.
    """
    got = Collected()
    probe_dir = work / "probe"

    def reference() -> float:
        wall, checksum = runner.reference(probe_dir)
        got.ref_s.append(wall)
        got.ref_sums.add(checksum)
        return wall

    def setup() -> None:
        got.setup_ref.append(reference())
        got.setup.append(runner.help_probe(probe_dir))

    runner.help_probe(probe_dir)  # fills the bytecode caches before anything is timed
    if trace:
        got.imports = [runner.import_probe(probe_dir) for _ in range(3)]
    else:
        runner.reference(probe_dir)
    t0 = time.monotonic()
    while True:
        if not trace:
            setup()
        got.passes.append(run_pass(runner, commands, full_check=not got.passes,
                                   reference=None if trace else reference))
        check_repeat(got.passes[0], got.passes[-1])
        if trace:
            got.traced.append(run_pass(runner, commands, full_check=False,
                                       spans_dir=work / "spans"))
            check_repeat(got.passes[0], got.traced[-1])
        done = len(got.passes)
        projected = (time.monotonic() - t0) * (done + 1) / done
        late = t0 - started + projected > RUN_LIMIT_S - 10
        if done >= MIN_REPETITIONS[trace] and (projected > seconds or late):
            break
    if not trace:
        setup()
        reference()
    return got


def host_factor(got: Collected) -> float:
    """How much slower the host ran during this run than at REF_S."""
    return statistics.fmean(got.ref_s) / REF_S


def end_to_end(got: Collected) -> dict[str, float]:
    """One run's times at the REF_S host speed, and its medians of memory and output.

    The host's speed drifts by tens of percent over minutes, in wall and
    CPU time alike. The reference processes interleaved with the timed
    ones see the same drift, so the run's mean pass time over its mean
    reference time does not. A `--help` probe is short enough to be scaled
    by the reference run just before it.
    """
    return {
        "wall_s": statistics.fmean(p.wall_s for p in got.passes) / host_factor(got),
        "setup_s": _median(h / r for h, r in zip(got.setup, got.setup_ref)) * REF_S,
        "peak_rss_mb": _median(p.peak_rss_mb for p in got.passes),
        "output_mb": _median(p.output_bytes / 2**20 for p in got.passes),
    }


def per_layer(got: Collected) -> dict[str, float]:
    runs = [layer_metrics(p) for p in got.traced]
    values = {name: _median(r[name] for r in runs) for name in runs[0]}
    for mod in IMPORTS:
        values[f"import.{mod}.s"] = _median(probe.get(mod, 0.0) for probe in got.imports)
    values["trace.overhead_s"] = _median(t.wall_s - u.wall_s
                                         for u, t in zip(got.passes, got.traced))
    return values


def measure(workload: str, seed: int, seconds: float, trace: bool, size: dict) -> dict:
    started = time.monotonic()
    env = {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg()[0],
        "workload": workload, "seed": seed, "trace": int(trace),
    }
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT))
    runner = Runner(started + RUN_LIMIT_S)
    try:
        for sub in ("in", "spans"):
            (work / sub).mkdir()
        spec = WORKLOAD_SPECS[workload](work / "in", seed, size)
        commands = spec.commands(work / "out")
        got = collect(runner, commands, work, seconds, trace, started)
    finally:
        runner.close()
        shutil.rmtree(work, ignore_errors=True)

    all_passes = got.passes + got.traced
    if len(got.ref_sums) > 1:
        print("perfbench: FAILED reference: checksums differ between calls", file=sys.stderr)
    for failure in sorted({f"{name}: {why}" for p in all_passes for name, why in p.failed.items()}):
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    attempted = len(commands) * len(all_passes)
    failed = sum(len(p.failed) for p in all_passes) + (len(got.ref_sums) > 1)
    env["repetitions"] = len(got.passes)
    info = {"env": env, "inputs": spec.inputs}
    if trace:
        values, units = per_layer(got), per_layer_units()
        info["tie_shares"] = tie_shares(got.traced[0].consensus_calls)
    else:
        values, units = end_to_end(got), END_TO_END
        info["samples"] = {"wall_s": [p.wall_s for p in got.passes], "setup_s": got.setup,
                           "reference_s": got.ref_s}
        info["host_factor"] = host_factor(got)
        # The per-command times and the failed share are not metrics of every
        # workload, so they are printed here rather than in the result line.
        summary = [(name, values[name], unit) for name, unit in units.items()]
        summary += [("host_factor", info["host_factor"], "x"),
                    ("measured_wall_s", statistics.fmean(p.wall_s for p in got.passes), "s")]
        summary += [(f"{name}_s", _median(p.cmd_s[name] for p in got.passes)
                     / info["host_factor"], "s") for name in got.passes[0].cmd_s]
        summary.append(("ops_failed", failed / attempted, "share"))
        for name, value, unit in summary:
            print(f"perfbench: {name:>18} {value:12.4f} {unit}", file=sys.stderr)
        info["summary"] = {name: value for name, value, _ in summary}
    print(json.dumps(info, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input sizes; 'toy' is for the self-check")
    args = parser.parse_args(argv)
    # A terminated run still stops its launcher and child (see Runner.close).
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    missing = [str(p.relative_to(ROOT)) for p in (CLI, MIRROR_SCRIPT) if not p.is_file()]
    if missing:
        print(f"perfbench: program not found: {', '.join(missing)}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), SIZES[args.size])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
