"""Span tracer for umtk, installed from outside the program.

Run one umtk command in this process with every public function of the
library modules wrapped in a span:

    python perfbench/tracer.py SPANS.json -- consensus --input d.csv ...
    python perfbench/tracer.py SPANS.json --script scripts/mirror_pipeline.py --

The wrappers replace the original function objects in every loaded
`umtk` namespace that binds them (so `from .consensus import
consensus_count` in another module is traced too) before the command
runs. Nested calls become child spans; a span's self time is its
duration minus the time its children cover. Generator functions get one
span per resumption, charged as a child of whichever span pulls the next
item. The per-name aggregates are written to SPANS.json.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import os
import resource
import runpy
import sys
import time
from collections.abc import Sized
from pathlib import Path

import numpy as np

#: Library modules whose public functions are traced.
TRACED_MODULES = (
    "component", "consensus", "corpus", "hierarchy", "matrices", "matrixio",
    "rng", "spectral", "transforms", "triplets", "ultrametricity",
)

#: Helpers called once per value, cell or draw: a span each would cost
#: more than the work it measures, so their time stays in the caller.
UNTRACED = {
    "matrixio.format_float", "matrixio.format_value",
    "rng.mix64", "rng.value_at",
}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _count_rows(rows):
    """(rows, counter) for write_rows; a one-shot iterable is counted as consumed."""
    box = {"rows": 0}
    if isinstance(rows, Sized):
        box["rows"] = len(rows)
        return rows, box

    def counted():
        for row in rows:
            box["rows"] += 1
            yield row

    return counted(), box


def _counts(name: str, args: dict, result, rows_box: dict | None) -> dict:
    """Work done by one call, for the layers whose counts are reported."""
    if name == "consensus.consensus_count":
        return {"triplets": result.total_triplets, "matched": result.matched,
                "skipped_ties": result.skipped_ties}
    if name == "component.ultrametric_component":
        retained, profile = result
        return {"retained": len(retained), "profile_rows": int(profile.sorted_diffs.size)}
    if name == "triplets.sample_triplets":
        return {"draws": int(result[0].size)}
    if name == "ultrametricity.alpha_epsilon":
        return {"degenerate": result.excluded_degenerate}
    if name == "ultrametricity.scan_triplet_verdicts":
        return {"rows": len(result)}
    if name == "matrixio.write_rows":
        return {"rows": rows_box["rows"], "bytes": os.path.getsize(args["path"])}
    if name == "matrixio.write_labeled_matrix":
        return {"cells": int(np.size(args["values"])), "bytes": os.path.getsize(args["path"])}
    if name == "matrixio.read_labeled_matrix":
        return {"cells": int(result[0].size)}
    return {}


class Tracer:
    """Open-span stack plus per-name aggregates of closed spans."""

    def __init__(self) -> None:
        self.stack: list[dict] = []
        self.layers: dict[str, dict] = {}
        self.consensus_calls: list[dict] = []
        self.signatures: dict[str, inspect.Signature] = {}

    def _open(self, name: str) -> dict:
        span = {"name": name, "child_s": 0.0, "rss0": _maxrss_mb(),
                "parent": self.stack[-1]["name"] if self.stack else None,
                "t0": time.perf_counter()}
        self.stack.append(span)
        return span

    def _close(self, span: dict, counts: dict) -> None:
        elapsed = time.perf_counter() - span["t0"]
        self.stack.pop()
        if self.stack:
            self.stack[-1]["child_s"] += elapsed
        layer = self.layers.setdefault(span["name"], {
            "total_s": 0.0, "self_s": 0.0, "calls": 0, "rss_growth_mb": 0.0})
        layer["total_s"] += elapsed
        layer["self_s"] += elapsed - span["child_s"]
        layer["calls"] += 1
        layer["rss_growth_mb"] = max(layer["rss_growth_mb"], _maxrss_mb() - span["rss0"])
        for key, value in counts.items():
            layer[key] = layer.get(key, 0) + value
        if span["name"] == "consensus.consensus_count":
            self.consensus_calls.append({"parent": span["parent"], **counts})

    def call(self, name: str, fn, args, kwargs):
        bound = self.signatures[name].bind(*args, **kwargs)
        span_name = name
        if name == "hierarchy.linkage":
            span_name = f"{name}.{bound.arguments['criterion']}"
        rows_box = None
        if name == "matrixio.write_rows":
            bound.arguments["rows"], rows_box = _count_rows(bound.arguments["rows"])
        span = self._open(span_name)
        counts: dict = {}
        try:
            result = fn(*bound.args, **bound.kwargs)
            counts = _counts(name, bound.arguments, result, rows_box)
            return result
        finally:
            self._close(span, counts)

    def iterate(self, name: str, gen):
        """Re-yield a generator's items, one child span per resumption."""
        counts = {"scans": 1}
        while True:
            span = self._open(name)
            try:
                item = next(gen)
            except StopIteration:
                self._close(span, counts)
                return
            if name == "triplets.iter_triplet_chunks":
                counts.update(chunks=1, triplets=int(item[0].size))
            self._close(span, counts)
            counts = {}
            yield item

    def wrap(self, name: str, fn):
        self.signatures[name] = inspect.signature(fn)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return self.iterate(name, fn(*args, **kwargs))
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap the public functions and rebind them in every umtk namespace."""
        importlib.import_module("umtk.cli")
        wrappers: dict[int, object] = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"umtk.{short}")
            for attr, obj in vars(module).items():
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in UNTRACED
                        or not inspect.isfunction(obj) or obj.__module__ != module.__name__):
                    continue
                wrappers[id(obj)] = self.wrap(name, obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "umtk" and not mod_name.startswith("umtk."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in wrappers:
                    setattr(module, attr, wrappers[id(obj)])

    def run_top(self, name: str, fn):
        """Run the command as the root span; returns its exit status."""
        span = self._open(name)
        try:
            return fn()
        finally:
            self._close(span, {})


def _run_script(path: str, args: list[str]) -> int:
    saved = sys.argv
    sys.argv = [path, *args]
    try:
        runpy.run_path(path, run_name="__main__")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.argv = saved
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        sys.exit("usage: tracer.py SPANS.json [--script PATH] -- ARGS...")
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spans", help="file to write the per-layer aggregates to")
    parser.add_argument("--script", help="run this script instead of umtk.cli")
    opts = parser.parse_args(argv[:split])
    args = argv[split + 1:]
    tracer = Tracer()
    tracer.install()
    if opts.script:
        top = f"script.{Path(opts.script).stem}"
        status = tracer.run_top(top, lambda: _run_script(opts.script, args))
    else:
        from umtk import cli
        top = f"cli.{args[0]}"
        status = tracer.run_top(top, lambda: cli.main(args))
    Path(opts.spans).write_text(json.dumps({
        "top": top, "status": status, "layers": tracer.layers,
        "consensus_calls": tracer.consensus_calls,
    }, indent=1), encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
