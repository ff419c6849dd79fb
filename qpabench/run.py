"""Run one seeded qpasim benchmark workload and print its metrics.

    python3 qpabench/run.py --workload acquisition --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout that holds ``src/qpasim``.  It prints a
readable report, then as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The full report (environment, seeds, config hash, digests,
per-iteration figures and, when traced, every span) is written to
``qpabench/out/``.  Exit code 2 means the package could not be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import traceback
import warnings
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# one process, BLAS held to one thread, so timings do not depend on how many
# cores the shared machine happens to have free
BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
IMPORT_REPEATS = 15
SETUP_REPEATS = 5
MIN_ITERATIONS = 3
MIN_TRACED_ITERATIONS = 2

RESIDUAL_NOTE = (
    "squeezing_residual_db and antisqueezing_residual_db are reported, not gated. They are large "
    "because sample_pixel_streams adds each channel's vacuum noise independently, while in a "
    "unitary embedding the vacuum parts of channels j and k are correlated (ROADMAP.md: make the "
    "sampled path agree with the covariance oracle)."
)

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "t = time.perf_counter()\n"
    "import adapter\n"
    "print(repr(time.perf_counter() - t))\n"
)

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "csv_rows_per_s": "1/s", "binary_mb_per_s": "MB/s",
                    "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_seconds() -> float:
    """Time to import the package and numpy in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes["L%s" % level] = size
    return sizes or {"unknown": "cache sizes not readable"}


def environment() -> dict:
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "load": "one benchmark process",
        "blas_thread_pin": {k: os.environ.get(k) for k in BLAS_PIN},
        "cpu_pinning": "none (shared machine)",
        "file_writes": "page cache, not fsync'd",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "caches": cache_sizes(),
        "platform": platform.platform(),
    }


def self_times(spans) -> dict:
    """Span id -> duration minus the durations of its child spans."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] is not None and s[4] in own:
            own[s[4]] -= s[3] - s[2]
    return own


def rate(work, seconds):
    return work / seconds


def unit_totals(iters) -> dict:
    """Sum over an iteration's units of each unit's best time across iterations.

    On a shared machine other tenants only ever slow a unit down, and they do
    so in spells of seconds to minutes.  The units are short (tens of
    milliseconds for most), so each one's best time is found even in a run
    that is slowed for long spells; it moves far less from run to run than a
    median or a quartile does.
    """
    total = {"wall_s": 0.0, "csv_s": 0.0, "csv_rows": 0, "binary_s": 0.0, "binary_bytes": 0}
    for unit, first in iters[0]["units"].items():
        for key in ("wall_s", "csv_s", "binary_s"):
            total[key] += min(it["units"][unit][key] for it in iters)
        total["csv_rows"] += first["csv_rows"]
        total["binary_bytes"] += first["binary_bytes"]
    return total


def end_to_end(iters, setup_s, peak_rss_mb) -> dict:
    total = unit_totals(iters)
    values = {"setup_s": setup_s, "wall_s": total["wall_s"],
              "csv_rows_per_s": rate(total["csv_rows"], total["csv_s"]),
              "binary_mb_per_s": rate(total["binary_bytes"] / 1e6, total["binary_s"]),
              "peak_rss_mb": peak_rss_mb}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def reported_only(name, iters, wall_s) -> dict:
    """Figures that are printed but not gated: the throughputs that are a fixed
    multiple of 1 / wall_s at this input size, the residuals and the failure share."""
    out = {}
    if name == "acquisition":
        chain = ("receiver.sample_pixel_streams", "receiver.combine_rf.records", "receiver.write_records_binary")
        out["samples_per_s"] = max(
            rate(it["stats"]["receiver.sample_pixel_streams"]["samples"], sum(it["stats"][s]["busy_s"] for s in chain))
            for it in iters)
    if name == "design_sweep":
        out["scenarios_per_s"] = sum(unit.startswith("scenario") for unit in iters[0]["units"]) / wall_s
    out["squeezing_residual_db"] = iters[-1]["squeezing_residual_db"]
    out["antisqueezing_residual_db"] = iters[-1]["antisqueezing_residual_db"]
    calls = sum(it["calls"] for it in iters)
    out["failed_op_share"] = sum(it["failed"] for it in iters) / calls
    return out


def per_layer(iters, spans) -> dict:
    from adapter import LAYERS

    n = len(iters)
    units = {"calls": "count", "failed": "count", "busy_s": "s", "strips": "count", "samples": "count",
             "bytes": "B", "rows": "count", "rss_hw_before_mb": "MB", "rss_hw_after_mb": "MB"}
    metrics = {}
    for layer, extra in LAYERS.items():
        total = {key: sum(it["stats"][layer][key] for it in iters) for key in ("calls", "failed", "busy_s") + extra}
        for key, value in total.items():
            if key == "missed":
                metrics[layer + ".miss_share"] = (value / total["calls"] if total["calls"] else 0.0, "share")
            else:
                metrics["%s.%s" % (layer, key)] = (value / n, units[key])
    own = self_times(spans)
    bench_self = sum(own[s[0]] for s in spans if s[1].startswith("bench.") and s[1] not in LAYERS)
    layer_busy = sum(it["stats"][layer]["busy_s"] for it in iters for layer in LAYERS)
    traced_wall = sum(it["wall_s"] for it in iters)
    metrics["bench.self_s"] = (bench_self / n, "s")
    metrics["trace.explained_share"] = (layer_busy / traced_wall, "share")
    metrics["trace.spans"] = (len(spans) / n, "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qpasim" / "__init__.py").is_file():
        print("error: %s/qpasim not found; run from the root of a qpasim checkout" % SRC, file=sys.stderr)
        return 2
    for key, value in BLAS_PIN.items():
        os.environ[key] = value
    sys.path[:0] = [str(SRC), str(HERE)]

    t_import = time.perf_counter()
    import numpy as np  # noqa: F401  (imported here, after the BLAS pin)

    import adapter
    import workloads
    t_import = time.perf_counter() - t_import

    if not Path(adapter.aperture.__file__).resolve().is_relative_to(SRC.resolve()):
        print("error: qpasim was imported from %s, not from %s" % (adapter.aperture.__file__, SRC), file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r (one of %s)" % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2
    warnings.filterwarnings("ignore", message="beam footprint misses the aperture")

    OUT.mkdir(exist_ok=True)
    workdir = OUT / ("tmp-%d" % os.getpid())
    workdir.mkdir()
    try:
        return run(args, adapter, workloads, workdir, t_import)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, adapter, workloads, workdir, t_import) -> int:
    cls = workloads.WORKLOADS[args.workload]
    probe = adapter.Probe(args.workload)
    wl = cls(probe, args.seed, str(workdir))

    imports = [import_seconds() for _ in range(IMPORT_REPEATS)]
    generation = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        generation.append(time.perf_counter() - t0)
    setup_s = min(imports) + min(generation)  # best of each, as for the units

    problems = []
    iters, traced_spans = [], []
    digests = set()

    def one(k, traced):
        probe.reset()
        probe.tracing = traced
        probe.iteration = k
        first_span = len(probe.spans)
        t0 = time.perf_counter()
        with probe.span("bench.iteration"):
            out = wl.iteration()
        wall = time.perf_counter() - t0
        probe.tracing = False
        calls, failed = probe.totals()
        try:
            summary = wl.check(out)
        except workloads.CheckFailed as exc:
            problems.append("iteration %d: %s" % (k, exc))
            summary = {}
        digests.add(summary.get("digest"))
        if traced:
            traced_spans.extend(probe.spans[first_span:])
        # only the summary is kept: the records are released before the next iteration samples
        return dict(summary, k=k, traced=traced, wall_s=wall, calls=calls, failed=failed,
                    stats={name: dict(st) for name, st in probe.stats.items()}, units=probe.units)

    try:
        one(-1, False)  # warm-up: lazy set-up and first-touch page faults stay out of the figures
        start = time.perf_counter()
        k = 0
        while True:
            iters.append(one(k, args.trace == 1 and k % 2 == 0))
            k += 1
            n_traced = sum(it["traced"] for it in iters)
            enough = len(iters) >= MIN_ITERATIONS and (args.trace == 0 or min(n_traced, k - n_traced) >= MIN_TRACED_ITERATIONS)
            if enough and time.perf_counter() - start >= args.seconds:
                break
    except Exception as exc:  # the run reports the failure instead of a result
        traceback.print_exc()
        problems.append("iteration failed: %r" % (exc,))
    if len(digests) != 1:
        problems.append("the seeded output differs between iterations (%d digests)" % len(digests))
    untraced = [it for it in iters if not it["traced"]]
    traced = [it for it in iters if it["traced"]]
    if not untraced:
        print("error: no iteration completed", file=sys.stderr)
        return 1

    peak_rss_mb = adapter.rss_high_water_mb()
    e2e = end_to_end(untraced, setup_s, peak_rss_mb)
    extra = reported_only(args.workload, untraced, e2e["wall_s"]["value"])
    attempted = sum(it["calls"] for it in iters)
    failed = sum(it["failed"] for it in iters)
    if traced:
        metrics = per_layer(traced, traced_spans)
        t_wall, u_wall = unit_totals(traced)["wall_s"], e2e["wall_s"]["value"]
        metrics["trace.wall_s"] = {"value": t_wall, "unit": "s"}
        metrics["trace.untraced_wall_s"] = {"value": u_wall, "unit": "s"}
        metrics["trace.overhead_share"] = {"value": (t_wall - u_wall) / u_wall, "unit": "share"}
        for key in ("squeezing_residual_db", "antisqueezing_residual_db", "failed_op_share"):
            metrics["bench." + key] = {"value": extra[key], "unit": "share" if "share" in key else "dB"}
    else:
        metrics = e2e

    config_hash = hashlib.sha256(json.dumps({"workload": args.workload, "config": wl.config},
                                            sort_keys=True).encode()).hexdigest()
    correct = not problems and failed == 0
    report = {
        "workload": args.workload, "why": cls.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "config": wl.config, "config_hash": config_hash,
        "input_properties": wl.properties(), "working_set_bytes": wl.working_set_bytes,
        "environment": environment(), "import_s_in_process": t_import, "import_s_each": imports,
        "generation_s_each": generation, "digest": sorted(d for d in digests if d),
        "correct": correct, "problems": problems, "attempted": attempted, "failed": failed,
        "end_to_end": e2e, "reported_only": extra, "residual_note": RESIDUAL_NOTE,
        "iterations": [{k: v for k, v in it.items() if k != "stats"} for it in iters],
        "metrics": metrics,
    }
    if traced:
        report["spans"] = [dict(zip(("id", "name", "start", "end", "parent", "workload", "request"), s))
                           for s in traced_spans]
    path = OUT / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    path.write_text(json.dumps(report, indent=1, default=str))

    print("workload %s  seed %d  config %s  iterations %d (%d traced)"
          % (args.workload, args.seed, config_hash[:16], len(iters), len(traced)))
    print("environment %s" % json.dumps(report["environment"], sort_keys=True))
    print("working set %.1f MiB; input properties %s"
          % (wl.working_set_bytes / 2**20, json.dumps(report["input_properties"], sort_keys=True)))
    print("digest %s" % ", ".join(report["digest"]))
    for name, m in e2e.items():
        print("metric %s = %.6g %s" % (name, m["value"], m["unit"]))
    units = {"samples_per_s": "1/s", "scenarios_per_s": "1/s", "squeezing_residual_db": "dB",
             "antisqueezing_residual_db": "dB", "failed_op_share": "share"}
    for name, value in extra.items():
        print("metric %s = %.6g %s (not gated)" % (name, value, units[name]))
    print("note: " + RESIDUAL_NOTE)
    for problem in problems:
        print("check failed: " + problem)
    print("report %s" % path.relative_to(ROOT))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
