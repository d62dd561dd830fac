"""wrightmaps benchmark: four CLI workloads driven in-process.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from a source checkout; the package is imported from ``src/``.  One
client calls ``wrightmaps.cli.main(argv)`` in a closed loop, one thread, the
next operation starting when the previous returns.  Inputs come from the
workload seed (workloads.py), stdout and stderr go to in-memory buffers,
output files to a temporary directory under ``.perfbench/``, and every
operation is checked (checks.py) outside its timed section.  Times are
scaled to a reference CPU speed (speed.py) because the host's speed drifts.

``--trace 0`` reports the end-to-end metrics: items_per_s, latency_p50_ms,
latency_p90_ms, setup_s (fresh interpreter until ``import wrightmaps.cli``
returns, median of several) and peak_rss_mb (this process).  ``--trace 1``
runs every second operation traced (tracing.py) and reports the per-layer
metrics, with setup split by ``-X importtime``.  Warm-up operations are never
timed.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it restate every metric with
its sample count.  A run record (argv digest, scan CSV digests, failures,
per-operation times, spans) is written under ``.perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# One thread per numerical library: BLAS pools would compete with the timed loop.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_OPS = 100  # p90 needs at least ten samples beyond it
PHASE_WALL_LIMIT_S = 60.0  # keeps a run within its time limit on a slow machine
SETUP_PROBES = 7
WARMUP_OPS = {"point_queries": 40, "scan": 2, "verify_oracle": 6, "verify_probe": 30}
# Calibration kind per workload (speed.py): verify_oracle spends about 90% of
# its time in oracle.sweep's vectorized polynomial evaluation, the others in
# the interpreter.
SPEED_KIND = {"point_queries": "interpreter", "scan": "interpreter",
              "verify_oracle": "vector", "verify_probe": "interpreter"}
ITEM = {"point_queries": "command", "scan": "scan grid point",
        "verify_oracle": "verified mapping", "verify_probe": "verified mapping"}
# The child reports when the import returned, then its CPU speed (speed.py).
PROBE = "import time, wrightmaps.cli; t = time.monotonic(); import speed; print(t, speed.scale())"


def _spawn(args):
    """(stdout, stderr, speed scale) of a fresh interpreter that imports wrightmaps.cli."""
    path = os.pathsep.join(p for p in (str(SRC), str(HERE), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *args, "-c", PROBE], cwd=ROOT, capture_output=True,
                          text=True, check=True, timeout=60,
                          env={**os.environ, **THREAD_ENV, "PYTHONPATH": path})
    return proc.stdout.split()[0], proc.stderr, float(proc.stdout.split()[1])


def setup_seconds(probes):
    """Median time from spawning an interpreter to `import wrightmaps.cli` returning.

    One extra spawn first warms the disk and bytecode caches and is dropped.
    """
    times = []
    for k in range(probes + 1):
        t0 = time.monotonic()
        t1, _, scale = _spawn([])
        if k:
            times.append((float(t1) - t0) * scale)
    return statistics.median(times)


def import_times_ms(probes):
    """Median self import time per package (scipy, numpy, wrightmaps), from -X importtime."""
    samples = {"scipy": [], "numpy": [], "wrightmaps": []}
    for k in range(probes + 1):
        _, stderr, scale = _spawn(["-X", "importtime"])
        totals = dict.fromkeys(samples, 0)
        for line in stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            self_us, _, name = (s.strip() for s in line[len("import time:"):].split("|"))
            top = name.split(".")[0]
            if top in totals and self_us.isdigit():
                totals[top] += int(self_us)
        if k:
            for top, us in totals.items():
                samples[top].append(us / 1000 * scale)
    return {top: statistics.median(v) for top, v in samples.items()}


def execute(cli, argv):
    """(exit code or None if it raised, stdout, stderr, elapsed ns) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    t0 = time.perf_counter_ns()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a traceback is a failed operation, not a failed run
        rc = None
        err.write(f"{type(exc).__name__}: {exc}")
    finally:
        elapsed = time.perf_counter_ns() - t0
        sys.stdout, sys.stderr = saved
    return rc, out.getvalue(), err.getvalue(), elapsed


class Phase:
    """Timings, item count and check outcomes of the operations one loop recorded."""

    def __init__(self):
        self.latency_ns = []  # scaled to reference CPU speed by finish()
        self.raw_ns = []
        self.scales = []
        self.calibration = []  # index of the last calibration before each operation
        self.op_items = []
        self.items = 0
        self.failed = 0
        self.output_bytes = 0
        self.failures = []
        self.digests = []
        self.argv_hash = hashlib.sha256()

    def record(self, op, outdir, rc, out, err, ns, calibration):
        self.raw_ns.append(ns)
        self.calibration.append(calibration)
        self.op_items.append(op.items)
        self.items += op.items
        self.argv_hash.update(json.dumps(op.argv).replace(outdir, "<out>").encode())
        problems = checks.check(op, rc, out, err, self.digests)
        if problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append({"argv": op.argv, "problems": problems})
        self.output_bytes += len(out.encode())
        if op.out and os.path.exists(op.out):
            self.output_bytes += os.path.getsize(op.out)
            os.remove(op.out)

    def finish(self, scales):
        """Scale each time by the mean of the calibrations just before and after it."""
        self.scales = [(scales[i] + scales[i + 1]) / 2 for i in self.calibration]
        self.latency_ns = [ns * scale for ns, scale in zip(self.raw_ns, self.scales)]
        return self

    @property
    def items_per_s(self):
        return self.items / (sum(self.latency_ns) / 1e9)


def closed_loop(cli, ops, outdir, seconds, min_ops, kind, tracer=None):
    """Run operations until `seconds` of busy time and `min_ops` operations.

    Wall times are scaled by speed.scale(kind), calibrated at most every
    speed.CALIBRATE_EVERY_NS of busy time and once more at the end.  With a
    tracer, every second operation runs traced; the untraced and traced
    halves then see the same mix of inputs, and are returned as (plain,
    traced).  Without one, traced is None.
    """
    sides = [Phase()] if tracer is None else [Phase(), Phase()]
    wall_end = time.monotonic() + PHASE_WALL_LIMIT_S
    busy = count = 0
    scales = []
    calibrated_at = -speed.CALIBRATE_EVERY_NS
    while (busy < seconds * 1e9 or count < min_ops) and time.monotonic() < wall_end:
        op = next(ops)
        if busy - calibrated_at >= speed.CALIBRATE_EVERY_NS:
            scales.append(speed.scale(kind))
            calibrated_at = busy
        side = sides[count % len(sides)]
        traced = side is not sides[0]
        if traced:
            tracer.begin_op(len(side.raw_ns))
            tracer.install()
        try:
            rc, out, err, ns = execute(cli, op.argv)
        finally:
            if traced:
                tracer.uninstall()
        side.record(op, outdir, rc, out, err, ns, len(scales) - 1)
        busy += ns
        count += 1
    scales.append(speed.scale(kind))
    sides = [side.finish(scales) for side in sides]
    return sides[0], (sides[1] if tracer is not None else None)


def run_workload(name, seed, seconds, trace, min_ops=MIN_OPS, probes=SETUP_PROBES):
    """One run of one workload; returns (result object, human-readable lines, record)."""
    os.environ.update(THREAD_ENV)
    metrics = {}
    if trace:
        for top, ms in import_times_ms(max(1, probes // 2)).items():
            key = "wrightmaps_self" if top == "wrightmaps" else top
            metrics[f"setup.import.{key}_ms"] = {"value": ms, "unit": "ms"}
    else:
        metrics["setup_s"] = {"value": setup_seconds(probes), "unit": "s"}

    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import wrightmaps.cli as cli

    WORK.mkdir(exist_ok=True)
    outdir = tempfile.mkdtemp(prefix="out-", dir=WORK)
    try:
        make = workloads.GENERATORS[name]
        kind = SPEED_KIND[name]
        closed_loop(cli, make(random.Random(f"{name}:{seed}:warmup"), outdir), outdir,
                    0, WARMUP_OPS[name], kind)
        ops = make(random.Random(f"{name}:{seed}"), outdir)
        tracer = tracing.Tracer() if trace else None
        gc.collect()
        plain, traced = closed_loop(cli, ops, outdir, seconds, min_ops, kind, tracer)
        if trace:
            phases = [plain, traced]
            samples = dict.fromkeys(metrics, f"{max(1, probes // 2)} interpreters")
            layer = tracing.layer_metrics(tracer, traced.scales, plain.items_per_s,
                                          traced.items_per_s, traced.output_bytes)
            metrics.update(layer)
            samples.update(dict.fromkeys(layer, f"{len(traced.latency_ns)} traced ops"))
        else:
            phases = [plain]
            lat_ms = [ns / 1e6 for ns in plain.latency_ns]
            metrics["items_per_s"] = {"value": plain.items_per_s, "unit": "items/s"}
            metrics["latency_p50_ms"] = {"value": statistics.median(lat_ms), "unit": "ms"}
            metrics["latency_p90_ms"] = {"value": statistics.quantiles(lat_ms, n=10)[8],
                                         "unit": "ms"}
            metrics["peak_rss_mb"] = {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"}
            samples = {"setup_s": f"{probes} interpreters",
                       "peak_rss_mb": "1 process",
                       **dict.fromkeys(("items_per_s", "latency_p50_ms", "latency_p90_ms"),
                                       f"{len(lat_ms)} ops")}
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    attempted = sum(len(p.latency_ns) for p in phases)
    failed = sum(p.failed for p in phases)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    lines = [f"# workload={name} seed={seed} trace={trace} ops={attempted} failed={failed} "
             f"error_rate={failed / attempted:.6g} item={ITEM[name]!r}"]
    for key, m in metrics.items():
        lines.append(f"{key} = {m['value']!r} {m['unit']} (n = {samples[key]})")
    record = {
        "workload": name, "seed": seed, "trace": trace, "result": result,
        "argv_sha256": plain.argv_hash.hexdigest(),
        "scan_csv_sha256": [d for p in phases for d in p.digests],
        "failures": [f for p in phases for f in p.failures],
        "latency_ns": plain.latency_ns,
        "raw_latency_ns": plain.raw_ns,
        "op_items": plain.op_items,
    }
    runs = WORK / "runs"
    runs.mkdir(exist_ok=True)
    stem = runs / f"{name}-seed{seed}-trace{trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if trace:
        tracer.write(stem.with_suffix(".spans.csv"))
    return result, lines, record


def run_all(seed, seconds, trace):
    """Every workload, each in its own fresh interpreter; one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.GENERATORS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, check=True)
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines), flush=True)
        result = json.loads(last)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    return combined


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.GENERATORS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "wrightmaps" / "cli.py").is_file():
        print(f"error: no wrightmaps sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, args.trace)
    else:
        result, lines, _ = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
