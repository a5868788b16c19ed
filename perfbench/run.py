"""branchgen benchmark: run one workload, check every output, print metrics.

Usage (from the root of a checkout that has src/branchgen):

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke           # every workload, tiny inputs
    python3 perfbench/run.py --regen-golden    # rewrite perfbench/golden/*.json

Workloads: table1, wide60, sampling, values, edge (see workloads.py).

A run repeats the workload's fixed batch for --seconds seconds, one call
at a time, and reports medians over the batches. Set-up (fresh interpreter,
`import branchgen`, parsing and input preparation) is measured in separate
child interpreters, several times per run. Both times are divided by the
host-speed factor measured around each of them (hostspeed.py). With --trace 1 every other batch
is traced with in-memory spans, and the run reports per-layer metrics and
the tracing overhead; spans go to perfbench/out/. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spans import NullRecorder, Recorder, layer_of, self_times, write_jsonl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BLAS_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60

PER_LAYER = (
    "cli.import_s", "adt.parse_ms", "prediction.predict_us", "prediction.extinction_s",
    "prediction.report_ms", "costs.eval_us", "search.neighbors_us",
    "sampling.stats_us.dragen", "sampling.stats_us.megadeth", "sampling.value_us.dragen",
    "sampling.serialize_us.sexp", "sampling.serialize_us.json",
    "bench.trace_overhead_frac", "bench.unattributed_frac",
)


def _args(argv):
    p = argparse.ArgumentParser(description="branchgen benchmark")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run every workload's checks on tiny inputs")
    p.add_argument("--regen-golden", action="store_true",
                   help="rewrite the golden replay records from the current code")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not (args.smoke or args.regen_golden or args.workload):
        p.error("--workload is required")
    return args


def environment() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    import numpy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_pins": {k: os.environ.get(k) for k in BLAS_PINS},
    }


def _warn_load(stage: str, nproc: int) -> float:
    load = os.getloadavg()[0]
    if load > nproc:
        print(f"warning: 1-minute load {load:.2f} exceeds nproc={nproc} at {stage}; "
              "timings are contended", file=sys.stderr)
    return load


def setup_probe(args) -> int:
    """Child interpreter: import, prepare the inputs, report, exit."""
    t0 = perf_counter()
    import branchgen  # noqa: F401
    t1 = perf_counter()
    import workloads
    inp = workloads.WORKLOADS[args.workload].prepare(args.seed, smoke=False)
    print(json.dumps({"import_s": t1 - t0, "inputs": workloads.digest(inp.describe)}))
    return 0


def run_setup_probes(args, count: int):
    """Wall time of `count` fresh set-up interpreters, each paired with the
    mean host-speed factor of just before and just after it."""
    import hostspeed
    walls, factors, imports, hashes = [], [], [], set()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    hostspeed.reference()  # the first call pays numpy's one-time set-up
    for _ in range(count):
        before = hostspeed.factor()
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        walls.append(perf_counter() - t0)
        factors.append((before + hostspeed.factor()) / 2)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
        imports.append(rec["import_s"])
        hashes.add(rec["inputs"])
    return walls, factors, imports, hashes


def measure(args) -> int:
    env = environment()
    env["load_start"] = _warn_load("start", env["nproc"])
    print("env " + json.dumps(env, sort_keys=True))

    setup_walls, setup_factors, import_times, probe_hashes = run_setup_probes(
        args, SETUP_PROBES)

    import hostspeed
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inp = wl.prepare(args.seed, smoke=False)
    input_hash = workloads.digest(inp.describe)
    print(f"inputs {wl.name} seed={args.seed} sha256={input_hash}")

    problems: dict[str, str] = {}
    attempted = 1
    failed = 0
    if probe_hashes != {input_hash}:
        failed = 1
        problems["setup.inputs"] = "set-up probes prepared different inputs"

    off = NullRecorder()
    walls, traced_walls, recs, batches = [], [], [], []
    speeds = [hostspeed.factor()]   # before the first batch, then after each
    first: list | None = None
    first_problems: list = []
    deadline = perf_counter() + args.seconds
    i = 0
    while True:
        traced = args.trace == 1 and i % 2 == 1
        rec = Recorder() if traced else off
        t0 = perf_counter()
        with rec.span("bench.batch"):
            ops = wl.run(inp, rec)
        wall = perf_counter() - t0
        speeds.append(hostspeed.factor())
        speed = (speeds[-2] + speeds[-1]) / 2
        if traced:
            traced_walls.append((wall, speed))
            recs.append(rec)
        else:
            walls.append((wall, speed))
            batches.append(ops)
        digests = [workloads.digest(op.output) for op in ops]
        if first is None:
            first = digests
            try:
                first_problems = wl.check(inp, ops)
            except Exception as exc:  # a malformed output fails its ops, not the run
                first_problems = [f"check raised {exc!r}"] * len(ops)
            first_ops = ops
        for op, dig, ref, prob in zip(ops, digests, first, first_problems):
            attempted += 1
            if prob is None and dig != ref:
                prob = "output differs from the first batch"
            if prob is not None:
                failed += 1
                problems.setdefault(op.name, prob)
            # Memory stays flat however many batches run; only the first
            # batch's small `keep` objects outlive the checks.
            op.output = None
            if ops is not first_ops:
                op.keep = None
        i += 1
        enough = len(walls) >= wl.min_batches and (
            args.trace == 0 or len(traced_walls) >= wl.min_batches)
        if enough and perf_counter() >= deadline:
            break

    env_end = _warn_load("end", env["nproc"])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def show(name, value, unit, note=""):
        print(f"metric {wl.name} {name} = {value:.6g} {unit}{note}")

    setup_s = normalized_median(zip(setup_walls, setup_factors))
    wall_s = normalized_median(walls)
    raw = [w for w, _ in walls]
    show("setup_s", setup_s, "s", f"  (median of {len(setup_walls)} fresh interpreters, "
         "host-speed normalized)")
    show("wall_s", wall_s, "s", f"  (median of {len(walls)} batches, host-speed normalized)")
    show("setup_raw_s", statistics.median(setup_walls), "s")
    show("wall_raw_s", statistics.median(raw), "s", f"  (min {min(raw):.4g}, max {max(raw):.4g})")
    show("host_speed_factor", statistics.median(speeds), "ratio",
         "  (reference loop time over its usual time; above 1 is a slow host)")
    show("peak_rss_mb", peak_rss_mb, "MB")
    show("failed_frac", failed / attempted, "ratio", f"  ({failed} of {attempted} operations)")
    for name, (value, unit) in wl.summary(inp, batches).items():
        show(name, value, unit)
    for name, prob in problems.items():
        print(f"FAILED {name}: {prob}")
    print(f"loadavg start={env['load_start']:.2f} end={env_end:.2f}")

    if args.trace == 0:
        metrics = {"setup_s": (setup_s, "s"), "wall_s": (wall_s, "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        overhead = normalized_median(traced_walls) / wall_s - 1.0
        metrics = trace_metrics(args, wl, inp, first_ops, recs, traced_walls, overhead,
                                import_times, show)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


def normalized_median(pairs) -> float:
    """Median over (time, host-speed factor) pairs of time / factor: seconds
    as they would read on the defining machine at its usual speed (see
    hostspeed.py). Each factor is the mean of one taken just before and one
    just after the timed interval."""
    return statistics.median(t / f for t, f in pairs)


def trace_metrics(args, wl, inp, ops, recs, traced_walls, overhead, import_times,
                  show) -> dict:
    import workloads
    workloads.OUT.mkdir(exist_ok=True)
    path = workloads.OUT / f"spans-{wl.name}-seed{args.seed}.jsonl"
    write_jsonl(recs, path)

    layer_self: dict[str, float] = {}
    for rec in recs:
        for (name, *_), st in zip(rec.spans, self_times(rec.spans)):
            layer_self[layer_of(name)] = layer_self.get(layer_of(name), 0.0) + st
    total = sum(w for w, _ in traced_walls)
    for layer, st in sorted(layer_self.items()):
        show(f"{layer}.span_self_s", st / len(recs), "s",
             f"  ({st / total:.1%} of traced wall time)")
    for name, (value, unit) in wl.trace_report(inp, ops, recs).items():
        show(name, value, unit)

    metrics = {"cli.import_s": (statistics.median(import_times), "s")}
    metrics.update(workloads.probe_layers(wl, inp, ops, args.seed))
    metrics["bench.trace_overhead_frac"] = (overhead, "ratio")
    metrics["bench.unattributed_frac"] = (layer_self.get("bench", 0.0) / total, "ratio")
    print(f"spans written to {path.relative_to(ROOT)}")
    return {k: metrics[k] for k in PER_LAYER}


def smoke() -> int:
    """Every workload's batch and checks on tiny inputs, untimed."""
    import workloads
    bad = 0
    for wl in workloads.WORKLOADS.values():
        inp = wl.prepare(0, smoke=True)
        for rec in (NullRecorder(), Recorder()):
            ops = wl.run(inp, rec)
            for op, prob in zip(ops, wl.check(inp, ops)):
                if prob is not None:
                    bad += 1
                    print(f"FAILED {op.name}: {prob}")
        print(f"smoke {wl.name}: {len(ops)} operations checked")
    print(json.dumps({"smoke": "ok" if bad == 0 else "failed", "failed": bad}))
    return 0 if bad == 0 else 1


def regen_golden() -> int:
    """Rewrite golden/table1.json and golden/wide60.json (default seed)."""
    import workloads
    workloads.GOLDEN.mkdir(exist_ok=True)
    for wl in (workloads.WORKLOADS["table1"], workloads.WORKLOADS["wide60"]):
        inp = wl.prepare(workloads.DEFAULT_SEED, smoke=False)
        ops = wl.run(inp, NullRecorder())
        doc = {"config": workloads.golden_config(inp),
               "ops": {op.name: workloads.golden_record(op) for op in ops}}
        path = workloads.GOLDEN / wl.golden_file
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {path.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "branchgen" / "__init__.py").is_file():
        print(f"perfbench: {SRC.relative_to(ROOT)}/branchgen not found next to "
              "perfbench/; run from a full checkout", file=sys.stderr)
        return 2
    for key in BLAS_PINS:  # before numpy loads, here and in every child
        os.environ[key] = "1"
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)
    import branchgen
    if not Path(branchgen.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported branchgen from {branchgen.__file__}, "
              "not from this checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.regen_golden:
        return regen_golden()
    if args.workload not in ("table1", "wide60", "sampling", "values", "edge"):
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
