"""Benchmark of the spingas package: one workload per invocation.

    python3 benchmark/run.py --workload phase-map --seed 1 --seconds 5 --trace 0

Run from the root of a checkout.  The package is imported from ``src/``.
Each invocation generates the workload's inputs from ``--seed``, fills the
calibration caches, then repeats whole rounds of the workload for
``--seconds`` (at least one round), checks the outputs, and
prints one JSON line as the last line of standard output::

    {"correct": true, "attempted": 49, "failed": 0, "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (tracing off), their
times scaled to a reference core by the speed sampled on the cores the
rounds ran on (refspeed.py); with ``--trace 1`` the package's public calls
are wrapped and timed from outside and the metrics are the per-layer ones.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one BLAS thread per process, set before numpy is first imported; pool
# workers and set-up probes inherit it
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import refspeed  # noqa: E402  (after the BLAS setting)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("phase-map", "slowdown", "exponents"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_seconds() -> float:
    """Median set-up time of fresh processes (see setup_probe.py) on one
    core, scaled to the reference core (see refspeed.py)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    cpus = refspeed.cores(1)
    refspeed.pin(cpus)
    spans = []
    with refspeed.Sampler(cpus) as sampler:
        for _ in range(SETUP_PROBES):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py")],
                           env=env, capture_output=True, timeout=120, check=True)
            spans.append((t0, time.perf_counter()))
        sampler.stop()
    return statistics.median(sampler.scaled(t0, t1) for t0, t1 in spans)


def peak_rss_mib() -> float:
    """Peak resident set of this process plus the largest of its children
    waited for so far (pool workers), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def declared_metrics(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[kind]}


def comparable(out: dict) -> dict:
    """A round's outputs without the failure record, for round-to-round
    comparison."""
    return {k: v for k, v in out.items() if k != "failures"}


def run_rounds(round_fn, inp, ctx, seconds):
    """Whole rounds for ``seconds``: at least one, and another only while a
    round of median length still ends in time.  Returns the outputs and the
    (start, end) perf_counter times of each round."""
    outs, spans = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        outs.append(round_fn(inp, ctx))
        spans.append((t0, time.perf_counter()))
        wall = statistics.median(t1 - t0 for t0, t1 in spans)
        if time.perf_counter() - start + wall > seconds:
            return outs, spans


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spingas" / "__init__.py").is_file():
        print(f"benchmark: no spingas package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import checks
    import tracing
    import workloads

    name = args.workload
    make_inputs, round_fn = workloads.WORKLOADS[name]
    inp = make_inputs(args.seed)
    work_dir = OUT_DIR / f"{name}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    ctx = {"work_dir": str(work_dir)}
    metrics: dict = {}

    if args.trace:
        tracer = tracing.Tracer(str(work_dir / "spool"))
        tracer.install()
        try:
            workloads.warm_up(name, inp)
            outs = []
            if name == "phase-map":
                # per-layer figures from one serial traced run, pool figures
                # from the traced rounds with the timed worker count
                outs.append(workloads.phase_map_round(inp, ctx, workers=1))
                record = tracer.collect()
            traced, spans = run_rounds(round_fn, inp, ctx, args.seconds)
            outs += traced
            pooled = tracer.collect()
            if name != "phase-map":
                record = pooled
        finally:
            tracer.uninstall()
        if name == "phase-map":
            # untraced run with the timed worker count: all runs above must
            # have written the same artifacts byte for byte
            outs.append(round_fn(inp, ctx))
        metrics.update(tracing.layer_metrics(record))
        metrics.update(tracing.pool_metrics(pooled["spans"]))
        metrics["sweep.artifact_bytes"] = outs[0].get("artifact_bytes", 0)
        metrics["traced.round_s"] = statistics.median(t1 - t0 for t0, t1 in spans)
        with open(work_dir / "trace.json", "w") as fh:
            json.dump({"layers": record, "pool": pooled}, fh)
    else:
        workloads.warm_up(name, inp)
        # the rounds (and their pool workers) run on the sampled cores
        cpus = refspeed.cores(workloads.CORES[name])
        refspeed.pin(cpus)
        with refspeed.Sampler(cpus) as sampler:
            outs, spans = run_rounds(round_fn, inp, ctx, args.seconds)
            # before the samplers (and later the set-up probes) are waited
            # for, the children's peak is that of the pool workers
            metrics["peak_rss_mib"] = peak_rss_mib()
            sampler.stop()
        scaled = statistics.median(sampler.scaled(t0, t1) for t0, t1 in spans)
        metrics["scaled_round_s"] = scaled
        metrics["scaled_ops_per_s"] = outs[0]["failures"].attempted / scaled
        metrics["setup_s"] = setup_seconds()
        print(f"benchmark: speed of cores {cpus} in each round "
              f"{[round(sampler.speed(*s), 4) for s in spans]} "
              f"({len(sampler.samples)} samples)", file=sys.stderr)

    problems = checks.CHECKS[name](inp, outs[0])
    first = comparable(outs[0])
    for k, o in enumerate(outs[1:], 1):
        if comparable(o) != first:
            problems.append(f"run {k} of this invocation gave other outputs "
                            f"than run 0")
    print(f"benchmark: round walls {[round(t1 - t0, 4) for t0, t1 in spans]}",
          file=sys.stderr)
    scalars = {k: v for k, v in outs[0].items() if isinstance(v, (int, float))}
    print(f"benchmark: outputs of run 0: {scalars}", file=sys.stderr)
    for o in outs:
        for err in o["failures"].errors:
            print(f"benchmark: failed operation: {err}", file=sys.stderr)
    for p in problems:
        print(f"benchmark: check failed: {p}", file=sys.stderr)

    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(declared):
        raise SystemExit(f"benchmark: metrics {sorted(set(metrics) ^ set(declared))} "
                         f"differ from BENCHMARK.json")
    result = {
        "correct": not problems,
        "attempted": sum(o["failures"].attempted for o in outs),
        "failed": sum(o["failures"].failed for o in outs),
        "metrics": {k: {"value": v, "unit": declared[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
