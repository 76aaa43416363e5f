"""Seconds-long self-check of the benchmark on tiny inputs.

    python3 benchmark/selfcheck.py

Checks that
* a 3x3 phase map through the CLI writes the same artifacts with 2 workers
  untraced and 1 or 2 workers traced, and passes its output checks;
* the tracer collects spans from forked pool workers and reports every
  per-layer metric BENCHMARK.json declares;
* the output checks reject corrupted outputs (a flipped ordered cell, an
  unfloored disordered cell, a non-monotone tau series, an exponent out of
  its window);
* the core speed samplers sample and end.
Exits with 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import refspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY_MAP = {"i_axis": [0.5, 2.5, 5.0], "j_axis": [0.5, 3.0, 4.5],
            "attenuation": "path-averaged", "eps": 1e-4, "workers": 2}


def corrupt(cells_csv: bytes, pick, column: str, value: str) -> bytes:
    """Set ``column`` of the first row satisfying ``pick`` to ``value``."""
    lines = cells_csv.decode().splitlines(keepends=True)
    header = next(k for k, ln in enumerate(lines) if not ln.startswith("#"))
    cols = lines[header].strip().split(",")
    for k in range(header + 1, len(lines)):
        row = dict(zip(cols, lines[k].rstrip("\n").split(",")))
        if pick(row):
            row[column] = value
            lines[k] = ",".join(row[c] for c in cols) + "\n"
            return "".join(lines).encode()
    raise LookupError("no row to corrupt")


def main() -> int:
    failures = []

    def expect(ok, what):
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        ctx = {"work_dir": tmp}
        workloads.warm_up("phase-map", TINY_MAP)
        plain = workloads.phase_map_round(TINY_MAP, ctx)
        tracer = tracing.Tracer(os.path.join(tmp, "spool"))
        tracer.install()
        try:
            pooled_out = workloads.phase_map_round(TINY_MAP, ctx)
            pooled = tracer.collect()
            serial_out = workloads.phase_map_round(TINY_MAP, ctx, workers=1)
            serial = tracer.collect()
        finally:
            tracer.uninstall()

    artifacts = (plain["cells_csv"], plain["manifest"])
    expect(plain["exit_code"] == 0 and plain["failures"].failed == 0,
           "tiny sweep runs without failed cells")
    expect((pooled_out["cells_csv"], pooled_out["manifest"]) == artifacts
           and (serial_out["cells_csv"], serial_out["manifest"]) == artifacts,
           "artifacts independent of worker count and tracing")
    problems = checks.check_phase_map(TINY_MAP, plain)
    expect(not problems, f"tiny sweep passes its checks {problems}")

    for name, record in (("pooled", pooled), ("serial", serial)):
        cells = [s for s in record["spans"] if s["name"] == "sweep.cell"]
        compiles = [s for s in record["spans"] if s["name"] == "dynamics.compile"]
        expect(len(cells) == 9 and len(compiles) >= 9 and record["rhs_calls"] > 0,
               f"{name} traced run records 9 cells, their compiles and rhs calls")
    pool = tracing.pool_metrics(pooled["spans"])
    expect(0 < pool["sweep.pool_efficiency"] <= 1 and 0 <= pool["sweep.tail_share"] < 1,
           f"pool figures in range {pool}")

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    produced = set(tracing.layer_metrics(serial)) | set(pool) | {
        "sweep.artifact_bytes", "traced.round_s"}
    declared = {m["name"] for m in spec["per_layer"]}
    expect(produced == declared, f"per-layer metrics match BENCHMARK.json "
                                 f"{sorted(produced ^ declared)}")

    ordered = lambda r: abs(float(r["M_signed"])) > 0.01  # noqa: E731
    disordered = lambda r: r["tau_floored"] == "1"  # noqa: E731
    for what, bad in (
            ("flipped ordered cell", corrupt(plain["cells_csv"], ordered, "M_signed", "-0.3")),
            ("unfloored disordered cell", corrupt(plain["cells_csv"], disordered,
                                                  "tau_floored", "0"))):
        expect(bool(checks.check_phase_map(TINY_MAP, dict(plain, cells_csv=bad))),
               f"phase-map check rejects a {what}")

    # slowdown check on a synthetic series with the true seed sensitivity
    x_sens = 0.9
    lam = checks.slow_mode(x_sens, 3.7)
    good = {"i0": 0.8, "xs": [0.85, 0.9, 1.0], "taus": [5.0, 3.0, 1.0],
            "x_sens": x_sens, "dtau_dlog_eps": -1.0 / lam, "znu": 1.0}
    inp = {"j": 3.7}
    expect(not checks.check_slowdown(inp, good), "slowdown check accepts a good series")
    for what, change in (("non-monotone tau", {"taus": [3.0, 5.0, 1.0]}),
                         ("wrong seed sensitivity", {"dtau_dlog_eps": -1.1 / lam}),
                         ("z*nu out of window", {"znu": 1.2})):
        expect(bool(checks.check_slowdown(inp, dict(good, **change))),
               f"slowdown check rejects {what}")

    cpus = refspeed.cores(2)
    with refspeed.Sampler(cpus) as sampler:
        procs = [proc for proc, _ in sampler._procs]
        t0 = time.perf_counter()
        time.sleep(1.0)
        t1 = time.perf_counter()
        sampler.stop()
    n = len(sampler.samples)
    speed = sampler.speed(t0, t1)
    expect(n >= 5 * len(cpus) and 0 < speed < 10
           and math.isclose(sampler.scaled(t0, t1), (t1 - t0) * speed),
           f"samplers on cores {cpus} took {n} samples in 1 s, speed {speed:.3f}")
    expect(not any(p.is_alive() for p in procs), "samplers have ended")

    print(f"selfcheck: {'passed' if not failures else f'{len(failures)} failed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
