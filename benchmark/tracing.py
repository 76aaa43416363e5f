"""Spans and counters recorded from outside the package.

The tracer wraps public functions and class methods of ``spingas`` in
place, so that every call through a module's namespace records a span
(name, start, end, parent, process) while tracing is on.  Nothing inside
the package is changed: ``install`` swaps attributes and ``uninstall``
puts the originals back.

Sweep cells run in forked pool workers.  A worker inherits the tracer and
the open span stack of the parent, so its spans keep their parent link;
after each cell it appends its spans and counter deltas to a spool file,
and ``collect`` merges those files with the parent's own spans.

``rhs_coords`` is called millions of times, so it feeds two counters
instead of spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time


class Tracer:
    def __init__(self, spool_dir: str):
        self.pid = os.getpid()
        self.spool_dir = spool_dir
        self.spans: list[dict] = []
        self.stack: list[list] = []      # open spans: [id, child seconds]
        self.rhs_calls = 0
        self.rhs_s = 0.0
        self._seq = 0
        self._worker_pid = self.pid
        self._undo: list[tuple] = []
        os.makedirs(spool_dir, exist_ok=True)

    # -- recording -------------------------------------------------------

    def wrap(self, name, fn, attrs=None):
        """Return ``fn`` wrapped in a span named ``name``.

        ``attrs(args, kwargs, result)`` may add fields to the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._seq += 1
            sid = f"{os.getpid()}:{tracer._seq}"
            parent = tracer.stack[-1] if tracer.stack else None
            frame = [sid, 0.0]
            tracer.stack.append(frame)
            t0 = time.perf_counter()
            failed = True
            result = None
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
                if parent is not None:
                    parent[1] += t1 - t0
                span = {"id": sid, "parent": parent[0] if parent else None,
                        "name": name, "pid": os.getpid(), "t0": t0, "t1": t1,
                        "self_s": t1 - t0 - frame[1], "failed": failed}
                if attrs is not None and not failed:
                    span.update(attrs(args, kwargs, result))
                tracer.spans.append(span)

        return traced

    def wrap_rhs(self, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def rhs(*args):
            t0 = clock()
            out = fn(*args)
            tracer.rhs_s += clock() - t0
            tracer.rhs_calls += 1
            return out

        return rhs

    def wrap_pool_task(self, fn):
        """The unit of work a sweep hands to its pool: a span, and in a
        forked worker a flush of everything recorded for the cell."""
        traced = self.wrap("sweep.cell", fn)
        tracer = self

        @functools.wraps(fn)
        def task(args):
            pid = os.getpid()
            if pid != tracer.pid and tracer._worker_pid != pid:
                # first cell in a fresh worker: drop what fork copied over
                tracer._worker_pid = pid
                tracer.spans = []
                tracer.rhs_calls, tracer.rhs_s = 0, 0.0
            try:
                return traced(args)
            finally:
                if pid != tracer.pid:
                    tracer._flush()

        return task

    def _flush(self):
        path = os.path.join(self.spool_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"rhs_calls": self.rhs_calls,
                                 "rhs_s": self.rhs_s}) + "\n")
        self.spans = []
        self.rhs_calls, self.rhs_s = 0, 0.0

    def collect(self) -> dict:
        """Everything recorded since the last collect, workers included."""
        spans = list(self.spans)
        rhs_calls, rhs_s = self.rhs_calls, self.rhs_s
        for fname in sorted(os.listdir(self.spool_dir)):
            if not fname.startswith("spans-"):
                continue
            path = os.path.join(self.spool_dir, fname)
            with open(path) as fh:
                for line in fh:
                    rec = json.loads(line)
                    if "rhs_calls" in rec:
                        rhs_calls += rec["rhs_calls"]
                        rhs_s += rec["rhs_s"]
                    else:
                        spans.append(rec)
            os.remove(path)
        self.spans = []
        self.rhs_calls, self.rhs_s = 0, 0.0
        return {"spans": spans, "rhs_calls": rhs_calls, "rhs_s": rhs_s}

    # -- installing the wrappers ----------------------------------------

    def _replace_everywhere(self, orig, new):
        """Point every ``spingas`` namespace that holds ``orig`` at ``new``."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "spingas" or modname.startswith("spingas.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, new)

    def _replace_method(self, cls, attr, new):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, new)

    def install(self):
        import spingas.cli as cli
        import spingas.config as config
        import spingas.critfit as critfit
        import spingas.dynamics as dynamics
        import spingas.optics as optics
        import spingas.sweep as sweep

        def steps_of(_args, _kwargs, result):
            return {"steps": len(result.trajectory.times) - 1,
                    "converged": bool(result.converged)}

        def sweep_workers(_args, kwargs, _result):
            w = kwargs.get("workers")
            return {"workers": w if w is not None else sweep.default_workers()}

        wr = self.wrap
        for cls, attr, name in (
                (optics.AtomSystem, "__init__", "optics.atom_system"),
                (optics.OpticalChannel, "__init__", "optics.channel"),
                (dynamics.CompiledModel, "__init__", "dynamics.compile"),
                (dynamics.CompiledModel, "slow_mode_rate", "dynamics.slow_mode")):
            self._replace_method(cls, attr, wr(name, cls.__dict__[attr]))
        self._replace_method(dynamics.CompiledModel, "rhs_coords",
                             self.wrap_rhs(dynamics.CompiledModel.rhs_coords))

        functions = [
            (optics.couple_field, "optics.channel", None),
            (dynamics.absorption_rate_unit, "dynamics.calibration", None),
            (dynamics.bias_rate_unit, "dynamics.calibration", None),
            (dynamics.steady_state, "dynamics.steady", steps_of),
            (dynamics.critical_pump_rate, "dynamics.locator", None),
            (dynamics.critical_exchange_rate, "dynamics.locator", None),
            (sweep.run_sweep, "sweep.run", sweep_workers),
            (sweep.refine_contour, "sweep.refine", sweep_workers),
            (sweep.save_sweep, "sweep.save", None),
            (critfit.susceptibility, "critfit.susceptibility", None),
            (critfit.three_step_fit, "critfit.fit", None),
            (critfit.fit_gamma, "critfit.fit", None),
            (critfit.fit_znu, "critfit.fit", None),
            (critfit.fit_delta, "critfit.fit", None),
            (config.parse_config, "config.parse", None),
            (cli.main, "cli.main", None),
        ]
        for fn, name, attrs in functions:
            self._replace_everywhere(fn, wr(name, fn, attrs))
        self._replace_everywhere(sweep._sweep_task,
                                 self.wrap_pool_task(sweep._sweep_task))

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


# -- per-layer metrics ----------------------------------------------------

def _p(values, q):
    """Quantile by linear interpolation; 0 for an empty sample."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (pos - lo) * (v[hi] - v[lo])


def _ratio(num, den):
    return num / den if den else 0.0


def pool_metrics(spans: list[dict]) -> dict:
    """Efficiency and tail share of every pooled sweep or refinement.

    Efficiency is busy cell time over workers x wall of the call; the tail
    is the time from the first worker running out of cells to the last
    cell's end, as a share of the call's wall."""
    busy = capacity = tail = wall = 0.0
    for call in spans:
        if call["name"] not in ("sweep.run", "sweep.refine"):
            continue
        cells = [s for s in spans if s["name"] == "sweep.cell"
                 and s["parent"] == call["id"] and s["pid"] != call["pid"]]
        if not cells:
            continue
        last_end = {}
        for c in cells:
            last_end[c["pid"]] = max(last_end.get(c["pid"], 0.0), c["t1"])
        dur = call["t1"] - call["t0"]
        busy += sum(c["t1"] - c["t0"] for c in cells)
        capacity += call["workers"] * dur
        tail += max(last_end.values()) - min(last_end.values())
        wall += dur
    return {"sweep.pool_efficiency": _ratio(busy, capacity),
            "sweep.tail_share": _ratio(tail, wall)}


def layer_metrics(record: dict) -> dict:
    spans = record["spans"]
    by_id = {s["id"]: s for s in spans}

    def named(name):
        return [s for s in spans if s["name"] == name]

    def has_ancestor(span, name):
        pid = span["parent"]
        while pid is not None and pid in by_id:
            if by_id[pid]["name"] == name:
                return True
            pid = by_id[pid]["parent"]
        return False

    def total(items, key="dur"):
        if key == "dur":
            return sum(s["t1"] - s["t0"] for s in items)
        return sum(s[key] for s in items)

    atom = named("optics.atom_system")
    channel = named("optics.channel")
    compiles = named("dynamics.compile")
    steady = named("dynamics.steady")
    steps = sum(s.get("steps", 0) for s in steady)
    locators = named("dynamics.locator")
    slow = named("dynamics.slow_mode")
    cells = named("sweep.cell")
    chi = named("critfit.susceptibility")
    fits = [s for s in named("critfit.fit") if not has_ancestor(s, "critfit.fit")]
    steady_s = [s["self_s"] for s in steady]
    converged_s = sum(s["self_s"] for s in steady if s.get("converged"))

    out = {
        "optics.atom_system.calls": len(atom),
        "optics.atom_system.s": total(atom),
        "optics.channel.calls": len(channel),
        "optics.channel.s": total(channel),
        "dynamics.compile.calls": len(compiles),
        "dynamics.compile.self_s": total(compiles, "self_s"),
        "dynamics.calibration.s": total(named("dynamics.calibration")),
        "dynamics.rhs.calls": record["rhs_calls"],
        "dynamics.rhs.s": record["rhs_s"],
        "dynamics.steps.accepted": steps,
        "dynamics.rhs_per_step": _ratio(record["rhs_calls"], steps),
        "dynamics.step_us": 1e6 * _ratio(total(steady, "self_s"), steps),
        "dynamics.steady.calls": len(steady),
        "dynamics.steady.p50_s": _p(steady_s, 0.5),
        "dynamics.steady.max_s": max(steady_s, default=0.0),
        "dynamics.steady.steps_p50": _p([s.get("steps", 0) for s in steady], 0.5),
        "dynamics.steady.unconverged": sum(1 for s in steady
                                           if not s.get("converged", False)),
        "dynamics.steady.useful_ratio": _ratio(converged_s, sum(steady_s)),
        "dynamics.locator.calls": len(locators),
        "dynamics.locator.s": total(locators),
        "dynamics.locator.compiles_per_call": _ratio(
            sum(1 for s in compiles if has_ancestor(s, "dynamics.locator")),
            len(locators)),
        "dynamics.slow_mode.calls": len(slow),
        "dynamics.slow_mode.s": total(slow),
        "sweep.cell.p50_s": _p([s["t1"] - s["t0"] for s in cells], 0.5),
        "sweep.cell.p90_s": _p([s["t1"] - s["t0"] for s in cells], 0.9),
        "sweep.cell.max_s": max((s["t1"] - s["t0"] for s in cells), default=0.0),
        "sweep.refine.s": total(named("sweep.refine")),
        "sweep.save.s": total(named("sweep.save")),
        "critfit.susceptibility.calls": len(chi),
        "critfit.susceptibility.s": total(chi),
        "critfit.susceptibility.steady_per_call": _ratio(
            sum(1 for s in steady if has_ancestor(s, "critfit.susceptibility")),
            len(chi)),
        "critfit.fit.calls": len(fits),
        "critfit.fit.s": total(fits),
        "config.parse.s": total(named("config.parse")),
        "cli.main.s": total(named("cli.main")),
    }
    return out
