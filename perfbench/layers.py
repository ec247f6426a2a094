"""Traced-run instrumentation, applied from outside the program.

Wraps the public functions of each layer at every module (and class)
where callers look them up, keeps spans in memory and reports each
layer's self time (span time minus child spans) and call count.  The
program's own ``Tracer`` and ``MetricsRegistry`` stay off; nothing here
runs unless the benchmark asks for a traced run or an injected delay.
"""

from __future__ import annotations

import gc
import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Tuple

import hostspeed

#: spans kept for the Chrome trace file; past this many the layer
#: totals keep counting but the file holds only the first spans
SPAN_CAP = 100_000

#: timed layers, each ``(layer, [targets])``; a target is
#: ``module:function`` or ``module:Class.method``
LAYERS: List[Tuple[str, List[str]]] = [
    ("workflows.generate", [
        "repro.workflows.generators.montage:montage",
        "repro.workflows.generators.cstem:cstem",
        "repro.workflows.generators.mapreduce:mapreduce",
        "repro.workflows.generators.sequential:sequential",
    ]),
    ("workflows.validate", ["repro.workflows.dag:Workflow.validate"]),
    ("workloads.model", [
        "repro.workloads.base:apply_model",
        "repro.experiments.scenarios:Scenario.apply",
    ]),
    ("kernels.csr", ["repro.kernels.columnar:get_columnar"]),
    ("kernels.place", [
        "repro.kernels.provision:fused_level_schedule",
        "repro.kernels.provision:fused_heft_schedule",
    ]),
    ("kernels.replay", ["repro.kernels.replay:replay_verify"]),
    # core.place: every other SchedulingAlgorithm.schedule (added below)
    ("core.place", []),
    ("core.upgrade", [
        "repro.core.allocation.cpa_eager:CpaEagerScheduler.schedule",
        "repro.core.allocation.gain:GainScheduler.schedule",
    ]),
    ("core.reference", ["repro.core.baseline:reference_schedule"]),
    ("core.validate", ["repro.core.schedule:Schedule.validate"]),
    ("core.metrics", [
        "repro.core.metrics:evaluate",
        "repro.core.metrics:compare_to_reference",
    ]),
    ("simulator.des", [
        "repro.simulator.executor:simulate_schedule",
        "repro.simulator.executor:ScheduleExecutor.run",
    ]),
    ("service.arrivals", ["repro.service.arrivals:poisson_arrivals"]),
    ("service.fleet", [
        "repro.service.fleet:FleetManager.rent",
        "repro.service.fleet:FleetManager.reap",
        "repro.service.fleet:FleetManager.best_idle",
        "repro.service.fleet:FleetManager.max_busy_alive",
        "repro.service.fleet:FleetManager.finalize",
    ]),
    ("service.admission", [
        "repro.service.admission:FifoAdmission.admit",
        "repro.service.admission:FifoAdmission.select_next",
        "repro.service.admission:FairShareAdmission.select_next",
        "repro.service.admission:BudgetGuardAdmission.admit",
    ]),
    # the event loop and the online executor's handlers it dispatches
    ("service.loop", ["repro.service.loop:WorkflowService.run"]),
    ("market.price", [
        "repro.market.spot:Market.vm_cost",
        "repro.market.spot:SpotInterruptionPlan.preemption",
    ]),
    ("tune.sample", ["repro.tune.space:TuneSpace.sample"]),
    ("tune.evaluate", ["repro.tune.search:evaluate_candidate"]),
    ("experiments.orchestrate", [
        "repro.experiments.runner:run_sweep",
        "repro.experiments.parallel:map_guarded",
    ]),
]
LAYER_NAMES = [name for name, _ in LAYERS]

#: counts and ratios the traced run reports beside the layer times
EXTRA_METRICS = [
    ("kernels.replay_accept_ratio", "ratio"),
    ("simulator.events_processed", "count"),
    ("market.preemptions", "count"),
    ("tune.final_rung_ratio", "ratio"),
    ("gc.pause_s", "s"),
    ("gc.collections", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
]


def per_layer_metrics() -> List[Tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name in LAYER_NAMES:
        out.append((f"{name}_s", "s"))
        out.append((f"{name}_calls", "count"))
    return out + EXTRA_METRICS


def resolve(target: str):
    """``(owner, attribute, function)`` for a ``module:qualname`` target."""
    mod_name, _, qual = target.partition(":")
    owner = importlib.import_module(mod_name)
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


def patch(target: str, make_wrapper: Callable[[Callable], Callable]) -> None:
    """Replace *target* with ``make_wrapper(original)`` wherever it is
    looked up: on its class for a method, else in every loaded ``repro``
    module that binds the same function object (the benchmark itself
    looks functions up through their modules at call time)."""
    owner, attr, fn = resolve(target)
    wrapped = make_wrapper(fn)
    if isinstance(owner, type):
        setattr(owner, attr, wrapped)
        return
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "") or ""
        if not name.startswith("repro"):
            continue
        for key, val in list(vars(mod).items()):
            if val is fn:
                setattr(mod, key, wrapped)


def inject_delay(target: str, seconds: float) -> None:
    """Make every call of *target* first do the fixed work that takes
    *seconds* on the reference host (the sensitivity self-test's delay;
    work, not a sleep or a timed spin, so that it slows down with the
    host as the program does and the reference-host scaling keeps it
    at *seconds*)."""

    def make(fn):
        def delayed(*args, **kwargs):
            hostspeed.spin(seconds)
            return fn(*args, **kwargs)

        return delayed

    patch(target, make)


def _scheduler_targets() -> List[str]:
    """``schedule`` of every SchedulingAlgorithm that defines its own,
    except the upgrade loops timed as core.upgrade."""
    import repro.core.allocation  # noqa: F401 - registers every algorithm
    from repro.core.allocation.base import SchedulingAlgorithm

    upgrade = {"CpaEagerScheduler", "GainScheduler"}
    out, todo = [], [SchedulingAlgorithm]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "schedule" in vars(cls) and cls.__name__ not in upgrade:
            if not getattr(vars(cls)["schedule"], "__isabstractmethod__", False):
                out.append(f"{cls.__module__}:{cls.__qualname__}.schedule")
    return sorted(set(out))


class LayerTracer:
    """In-memory span recorder with per-layer self-time totals."""

    def __init__(self) -> None:
        n = len(LAYER_NAMES)
        self.self_s = [0.0] * n
        self.calls = [0] * n
        self.spans: List[tuple] = []
        self.dropped = 0
        # open spans: [layer index, span id, start, child seconds]
        self._stack: List[list] = []
        self._next_id = 0
        self.replay_accepted = 0
        self.events_processed = 0
        self.preemptions = 0
        self.tune_evals = 0
        self.tune_final_evals = 0
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._gc_start = 0.0
        self.origin = time.perf_counter()

    # -- spans ------------------------------------------------------------
    def _span(self, idx: int, fn: Callable) -> Callable:
        stack = self._stack
        clock = time.perf_counter
        label = getattr(fn, "__qualname__", repr(fn))

        def traced(*args, **kwargs):
            self._next_id += 1
            frame = [idx, self._next_id, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[2]
                self.self_s[idx] += dur - frame[3]
                self.calls[idx] += 1
                parent = 0
                if stack:
                    stack[-1][3] += dur
                    parent = stack[-1][1]
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((label, idx, frame[1], parent, frame[2], end))
                else:
                    self.dropped += 1

        return traced

    def install(self) -> None:
        """Wrap every layer's targets and hook the GC."""
        for idx, (layer, targets) in enumerate(LAYERS):
            if layer == "core.place":
                targets = _scheduler_targets()
            for target in targets:
                patch(target, lambda fn, i=idx: self._span(i, fn))
        self._count_results()
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        gc.callbacks.remove(self._on_gc)

    def _count_results(self) -> None:
        """Counts read off arguments and return values, wrapped around
        the spans (``Simulator.run`` is counted, not timed, so the DES
        keeps its time)."""

        def replay(fn):
            def counted(*args, **kwargs):
                accepted = fn(*args, **kwargs)
                self.replay_accepted += bool(accepted)
                return accepted

            return counted

        def events(fn):
            def counted(sim, *args, **kwargs):
                before = sim.processed_events
                try:
                    return fn(sim, *args, **kwargs)
                finally:
                    self.events_processed += sim.processed_events - before

            return counted

        def preemption(fn):
            def counted(*args, **kwargs):
                warn, kill = fn(*args, **kwargs)
                self.preemptions += kill != float("inf")
                return warn, kill

            return counted

        def rungs(fn):
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                evals = [r.evaluated * r.fidelity for r in result.rungs]
                self.tune_evals += sum(evals)
                self.tune_final_evals += evals[-1]
                return result

            return counted

        patch("repro.kernels.replay:replay_verify", replay)
        patch("repro.tune.search:autotune", rungs)
        patch("repro.simulator.engine:Simulator.run", events)
        patch("repro.market.spot:SpotInterruptionPlan.preemption", preemption)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_start
            self.gc_collections += 1

    # -- reports ----------------------------------------------------------
    def totals(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for idx, name in enumerate(LAYER_NAMES):
            out[f"{name}_s"] = self.self_s[idx]
            out[f"{name}_calls"] = self.calls[idx]
        replays = self.calls[LAYER_NAMES.index("kernels.replay")]
        out["kernels.replay_accept_ratio"] = (
            self.replay_accepted / replays if replays else 0.0
        )
        out["simulator.events_processed"] = self.events_processed
        out["market.preemptions"] = self.preemptions
        out["tune.final_rung_ratio"] = (
            self.tune_final_evals / self.tune_evals if self.tune_evals else 0.0
        )
        out["gc.pause_s"] = self.gc_pause_s
        out["gc.collections"] = self.gc_collections
        return out

    def attributed_s(self) -> float:
        return sum(self.self_s)

    def write_chrome(self, path, process_name: str) -> None:
        """Spans as Chrome trace-event JSON (Perfetto / chrome://tracing)."""
        events = [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 1,
             "args": {"name": process_name}},
        ]
        for label, idx, span_id, parent, start, end in self.spans:
            events.append({
                "ph": "X", "name": label, "cat": LAYER_NAMES[idx],
                "pid": 1, "tid": 1,
                "ts": (start - self.origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"id": span_id, "parent": parent},
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": {"dropped_spans": self.dropped}}, fh)
