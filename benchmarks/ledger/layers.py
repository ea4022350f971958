"""Per-layer wall and CPU accounting for the ledger's traced runs.

The ledger attributes time to the engine's layers without changing a
line of ``src/``: under ``--trace`` it replaces each layer's public
entry points -- the names callers actually look up at call time -- with
wrappers that time the call.  Each wrapper keeps a per-thread stack, so
a layer's *self* time is its wall time minus the wall time of wrapped
calls nested inside it (``prepare_many`` -> ``EventQuantifier.prepare``
-> ``TwoWorldModel.propagate_front`` is counted once, in the innermost
layer that did the work).

Two things keep the wrappers cheap enough to leave throughput within a
few percent (the served steps are ~0.2 ms of engine work, and every
wrapped call costs about a microsecond):

* *Release sampling.*  A solo ``SessionManager.step`` is traced, with
  everything nested in it, with probability :data:`STEP_SAMPLE`; a
  batched ``step_many`` (dozens of releases, ~100 ms) always is.  Calls
  outside a traced step pass straight through.  Per-release figures
  divide by the releases of traced steps only.
* *CPU sampling.*  Thread CPU (a system call) is read on one traced
  call in ``CPU_SAMPLE_MASK + 1`` per layer and thread; a layer's CPU
  time is its self time scaled by its sampled CPU/wall ratio, which is
  below 1 where the thread waited for the interpreter lock.

Spans (layer, thread, start, end) of traced calls are kept in memory up
to :data:`SPAN_CAPACITY` per thread and written out when the run ends; a span's parent is the
innermost span of the same thread that contains it.  With no tracer
installed nothing here runs, which is how the untraced end-to-end runs
stay clean.
"""

from __future__ import annotations

import functools
import importlib
import random
import threading
import time

#: (module, class or None, attribute, layer).  Module-level functions are
#: wrapped where the engine imported them (``repro.engine.session``),
#: because that is the binding its hot path reads.
TARGETS = (
    ("repro.engine.manager", "SessionManager", "step", "engine.step"),
    ("repro.engine.manager", "SessionManager", "step_many", "engine.step"),
    ("repro.engine.cache", "VerdictCache", "lookup", "engine.cache"),
    ("repro.engine.cache", "VerdictCache", "store", "engine.cache"),
    ("repro.lppm.planar_laplace", "PlanarLaplaceMechanism", "perturb", "lppm"),
    ("repro.lppm.planar_laplace", "PlanarLaplaceMechanism", "emission_column", "lppm"),
    ("repro.lppm.uniform", "UniformMechanism", "perturb", "lppm"),
    ("repro.lppm.uniform", "UniformMechanism", "emission_column", "lppm"),
    ("repro.engine.session", None, "prepare_many", "core.joint.prepare"),
    ("repro.core.joint", "EventQuantifier", "prepare", "core.joint.prepare"),
    ("repro.core.joint", "EventQuantifier", "candidate_bc", "core.joint.bc"),
    ("repro.core.joint", "EventQuantifier", "candidate_bc_many", "core.joint.bc"),
    ("repro.core.two_world", "TwoWorldModel", "propagate_front", "core.two_world.propagate"),
    ("repro.engine.session", None, "sufficient_safe", "core.theorem.certificate"),
    ("repro.engine.session", None, "solve_conditions_batch", "core.qp.solve"),
)

#: Layers in the order the layer table prints them (innermost last).
LAYERS = (
    "engine",
    "engine.cache",
    "lppm",
    "core.joint.prepare",
    "core.joint.bc",
    "core.two_world.propagate",
    "core.theorem.certificate",
    "core.qp.solve",
)

#: Probability that a solo ``SessionManager.step`` is traced.
STEP_SAMPLE = 0.125

#: Thread CPU is read on one traced call in ``CPU_SAMPLE_MASK + 1``.
CPU_SAMPLE_MASK = 7

#: Spans kept per thread; later traced calls are counted but not logged.
SPAN_CAPACITY = 20_000


def _count(counters, key, n) -> None:
    counters[key] = counters.get(key, 0) + n


def _observe_step(counters, args, result):
    _count(counters, "releases", 1)


def _observe_step_many(counters, args, result):
    _count(counters, "releases", len(result))


def _observe_certificate(counters, args, result):
    _count(counters, "core.theorem.decided", bool(result))


def _observe_solve(counters, args, result):
    _count(counters, "core.qp.conditions", len(result))
    _count(counters, "core.qp.violated", sum(1 for r in result if r.status.value == "violated"))


#: attribute -> (observer of traced calls, trace probability for calls
#: that open a traced release; None for layers nested in one).
HOOKS = {
    "step": (_observe_step, STEP_SAMPLE),
    "step_many": (_observe_step_many, 1.0),
    "sufficient_safe": (_observe_certificate, None),
    "solve_conditions_batch": (_observe_solve, None),
}

_LAYER_NAMES = tuple(dict.fromkeys(target[3] for target in TARGETS))

_MISSING = object()


class _ThreadState:
    __slots__ = ("active", "nested", "totals", "counters", "spans", "ident", "random")

    def __init__(self):
        self.active = False  # inside a traced release
        # Wall ns of wrapped calls nested in each open traced call; the
        # bottom entry absorbs the outermost calls.
        self.nested: list[int] = [0]
        # layer -> [calls, wall_ns, self_ns, sampled wall_ns, sampled cpu_ns]
        self.totals = {layer: [0, 0, 0, 0, 0] for layer in _LAYER_NAMES}
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.ident = threading.get_ident()
        self.random = random.Random(self.ident).random


class LayerTracer:
    """Collects per-layer totals and a capped span log, per thread."""

    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._installed: list[tuple] = []

    def _state(self) -> _ThreadState:
        state = self._local.state = _ThreadState()
        with self._lock:
            self._states.append(state)
        return state

    def wrap(self, layer: str, fn, observe=None, sample=None):
        """``fn`` timed as one call of ``layer`` (a name in :data:`TARGETS`).

        ``sample`` set: the call opens a traced release with that
        probability (when not already inside one).  ``sample`` None: the
        call is timed only inside a traced release.
        """
        perf = time.perf_counter_ns
        cpu = time.thread_time_ns
        capacity = SPAN_CAPACITY
        local = self._local
        new_state = self._state
        mask = CPU_SAMPLE_MASK

        def timed(state, args, kwargs):
            nested = state.nested
            nested.append(0)
            row = state.totals[layer]
            sampled = not row[0] & mask
            if sampled:
                cpu0 = cpu()
            wall0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall1 = perf()
                wall = wall1 - wall0
                inner = nested.pop()
                nested[-1] += wall
                row[0] += 1
                row[1] += wall
                row[2] += wall - inner
                if sampled:
                    row[4] += cpu() - cpu0
                    row[3] += wall
                spans = state.spans
                if len(spans) < capacity:
                    spans.append((layer, state.ident, wall0, wall1))
            if observe is not None:
                observe(state.counters, args, result)
            return result

        if sample is None:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                try:
                    state = local.state
                except AttributeError:
                    state = new_state()
                if not state.active:
                    return fn(*args, **kwargs)
                return timed(state, args, kwargs)

        else:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                try:
                    state = local.state
                except AttributeError:
                    state = new_state()
                if state.active:
                    return timed(state, args, kwargs)
                if sample < 1.0 and state.random() >= sample:
                    return fn(*args, **kwargs)
                state.active = True
                try:
                    return timed(state, args, kwargs)
                finally:
                    state.active = False

        return traced

    def install(self) -> None:
        """Wrap every :data:`TARGETS` entry (idempotent per tracer)."""
        if self._installed:
            return
        for module_name, class_name, attribute, layer in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if class_name is None else getattr(module, class_name)
            # An inherited method has no entry of its own; uninstall then
            # deletes the shadowing wrapper instead of pinning the base.
            own = vars(owner).get(attribute, _MISSING)
            observe, sample = HOOKS.get(attribute, (None, None))
            setattr(owner, attribute, self.wrap(layer, getattr(owner, attribute), observe, sample))
            self._installed.append((owner, attribute, own))

    def uninstall(self) -> None:
        """Restore every wrapped name (inherited methods are un-shadowed)."""
        for owner, attribute, own in reversed(self._installed):
            if own is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)
        self._installed.clear()

    def snapshot(self) -> dict:
        """Totals and counters merged over threads, plus the span log."""
        totals: dict[str, list[int]] = {}
        counters: dict[str, int] = {}
        spans: list[tuple] = []
        with self._lock:
            states = list(self._states)
        for state in states:
            for layer, row in list(state.totals.items()):
                merged = totals.setdefault(layer, [0, 0, 0, 0, 0])
                for index, value in enumerate(row):
                    merged[index] += value
            for key, value in list(state.counters.items()):
                counters[key] = counters.get(key, 0) + value
            spans.extend(state.spans)
        spans.sort(key=lambda span: span[2])
        return {"totals": totals, "counters": counters, "spans": spans}


def _combine(a: dict, b: dict, sign: int) -> dict:
    totals = {layer: list(row) for layer, row in a["totals"].items()}
    for layer, row in b["totals"].items():
        merged = totals.setdefault(layer, [0, 0, 0, 0, 0])
        for index, value in enumerate(row):
            merged[index] += sign * value
    counters = dict(a["counters"])
    for key, value in b["counters"].items():
        counters[key] = counters.get(key, 0) + sign * value
    return {"totals": totals, "counters": counters}


def add(a: dict, b: dict) -> dict:
    """Two snapshots' totals and counters summed."""
    return _combine(a, b, 1)


def subtract(after: dict, before: dict) -> dict:
    """Totals and counters accrued between two :meth:`snapshot` calls."""
    return _combine(after, before, -1)


def layer_rows(traced: dict, per_release_ms: float) -> list[dict]:
    """One row per layer: calls, self ms and estimated self CPU ms per release.

    ``traced`` is a snapshot (or difference of two); its ``releases``
    counter -- the releases of traced steps -- is the denominator.
    ``per_release_ms`` is the measured time one release took end to end
    (engine workloads: harness wall time per release; served workloads:
    the server's mean ``request`` span per step).  A layer's share is
    its self time over that; the ``engine`` row is the engine driver's
    own code (``SessionManager.step`` minus every nested layer).
    """
    releases = traced["counters"].get("releases", 0)
    rows = []
    for layer in LAYERS:
        row = traced["totals"].get("engine.step" if layer == "engine" else layer, [0] * 5)
        calls, _, self_ns, sampled_wall_ns, sampled_cpu_ns = row
        ms = self_ns / 1e6 / releases
        cpu_ratio = sampled_cpu_ns / sampled_wall_ns if sampled_wall_ns else 0.0
        rows.append(
            {
                "layer": layer,
                "calls": calls / releases,
                "ms": ms,
                "cpu_ms": ms * cpu_ratio,
                "share": ms / per_release_ms,
            }
        )
    return rows
