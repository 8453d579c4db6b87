"""Per-layer spans recorded from outside the program.

`Tracer.install()` replaces the public functions of each layer of the
`wavefield` package with wrappers that record a span, and `uninstall()` puts
the originals back; no source file changes. A wrapper is bound wherever the
package holds a reference to the original (the defining module, the modules
that imported it by name, and `verification._CHECKS`). A function a later
version of the package no longer has is skipped, and its metrics read 0.
The ray quadrature and the sub-quadratures are told apart by the module
that calls `adaptive_quad`: `green` integrates the proper-time ray, while
`kernels` and `paths` integrate along the wave phase.

Each span records its wall time and `time.thread_time()`, so busy time is
CPU time and wait is wall minus CPU. The CLI evaluates grid rows on a thread
pool, so every thread keeps its own span stack; a span opened on a worker
thread with an empty stack takes the main thread's innermost span as its
parent. Self time is a span minus the children on its own thread. A traced
`verify` request makes about 200,000 spans, so each span is folded, as it
closes, into in-memory totals per request, name, parent and depth;
`green_function` calls are also kept one by one for their percentiles.
`dump()` writes both when the run ends.

Profile evaluations are too many and too short for spans; a counter per
thread counts calls of `PlaneWaveProfile.potential` and `.derivative` made
inside `green_function`.
"""

from __future__ import annotations

import json
import statistics
import sys
import threading
from collections import namedtuple
from time import perf_counter, thread_time

#: Span totals per (request, name, parent, depth, inside a gf call, ok):
#: calls, quadrature nodes (for `adaptive_quad`), wall, busy, self wall,
#: self busy.
Total = namedtuple("Total", "request name parent depth in_gf ok calls count wall cpu "
                            "self_wall self_cpu")

#: (span name, module, attribute): every binding of the attribute's object
#: inside the package is wrapped.
_SPANS = (
    ("cli.main", "cli", "main"),
    ("cli.parse", "cli", "parse_config"),
    ("cli.run", "cli", "run"),
    ("cli.render", "cli", "render_csv"),
    ("cli.render", "cli", "render_sidecar"),
    ("green.gf", "green", "green_function"),
    ("green.dirac", "green", "dirac_apply"),
    ("green.prepare", "green", "_prepare"),
    ("green.integrand", "green", "proper_time_integrand"),
    ("kernels.schwinger", "kernels", "schwinger_kernel"),
    ("kernels.cross_phase", "kernels", "cross_phase"),
    ("kernels.drift", "kernels", "drift_at_phi"),
    ("kernels.volkov", "kernels", "volkov_kernel"),
    ("kernels.volkov", "kernels", "volkov_kernel_conj"),
    ("oracles.sliced_kernel", "oracles", "sliced_kernel"),
    ("paths.classical_spin_path", "paths", "classical_spin_path"),
)

#: (span name, calling module): only that module's `adaptive_quad` binding.
_QUADRATURES = (
    ("quadrature.ray", "green"),
    ("quadrature.sub", "kernels"),
    ("quadrature.sub", "paths"),
)

#: Names of the `verify` checks, in `verification._CHECKS` order.
CHECK_NAMES = (
    "ledger_consistency", "clifford_algebra", "basis_identities", "planewave_contraction",
    "classical_path_equations", "sliced_oracle_agreement", "spin_determinant",
    "phase_integral_oracles", "zero_wave_vector_equivalence", "contour_invariance",
    "free_field_reduction", "derivative_consistency", "determinism",
)


class _ThreadState:
    __slots__ = ("stack", "totals", "gf_calls", "counts", "in_gf")

    def __init__(self):
        self.stack = []       # open frames: [name, child wall, child cpu, depth]
        self.totals = {}      # Total key -> [calls, count, wall, cpu, self wall, self cpu]
        self.gf_calls = []    # (request, wall, cpu) of every green_function call
        self.counts = {}      # request -> profile calls inside green_function
        self.in_gf = 0


class Tracer:
    """Span recorder for one benchmark run; `request` tags every span."""

    def __init__(self):
        self.request = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states = []
        self._main = self._state()
        self._patches = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, count=None):
        tracer = self
        is_gf = name == "green.gf"

        def wrapper(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            if stack:
                parent = stack[-1]
            elif state is not tracer._main and tracer._main.stack:
                # pool worker: the main thread is blocked inside the caller
                parent = [tracer._main.stack[-1][0], 0.0, 0.0, tracer._main.stack[-1][3]]
            else:
                parent = None
            depth = 0 if parent is None else parent[3] + 1
            frame = [name, 0.0, 0.0, depth]
            stack.append(frame)
            inside = state.in_gf > 0
            state.in_gf += is_gf
            ok, result = False, None
            # the CPU interval nests inside the wall interval, so wait >= 0
            t0 = perf_counter()
            c0 = thread_time()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                cpu = thread_time() - c0
                wall = perf_counter() - t0
                stack.pop()
                state.in_gf -= is_gf
                if parent is not None:
                    parent[1] += wall
                    parent[2] += cpu
                key = (tracer.request, name, parent[0] if parent else None, depth, inside, ok)
                total = state.totals.get(key)
                if total is None:
                    total = state.totals[key] = [0, 0, 0.0, 0.0, 0.0, 0.0]
                total[0] += 1
                total[1] += count(result) if ok and count else 0
                total[2] += wall
                total[3] += cpu
                total[4] += wall - frame[1]
                total[5] += cpu - frame[2]
                if is_gf:
                    state.gf_calls.append((tracer.request, wall, cpu))

        return wrapper

    def _counter(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            state = tracer._state()
            if state.in_gf:
                state.counts[tracer.request] = state.counts.get(tracer.request, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every layer function the package has."""
        package = {name[len("wavefield."):]: mod for name, mod in sorted(sys.modules.items())
                   if name.startswith("wavefield.")}
        checks = getattr(package.get("verification"), "_CHECKS", ())
        specs = list(_SPANS) + [(f"verification.{fn.__name__[len('check_'):]}", "verification",
                                 fn.__name__) for fn in checks]
        wrapped = {}
        for name, module, attr in specs:
            original = getattr(package.get(module), attr, None)
            if original is None:
                continue
            wrapped[original] = self._span(name, original)
            for mod in [sys.modules["wavefield"], *package.values()]:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped[original])
        if checks:
            self._set(package["verification"], "_CHECKS",
                      tuple(wrapped.get(fn, fn) for fn in checks))
        for name, module in _QUADRATURES:
            mod = package.get(module)
            if hasattr(mod, "adaptive_quad"):
                self._set(mod, "adaptive_quad",
                          self._span(name, mod.adaptive_quad, count=lambda r: r.nodes))
        profile = getattr(package.get("fields"), "PlaneWaveProfile", None)
        for attr in ("potential", "derivative"):
            if hasattr(profile, attr):
                self._set(profile, attr, self._counter(getattr(profile, attr)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def totals(self) -> list:
        """Span totals of every thread; rows of one key from different
        threads stay separate rows."""
        return [Total(*key, *values) for state in self._states
                for key, values in state.totals.items()]

    def gf_calls(self) -> list:
        return [call for state in self._states for call in state.gf_calls]

    def profile_calls(self, requests) -> int:
        """Profile evaluations inside green_function during `requests`."""
        return sum(n for state in self._states for req, n in state.counts.items()
                   if req in requests)

    def dump(self, path):
        """Write the span totals and the green_function calls as JSON."""
        with open(path, "w") as fh:
            json.dump({"fields": Total._fields, "totals": self.totals(),
                       "gf_calls_fields": ("request", "wall", "cpu"),
                       "gf_calls": self.gf_calls()}, fh)


# -- per-layer metrics ------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values) -> float:
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _calls(rows) -> int:
    return sum(r.calls for r in rows)


def _sum(rows, field: str) -> float:
    return sum(getattr(r, field) for r in rows)


def _per_request(rows, requests, key) -> list:
    """key(row) summed per request, for every traced request."""
    totals = dict.fromkeys(requests, 0.0)
    for row in rows:
        totals[row.request] += key(row)
    return list(totals.values())


def layer_metrics(tracer: Tracer, requests: list, count_requests: set) -> dict:
    """Per-layer figures from the traced requests, as name -> (value, unit).

    Counts use only `count_requests`, a prefix every traced run completes, so
    they repeat exactly for a seed. Times use every traced request. A layer the
    workload never reaches reports 0.
    """
    rows = tracer.totals()

    def named(name, *, counted=False, **fields):
        out = [r for r in rows if r.name == name]
        if counted:
            out = [r for r in out if r.request in count_requests]
        for field, value in fields.items():
            out = [r for r in out if getattr(r, field) == value]
        return out

    gf = tracer.gf_calls()
    gf_counted = _calls(named("green.gf", counted=True))
    ray = named("quadrature.ray", in_gf=True)
    ray_counted = named("quadrature.ray", in_gf=True, counted=True)
    sub_counted = named("quadrature.sub", in_gf=True, counted=True)
    integrand = named("green.integrand", in_gf=True)
    schwinger = named("kernels.schwinger")
    quads = named("quadrature.ray") + named("quadrature.sub")
    busy = [cpu * 1e3 for _, _, cpu in gf]

    def busy_per_gf(name):
        return _ratio(_sum(named(name, in_gf=True), "cpu"), len(gf)) * 1e3

    def busy_per_call(name):
        calls = named(name)
        return _ratio(_sum(calls, "cpu"), _calls(calls)) * 1e3

    def count_per_gf(value):
        return _ratio(value, gf_counted), "count"

    metrics = {
        "quadrature.ray_nodes": count_per_gf(_sum(ray_counted, "count")),
        "quadrature.ray_self_us": (_ratio(_sum(ray, "self_cpu"), _sum(ray, "count")) * 1e6, "us"),
        "green.integrand_self_us": (_ratio(_sum(integrand, "self_cpu"), _calls(integrand)) * 1e6,
                                    "us"),
        "kernels.schwinger_us": (_ratio(_sum(schwinger, "cpu"), _calls(schwinger)) * 1e6, "us"),
        "green.prepare_ms": (busy_per_gf("green.prepare"), "ms"),
        "kernels.cross_phase_ms": (busy_per_gf("kernels.cross_phase"), "ms"),
        "kernels.volkov_ms": (busy_per_gf("kernels.volkov"), "ms"),
        "kernels.drift_calls": count_per_gf(_calls(named("kernels.drift", in_gf=True,
                                                         counted=True))),
        "quadrature.sub_calls": count_per_gf(_calls(sub_counted)),
        "quadrature.sub_nodes": count_per_gf(_sum(sub_counted, "count")),
        "fields.profile_calls": count_per_gf(tracer.profile_calls(count_requests)),
        "quadrature.failures": (_ratio(_calls([r for r in quads if not r.ok]), _calls(quads)),
                                "ratio"),
        "green.gf_busy_ms_p50": (_median(busy), "ms"),
        "green.gf_busy_ms_p90": (_p90(busy), "ms"),
        "green.gf_samples": (len(busy), "count"),
        "green.gf_wait_ms_p50": (_median([(wall - cpu) * 1e3 for _, wall, cpu in gf]), "ms"),
        "green.gf_per_dirac": (_ratio(_calls(named("green.gf", counted=True, parent="green.dirac")),
                                      _calls(named("green.dirac", counted=True))), "count"),
    }

    # cli layer, per request; only the request's own top-level calls (the
    # determinism check of `verify` calls the CLI again, one level deeper)
    walls = _per_request(named("cli.main", depth=0), requests, lambda r: r.wall)
    evals = [r for r in rows if r.parent == "cli.run" and r.depth == 2]
    eval_wall = _per_request(evals, requests, lambda r: r.wall)
    metrics.update({
        "cli.parse_ms": (_median(_per_request(named("cli.parse", depth=1), requests,
                                              lambda r: r.cpu * 1e3)), "ms"),
        "cli.render_ms": (_median(_per_request(named("cli.render", depth=2), requests,
                                               lambda r: r.cpu * 1e3)), "ms"),
        "cli.eval_busy_s": (_median(_per_request(evals, requests, lambda r: r.cpu)), "s"),
        "cli.eval_wait_s": (_median(_per_request(evals, requests, lambda r: r.wall - r.cpu)),
                            "s"),
        "cli.pool_overlap": (_median([_ratio(e, w) for e, w in zip(eval_wall, walls)]), "ratio"),
    })

    checks = [r for r in evals if r.name.startswith("verification.")]
    for check in CHECK_NAMES:
        name = f"verification.{check}"
        metrics[f"{name}_s"] = (_median(_per_request([r for r in checks if r.name == name],
                                                     requests, lambda r: r.cpu)), "s")
    metrics["verification.wait_s"] = (_median(_per_request(checks, requests,
                                                           lambda r: r.wall - r.cpu)), "s")
    metrics["oracles.sliced_kernel_ms"] = (busy_per_call("oracles.sliced_kernel"), "ms")
    metrics["paths.classical_spin_path_ms"] = (busy_per_call("paths.classical_spin_path"), "ms")
    return metrics
