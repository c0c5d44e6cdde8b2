"""Span tracer that times calls into the vhlift modules from outside.

A span wraps one call of a public vhlift function.  Wrappers are installed
on every module attribute through which the function is looked up, not only
on its home module: `solver` binds `svt`, `vec_hankel` and
`vec_hankel_adjoint` as its own globals, and `bench` and `cli` import
`solve_vhl`, `pseudospectrum` and the rest by name, so patching only
`lift.vec_hankel` would time nothing inside a solve.  `restore()` puts every
original back.

Spans are (id, function, start, end, parent, thread, op, extra) tuples kept
in memory and written out by `write_csv`.  The parent stack is per thread,
so calls made by harness worker threads nest under the worker's own spans
and never under the main thread's span that is waiting for them.  `extra`
holds a per-call count taken from the arguments or result (iterations,
computed flops or bytes, grid points); see `_EXTRA`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
import time
import types

# layer = last component of the vhlift module that defines the function
LAYERS = ("model", "lift", "solver", "estimate", "bench", "io", "figures",
          "cli")


def _svt_flops(args, kwargs, result):
    # thin complex SVD of an m x k matrix (m >= k): about 4 * (6 m k^2 +
    # 20 k^3) real flops (Golub and Van Loan, R-SVD), plus the complex
    # product (U * shrunk) @ Vh, 8 m k^2.  Computed from the shape.
    m, k = args[0].shape
    if m < k:
        m, k = k, m
    return 4.0 * (6.0 * m * k * k + 20.0 * k ** 3) + 8.0 * m * k * k


def _lift_bytes(args, kwargs, result):
    # complex128 input read plus lifted output written, from the shapes
    return 16.0 * (args[0].size + result.size)


def _solve_outcome(args, kwargs, result):
    return (result.iters, result.converged)


def _grid_points(args, kwargs, result):
    return float(result.grid.size)


def _file_bytes(args, kwargs, result):
    return float(os.path.getsize(args[0]))


_EXTRA = {
    "solver.svt": _svt_flops,
    "lift.vec_hankel": _lift_bytes,
    "solver.solve_vhl": _solve_outcome,
    "estimate.pseudospectrum": _grid_points,
    "io.write_complex_matrix_csv": _file_bytes,
    "io.write_complex_vector_csv": _file_bytes,
}


class Tracer:
    """Install with `install()`, record while `active` is true, then
    `restore()`.  `op` is the current op id, stamped on every span."""

    def __init__(self, package):
        self.package = package
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.active = False
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        wrappers = {}
        prefix = self.package.__name__ + "."
        modules = [self.package] + [importlib.import_module(prefix + layer)
                                    for layer in LAYERS]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith(prefix) or obj.__name__.startswith("_"):
                    continue
                layer = home[len(prefix):]
                if layer not in LAYERS:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, "%s.%s"
                                               % (layer, obj.__name__))
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[obj])

    def restore(self) -> None:
        self.active = False
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def _wrap(self, fn, name):
        idx = len(self.names)
        self.names.append(name)
        extra_of = _EXTRA.get(name)
        tracer = self
        local = self._local
        ids = self._ids
        spans = self.spans
        clock = time.perf_counter
        ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            extra = None if extra_of is None else extra_of(args, kwargs,
                                                            result)
            spans.append((sid, idx, t0, t1, parent, ident(), tracer.op,
                          extra))
            return result

        return wrapper

    # ------------------------------------------------------------ output

    def write_csv(self, path) -> None:
        """One line per span: id,name,start,end,parent,thread,op."""
        base = min((s[2] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write("id,name,start_s,end_s,parent,thread,op\n")
            for sid, idx, t0, t1, parent, thread, op, _ in self.spans:
                fh.write("%d,%s,%.9f,%.9f,%d,%d,%d\n"
                         % (sid, self.names[idx], t0 - base, t1 - base,
                            parent, thread, op))


def summarize(tracer: Tracer, wall_s: float, workers: int,
              cpu_s: float, nproc: int) -> dict:
    """Per-layer numbers from the recorded spans.

    busy = inclusive time of the outermost spans of a function or layer;
    self = span time not covered by its direct children (same thread).
    `wall_s` is the traced wall time, `workers` the harness thread count
    (0 when the main thread does all the work), `cpu_s` the process CPU
    seconds over the traced passes.
    """
    names = tracer.names
    spans = tracer.spans
    by_id = {s[0]: s for s in spans}
    child_time: dict[int, float] = {}
    for sid, idx, t0, t1, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)

    def name_of(sid):
        return names[by_id[sid][1]] if sid in by_id else ""

    def layer(name):
        return name.split(".", 1)[0]

    main = threading.main_thread().ident
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}   # per function, outermost call of itself
    self_s = {lay: 0.0 for lay in LAYERS}
    layer_busy = {lay: 0.0 for lay in LAYERS}
    extra: dict[str, list] = {}
    worker_busy = 0.0
    admm_self = 0.0
    noise_busy = 0.0
    io_read = io_write = 0.0
    for sid, idx, t0, t1, parent, thread, op, ex in spans:
        name = names[idx]
        dur = t1 - t0
        pname = name_of(parent)
        calls[name] = calls.get(name, 0) + 1
        if pname != name:
            busy[name] = busy.get(name, 0.0) + dur
        own = dur - child_time.get(sid, 0.0)
        self_s[layer(name)] += own
        if name == "solver.solve_vhl":
            admm_self += own
        if layer(pname) != layer(name):
            layer_busy[layer(name)] += dur
        if ex is not None:
            extra.setdefault(name, []).append(ex)
        if parent < 0 and thread != main:
            worker_busy += dur
        fn = name.split(".", 1)[1]
        if fn.startswith("noise_subspace") \
                and not pname.startswith("estimate.noise_subspace"):
            noise_busy += dur
        if layer(name) == "io" and layer(pname) != "io":
            if fn.startswith("read"):
                io_read += dur
            elif fn.startswith("write"):
                io_write += dur

    solves = extra.get("solver.solve_vhl", [])
    iters = sum(it for it, _ in solves)
    capped = sum(1 for _, conv in solves if not conv)
    capped_iters = sum(it for it, conv in solves if not conv)
    solve_busy = busy.get("solver.solve_vhl", 0.0)
    capacity = wall_s * workers

    out = {
        "solver.iters_total": (float(iters), "count"),
        "solver.iter_cap_share": (capped / len(solves) if solves else 0.0,
                                  "share"),
        "solver.capped_iter_share": (capped_iters / iters if iters else 0.0,
                                     "share"),
        "solver.s_per_iter": (solve_busy / iters if iters else 0.0, "s"),
        "solver.svt.calls": (float(calls.get("solver.svt", 0)), "count"),
        "solver.svt.busy_s": (busy.get("solver.svt", 0.0), "s"),
        "solver.svt.gflop_computed": (
            sum(extra.get("solver.svt", [])) / 1e9, "GFLOP"),
        "solver.admm_self_s": (admm_self, "s"),
        "lift.vec_hankel.calls": (float(calls.get("lift.vec_hankel", 0)),
                                  "count"),
        "lift.vec_hankel.busy_s": (busy.get("lift.vec_hankel", 0.0), "s"),
        "lift.vec_hankel.bytes_computed": (
            sum(extra.get("lift.vec_hankel", [])), "B"),
        "lift.vec_hankel_adjoint.calls": (
            float(calls.get("lift.vec_hankel_adjoint", 0)), "count"),
        "lift.vec_hankel_adjoint.busy_s": (
            busy.get("lift.vec_hankel_adjoint", 0.0), "s"),
        "estimate.pseudospectrum.calls": (
            float(calls.get("estimate.pseudospectrum", 0)), "count"),
        "estimate.pseudospectrum.busy_s": (
            busy.get("estimate.pseudospectrum", 0.0), "s"),
        "estimate.pseudospectrum.grid_points": (
            sum(extra.get("estimate.pseudospectrum", [])), "count"),
        "estimate.noise_subspace.busy_s": (noise_busy, "s"),
        "estimate.pick_peaks.busy_s": (busy.get("estimate.pick_peaks", 0.0),
                                       "s"),
        "estimate.recover_amplitudes.busy_s": (
            busy.get("estimate.recover_amplitudes", 0.0), "s"),
        "bench.worker_busy_s": (worker_busy, "s"),
        "bench.idle_s": (max(0.0, capacity - worker_busy) if workers
                         else 0.0, "s"),
        "bench.parallel_eff": (worker_busy / capacity if capacity else 0.0,
                               "share"),
        "bench.cpu_util": (cpu_s / (wall_s * nproc) if wall_s else 0.0,
                           "share"),
        "model.busy_s": (layer_busy["model"], "s"),
        "io.read_s": (io_read, "s"),
        "io.write_s": (io_write, "s"),
        "io.bytes_written": (sum(
            sum(extra.get(k, [])) for k in ("io.write_complex_matrix_csv",
                                            "io.write_complex_vector_csv")),
            "B"),
        "figures.busy_s": (layer_busy["figures"], "s"),
    }
    for lay in LAYERS:
        out["%s.self_s" % lay] = (self_s[lay], "s")
    out["trace.spans"] = (float(len(spans)), "count")
    return out
