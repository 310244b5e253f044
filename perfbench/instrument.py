"""Span wrappers around the program's layer entry points.

``instrumented(tracer)`` patches each public entry point at the name its
caller module imports (or on the class whose instances are called), so the
program itself is unchanged; every patch is undone when the block exits.
The wrappers only observe: they pass arguments and results through
untouched, which the tests pin by comparing traced and untraced solves.

Layer -> patched name(s):

===================  ===================================================
``partition``        ``repro.qaoa2.solver.partition_with_cap``
``executor``         ``repro.qaoa2.solver.map_jobs`` (each job becomes a
                     ``leaf`` span on the worker thread that ran it)
``qaoa``             ``QAOASolver.solve``
``gw``               ``repro.qaoa2.solver.goemans_williamson``
``merge``            ``repro.qaoa2.solver.{assemble_global_assignment,
                     build_merge_problem, apply_flips}``
``optim``            ``repro.qaoa.solver.minimize`` (its objective
                     callbacks become ``engine.eval`` spans)
``engine.diagonal``  ``cut_diagonal`` as imported by ``repro.qaoa.engine``,
                     ``repro.qaoa.energy`` and ``repro.service.scheduler``
``backend.mixer``    ``apply_mixer_layer`` / ``apply_cost_layer`` on every
``backend.cost``     backend singleton the registry can build
``wire.decode``      ``repro.service.http.request_from_wire``
``wire.encode``      ``repro.service.http.result_to_wire``
``fingerprint``      ``repro.service.service.canonical_fingerprint``
``cache.lookup``     ``ResultCache.get_tiered``
``cache.store``      ``ResultCache.put``
``scheduler``        ``BatchScheduler.run``
===================  ===================================================

The ``leaf`` wrapper is a closure, so traced runs support the ``serial``
and ``thread`` executors only (a process pool could not pickle it).
"""

from __future__ import annotations

import contextlib
import functools
from typing import Any, Callable, Iterator, List, Optional, Tuple

from spans import Span, Tracer

After = Optional[Callable[[Span, tuple, dict, Any], None]]


def spanned(tracer: Tracer, name: str, fn: Callable, after: After = None) -> Callable:
    """``fn`` inside a span named ``name``; ``after`` may add span attributes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if after is not None:
            after(span, args, kwargs, result)
        return result

    return wrapper


def _set(**attrs: Callable) -> After:
    def after(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
        for key, getter in attrs.items():
            span.attrs[key] = float(getter(args, result))

    return after


def _backend_attrs(backend: str, counts_bytes: bool) -> After:
    def after(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
        span.attrs["backend"] = backend
        if counts_bytes:  # computed bytes: one read + one write of the states
            span.attrs["bytes"] = 2.0 * args[0].nbytes

    return after


def _traced_map_jobs(tracer: Tracer, map_jobs: Callable) -> Callable:
    @functools.wraps(map_jobs)
    def wrapper(fn, jobs, **kwargs):
        jobs = list(jobs)
        span = tracer.open("executor")

        def leaf(job):
            inner = tracer.open("leaf", parent=span.sid, cpu=True)
            try:
                return fn(job)
            finally:
                tracer.close(inner)

        try:
            result = map_jobs(leaf, jobs, **kwargs)
        finally:
            tracer.close(span)
        config = kwargs.get("config")
        parallel = config is not None and config.backend != "serial"
        span.attrs["jobs"] = float(len(jobs))
        span.attrs["width"] = float(config.max_workers if parallel else 1)
        return result

    return wrapper


def _traced_minimize(tracer: Tracer, minimize: Callable) -> Callable:
    @functools.wraps(minimize)
    def wrapper(fun, x0, *args, batch_fun=None, **kwargs):
        span = tracer.open("optim")
        evals = [0]

        def evaluate(params, rows: int, objective: Callable):
            evals[0] += 1
            inner = tracer.open("engine.eval")
            try:
                return objective(params)
            finally:
                tracer.close(inner)
                inner.attrs["rows"] = float(rows)

        def point(params):
            return evaluate(params, 1, fun)

        def batch(params_matrix):
            return evaluate(params_matrix, len(params_matrix), batch_fun)

        try:
            result = minimize(
                point, x0, *args,
                batch_fun=None if batch_fun is None else batch,
                **kwargs,
            )
        finally:
            tracer.close(span)
        span.attrs["evals"] = float(evals[0])
        return result

    return wrapper


def _backend_instances() -> List[object]:
    from repro.quantum.backend import BackendUnavailable, available_backends, get_backend

    instances = []
    for name in available_backends():
        try:
            instances.append(get_backend(name))
        except BackendUnavailable:
            continue
    return instances


@contextlib.contextmanager
def instrumented(tracer: Tracer) -> Iterator[Tracer]:
    """Install every layer wrapper for the duration of the block."""
    import repro.qaoa.energy as energy_mod
    import repro.qaoa.engine as engine_mod
    import repro.qaoa.solver as qaoa_mod
    import repro.qaoa2.solver as qaoa2_mod
    import repro.service.http as http_mod
    import repro.service.scheduler as scheduler_mod
    import repro.service.service as service_mod
    from repro.qaoa.solver import QAOASolver
    from repro.service.cache import ResultCache
    from repro.service.scheduler import BatchScheduler

    undo: List[Tuple[object, str, object]] = []
    instance_undo: List[Tuple[object, str]] = []

    def patch(owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = vars(owner)[attr]
        undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def simple(name: str, after: After = None) -> Callable[[Callable], Callable]:
        return lambda fn: spanned(tracer, name, fn, after)

    try:
        patch(qaoa2_mod, "partition_with_cap",
              simple("partition", _set(parts=lambda a, r: r.n_parts)))
        patch(qaoa2_mod, "map_jobs", lambda fn: _traced_map_jobs(tracer, fn))
        patch(qaoa2_mod, "goemans_williamson", simple("gw"))
        patch(qaoa2_mod, "assemble_global_assignment", simple("merge"))
        patch(qaoa2_mod, "build_merge_problem",
              simple("merge", _set(nodes=lambda a, r: r.merged_graph.n_nodes)))
        patch(qaoa2_mod, "apply_flips", simple("merge"))
        patch(QAOASolver, "solve", simple("qaoa", _set(nfev=lambda a, r: r.nfev)))
        patch(qaoa_mod, "minimize", lambda fn: _traced_minimize(tracer, fn))
        for module in (engine_mod, energy_mod, scheduler_mod):
            patch(module, "cut_diagonal", simple("engine.diagonal"))
        patch(http_mod, "request_from_wire", simple("wire.decode"))
        patch(http_mod, "result_to_wire", simple("wire.encode"))
        patch(service_mod, "canonical_fingerprint", simple("fingerprint"))
        patch(ResultCache, "get_tiered", simple("cache.lookup"))
        patch(ResultCache, "put", simple("cache.store"))
        patch(BatchScheduler, "run", simple("scheduler", _set(jobs=lambda a, r: len(a[1]))))
        # Backends call their primitives through ``self``: shadow the bound
        # methods on the registry's singleton instances.
        for backend in _backend_instances():
            for attr, name, counts_bytes in (
                ("apply_mixer_layer", "backend.mixer", True),
                ("apply_cost_layer", "backend.cost", False),
            ):
                after = _backend_attrs(backend.name, counts_bytes)
                setattr(backend, attr, spanned(tracer, name, getattr(backend, attr), after))
                instance_undo.append((backend, attr))
        yield tracer
    finally:
        for backend, attr in reversed(instance_undo):
            delattr(backend, attr)
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
