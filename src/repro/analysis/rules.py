"""The project-invariant rules (see ``src/repro/analysis/README.md``).

Each rule encodes a convention some earlier PR established and that has,
until now, only been guarded by reviewer vigilance.  Rules are small AST
checks registered with :func:`repro.analysis.core.register_rule`; new
invariants should follow the same pattern (subclass ``Rule``, register,
add a violating + clean fixture pair under ``tests/analysis_fixtures/``).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.core import (
    AnalysisContext,
    Finding,
    Rule,
    SourceFile,
    register_rule,
)

# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Map local names to the dotted things they import.

    ``import numpy as np``            -> {"np": "numpy"}
    ``from numpy import random``      -> {"random": "numpy.random"}
    ``from time import sleep as zz``  -> {"zz": "time.sleep"}
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def _dotted_name(node: ast.expr, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve ``np.random.seed``-style attribute chains to a dotted path."""
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    base = aliases.get(current.id, current.id)
    parts.append(base)
    return ".".join(reversed(parts))


def _module_in(module: str, packages: Sequence[str]) -> bool:
    return any(module == pkg or module.startswith(pkg + ".") for pkg in packages)


# ----------------------------------------------------------------------
# 1. backend-seam (PR 5)
# ----------------------------------------------------------------------

#: The raw batch-evolution kernels of ``repro.quantum.statevector``;
#: callers go through a StatevectorBackend instead.
KERNEL_NAMES = frozenset(
    {
        "plus_state_batch",
        "apply_rx_layer",
        "apply_phases_batch",
        "walsh_hadamard_batch",
    }
)
KERNEL_MODULE = "repro.quantum.statevector"
#: Modules allowed to touch the kernels directly: the defining module and
#: the backend package itself.
SEAM_ALLOWED = ("repro.quantum.backend", KERNEL_MODULE)


@register_rule
class BackendSeamRule(Rule):
    name = "backend-seam"
    description = (
        "Raw statevector kernels (apply_rx_layer, apply_phases_batch, "
        "walsh_hadamard_batch, plus_state_batch) may be imported from "
        "repro.quantum.statevector only inside repro.quantum.backend; "
        "everyone else goes through a StatevectorBackend."
    )
    invariant = "PR 5 (pluggable backend layer: the seam is grep-clean)"

    def check(self, file: SourceFile, ctx: AnalysisContext) -> Iterator[Finding]:
        if _module_in(file.module, SEAM_ALLOWED):
            return
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.ImportFrom) or node.level != 0:
                continue
            if node.module != KERNEL_MODULE:
                continue
            for alias in node.names:
                if alias.name == "*":
                    yield file.finding(
                        self.name,
                        node.lineno,
                        "star-import of repro.quantum.statevector exposes raw "
                        "kernels outside the backend seam",
                    )
                elif alias.name in KERNEL_NAMES:
                    yield file.finding(
                        self.name,
                        node.lineno,
                        f"kernel '{alias.name}' imported from {node.module}; "
                        "use a StatevectorBackend (resolve_backend) instead",
                    )


# ----------------------------------------------------------------------
# 2. layering (PR 4/5 architecture)
# ----------------------------------------------------------------------

CORE_PACKAGES = ("repro.quantum", "repro.graphs", "repro.classical")
UPPER_PACKAGES = ("repro.service", "repro.hpc", "repro.cli")


@register_rule
class LayeringRule(Rule):
    name = "layering"
    description = (
        "Core packages (repro.quantum, repro.graphs, repro.classical) must "
        "never import the serving/orchestration layers (repro.service, "
        "repro.hpc, repro.cli), directly or transitively; top-level import "
        "cycles between modules are flagged too."
    )
    invariant = "PR 4-6 (service/hpc sit above the numerics, never below)"

    def check(self, file: SourceFile, ctx: AnalysisContext) -> Iterator[Finding]:
        if not _module_in(file.module, CORE_PACKAGES):
            return
        reported: Set[str] = set()
        for edge in ctx.graph.out_edges(file.module):
            if _module_in(edge.dst, UPPER_PACKAGES):
                yield file.finding(
                    self.name,
                    edge.line,
                    f"core module imports {edge.dst} (upper layer)",
                )
                reported.add(edge.dst)
                continue
            # core -> core (or -> util/optim) is fine directly, but the
            # target may still lead upward transitively:
            reach = ctx.graph.reachable(edge.dst)
            for target in sorted(reach):
                if target in reported:
                    continue
                if _module_in(target, UPPER_PACKAGES):
                    chain = ctx.graph.chain(edge.dst, target) or [edge.dst, target]
                    yield file.finding(
                        self.name,
                        edge.line,
                        "core module transitively reaches "
                        f"{target} via {' -> '.join([file.module, *chain])}",
                    )
                    reported.add(target)

    def check_project(self, ctx: AnalysisContext) -> Iterator[Finding]:
        for component in ctx.graph.cycles():
            anchor = component[0]
            file = ctx.file_for_module(anchor)
            if file is None:
                continue
            yield file.finding(
                self.name,
                1,
                "top-level import cycle: " + " <-> ".join(component),
            )


# ----------------------------------------------------------------------
# 3. async-blocking (PR 6)
# ----------------------------------------------------------------------

#: Dotted call targets that block the event loop.
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "os.system",
        "os.popen",
        "os.wait",
        "socket.create_connection",
        "urllib.request.urlopen",
    }
)
BLOCKING_PREFIXES = ("subprocess.",)
#: Method names that are synchronous I/O / future-joins wherever they
#: appear inside an async body.
BLOCKING_METHODS = frozenset(
    {"result", "read_text", "write_text", "read_bytes", "write_bytes"}
)


@register_rule
class AsyncBlockingRule(Rule):
    name = "async-blocking"
    description = (
        "No blocking calls (time.sleep, subprocess.*, sync file I/O, "
        "Future.result) inside `async def` bodies — shard workers must "
        "hand blocking work to asyncio.to_thread."
    )
    invariant = "PR 6 (the event loop never blocks; solves run in threads)"

    def check(self, file: SourceFile, ctx: AnalysisContext) -> Iterator[Finding]:
        aliases = _import_aliases(file.tree)
        for node in ast.walk(file.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._check_async_body(file, node, aliases)

    def _check_async_body(
        self,
        file: SourceFile,
        func: ast.AsyncFunctionDef,
        aliases: Dict[str, str],
    ) -> Iterator[Finding]:
        # Walk the async body but stop at nested defs: a nested sync
        # helper is typically shipped to a thread, and a nested async def
        # is visited on its own.
        stack: List[ast.AST] = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            if isinstance(node, ast.Call):
                yield from self._check_call(file, func, node, aliases)
            stack.extend(ast.iter_child_nodes(node))

    def _check_call(
        self,
        file: SourceFile,
        func: ast.AsyncFunctionDef,
        node: ast.Call,
        aliases: Dict[str, str],
    ) -> Iterator[Finding]:
        target = _dotted_name(node.func, aliases)
        if target is not None:
            if target in BLOCKING_CALLS or target.startswith(BLOCKING_PREFIXES):
                yield file.finding(
                    self.name,
                    node.lineno,
                    f"blocking call {target}() inside async def "
                    f"'{func.name}' (use asyncio.to_thread / asyncio.sleep)",
                )
                return
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            yield file.finding(
                self.name,
                node.lineno,
                f"sync open() inside async def '{func.name}' "
                "(run file I/O in a thread)",
            )
            return
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in BLOCKING_METHODS
        ):
            yield file.finding(
                self.name,
                node.lineno,
                f".{node.func.attr}() inside async def '{func.name}' looks "
                "like sync I/O or a future join (await it or use to_thread)",
            )


# ----------------------------------------------------------------------
# 4. atomic-section (PR 6)
# ----------------------------------------------------------------------


@register_rule
class AtomicSectionRule(Rule):
    name = "atomic-section"
    description = (
        "Regions between `# repro: begin-atomic` and `# repro: end-atomic` "
        "must contain no await / async-for / async-with: the whole point "
        "of the marker is that no other coroutine can interleave."
    )
    invariant = "PR 6 (submit()'s check-then-enqueue coalescing is await-free)"

    def check(self, file: SourceFile, ctx: AnalysisContext) -> Iterator[Finding]:
        ranges, _errors = file.atomic_ranges()  # balance errors -> hygiene rule
        if not ranges:
            return
        for node in ast.walk(file.tree):
            if isinstance(node, ast.Await):
                kind = "await"
            elif isinstance(node, ast.AsyncFor):
                kind = "async for"
            elif isinstance(node, ast.AsyncWith):
                kind = "async with"
            else:
                continue
            for begin, end in ranges:
                if begin <= node.lineno <= end:
                    yield file.finding(
                        self.name,
                        node.lineno,
                        f"'{kind}' inside the atomic section opened at line "
                        f"{begin}: other coroutines could interleave here",
                    )
                    break


# ----------------------------------------------------------------------
# 5. rng-discipline (seed-stable reproducibility, all PRs)
# ----------------------------------------------------------------------

#: numpy.random attributes that are fine anywhere (types, not state).
NUMPY_RANDOM_TYPES = frozenset(
    {"Generator", "SeedSequence", "BitGenerator", "PCG64", "SFC64", "Philox"}
)
#: The one module allowed to construct Generators.
RNG_HOME = "repro.util.rng"
#: Stdlib ``random`` functions that mutate/read hidden global state.
STDLIB_RANDOM_BANNED_PREFIX = "random."


@register_rule
class RngDisciplineRule(Rule):
    name = "rng-discipline"
    description = (
        "No global-state RNG: numpy.random.* legacy calls (seed, rand, "
        "choice, RandomState, ...) and stdlib random.* are banned; "
        "Generators are constructed only in repro.util.rng (ensure_rng / "
        "spawn_rngs) and passed down explicitly."
    )
    invariant = "seed-stable bit-identical results (every PR's test gate)"

    def check(self, file: SourceFile, ctx: AnalysisContext) -> Iterator[Finding]:
        aliases = _import_aliases(file.tree)
        imports_stdlib_random = aliases.get("random") == "random" or any(
            target == "random" or target.startswith("random.")
            for target in aliases.values()
        )
        for node in ast.walk(file.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            target = _dotted_name(node, aliases)
            if target is None:
                continue
            if target.startswith("numpy.random."):
                leaf = target.split(".", 2)[2]
                head = leaf.split(".")[0]
                if head in NUMPY_RANDOM_TYPES:
                    continue
                if head == "default_rng":
                    if file.module == RNG_HOME:
                        continue
                    yield file.finding(
                        self.name,
                        node.lineno,
                        "np.random.default_rng outside repro.util.rng; "
                        "use util.rng.ensure_rng / spawn_rngs",
                    )
                    continue
                yield file.finding(
                    self.name,
                    node.lineno,
                    f"legacy global-state numpy.random.{head} (seeded "
                    "Generators from util.rng only)",
                )
            elif (
                imports_stdlib_random
                and target.startswith(STDLIB_RANDOM_BANNED_PREFIX)
                and isinstance(node, ast.Attribute)
            ):
                yield file.finding(
                    self.name,
                    node.lineno,
                    f"stdlib {target} uses hidden global RNG state; "
                    "thread a numpy Generator from util.rng instead",
                )


# ----------------------------------------------------------------------
# 6. guarded-by (PR 6 thread-safety)
# ----------------------------------------------------------------------

#: Container methods that mutate their receiver: calling one on a guarded
#: attribute counts as a *write* to that attribute.
MUTATING_METHODS = frozenset(
    {
        "append",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "update",
    }
)


@register_rule
class GuardedByRule(Rule):
    name = "guarded-by"
    description = (
        "In a class annotated `# repro: guarded-by=<lock> attrs=a,b "
        "writes=c,d`, the `attrs` list may only be touched and the "
        "`writes` list only be mutated inside `with self.<lock>:`; "
        "methods whose callers hold the lock are marked "
        "`# repro: holds-lock`.  __init__ is exempt (no sharing yet)."
    )
    invariant = "PR 6 (cache/metrics shared between shard workers + loop)"

    def check(self, file: SourceFile, ctx: AnalysisContext) -> Iterator[Finding]:
        annotations = file.directives_named("guarded-by")
        if not annotations:
            return
        holds = [d.line for d in file.directives_named("holds-lock")]
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            end = getattr(node, "end_lineno", node.lineno)
            for directive in annotations:
                if not (node.lineno <= directive.line <= end):
                    continue
                spec = _parse_guard_spec(directive.value)
                if spec is None:
                    continue  # malformed -> suppression-hygiene reports it
                lock, full, write_only = spec
                yield from self._check_class(
                    file, node, lock, full, write_only, holds
                )

    def _check_class(
        self,
        file: SourceFile,
        cls: ast.ClassDef,
        lock: str,
        full: Set[str],
        write_only: Set[str],
        holds: List[int],
    ) -> Iterator[Finding]:
        guarded = full | write_only
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name == "__init__":
                continue
            # `# repro: holds-lock` may sit on the line above the def,
            # on the def line itself, or between def and first statement.
            first = method.body[0].lineno if method.body else method.lineno
            if any(method.lineno - 1 <= line < first for line in holds):
                continue  # caller holds the lock by contract
            yield from self._check_method(
                file, method, lock, full, write_only, guarded
            )

    def _check_method(
        self,
        file: SourceFile,
        method: ast.AST,
        lock: str,
        full: Set[str],
        write_only: Set[str],
        guarded: Set[str],
    ) -> Iterator[Finding]:
        # Depth-first walk tracking whether we are lexically inside
        # `with self.<lock>:`.  Nested defs reset to unlocked: a closure
        # may run after the with-block exits.
        def is_lock_with(node: ast.With) -> bool:
            for item in node.items:
                expr = item.context_expr
                if (
                    isinstance(expr, ast.Attribute)
                    and expr.attr == lock
                    and isinstance(expr.value, ast.Name)
                    and expr.value.id == "self"
                ):
                    return True
            return False

        def direct_accesses(node: ast.AST) -> List[Tuple[ast.Attribute, bool]]:
            """(attr-node, is_write) when ``node`` itself is an access.

            Only the node that *is* the access reports, so the recursive
            walk never double-counts.  Writes are Store/Del contexts plus
            the two lexically-visible mutation shapes:
            ``self.attr[k] = v`` and ``self.attr.append(...)``-style
            mutator calls.
            """
            out: List[Tuple[ast.Attribute, bool]] = []
            if isinstance(node, ast.Attribute):
                if (
                    isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                    and node.attr in guarded
                ):
                    write = isinstance(node.ctx, (ast.Store, ast.Del))
                    out.append((node, write))
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in MUTATING_METHODS
                    and isinstance(func.value, ast.Attribute)
                    and isinstance(func.value.value, ast.Name)
                    and func.value.value.id == "self"
                    and func.value.attr in guarded
                ):
                    out.append((func.value, True))
            elif isinstance(node, ast.Subscript):
                if (
                    isinstance(node.ctx, (ast.Store, ast.Del))
                    and isinstance(node.value, ast.Attribute)
                    and isinstance(node.value.value, ast.Name)
                    and node.value.value.id == "self"
                    and node.value.attr in guarded
                ):
                    out.append((node.value, True))
            return out

        reported: Set[int] = set()

        def walk(node: ast.AST, held: bool) -> Iterator[Finding]:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield from walk(child, False)
                    continue
                if isinstance(child, ast.With) and is_lock_with(child):
                    yield from walk(child, True)
                    continue
                if not held:
                    for attr, write in direct_accesses(child):
                        name = attr.attr
                        violation = (name in full) or (write and name in write_only)
                        if violation and id(attr) not in reported:
                            reported.add(id(attr))
                            verb = "written" if write else "read"
                            yield file.finding(
                                self.name,
                                attr.lineno,
                                f"self.{name} {verb} outside `with "
                                f"self.{lock}` in {method.name}()",
                            )
                yield from walk(child, held)

        yield from walk(method, False)


def _parse_guard_spec(value: str) -> Optional[Tuple[str, Set[str], Set[str]]]:
    """Parse ``"_lock attrs=a,b writes=c,d"`` -> (lock, attrs, writes)."""
    parts = value.split()
    if not parts:
        return None
    lock = parts[0]
    full: Set[str] = set()
    write_only: Set[str] = set()
    for part in parts[1:]:
        key, _, names = part.partition("=")
        targets = {n.strip() for n in names.split(",") if n.strip()}
        if key == "attrs":
            full |= targets
        elif key == "writes":
            write_only |= targets
        else:
            return None
    if not (full or write_only):
        return None
    return lock, full, write_only


# ----------------------------------------------------------------------
# 7. swallowed-error (PR 6 fault-tolerance hygiene)
# ----------------------------------------------------------------------


@register_rule
class SwallowedErrorRule(Rule):
    name = "swallowed-error"
    description = (
        "Bare `except:` is banned; `except Exception`/`except "
        "BaseException` must do something with the failure (re-raise, "
        "record, count) — a body of just pass/continue silently eats "
        "errors the fault-tolerance paths are supposed to surface."
    )
    invariant = "PR 6 (capture-don't-swallow in scheduler/server/cache)"

    def check(self, file: SourceFile, ctx: AnalysisContext) -> Iterator[Finding]:
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield file.finding(
                    self.name,
                    node.lineno,
                    "bare `except:` catches SystemExit/KeyboardInterrupt; "
                    "name the exceptions (or `except Exception` + handle)",
                )
                continue
            breadth = self._broad_name(node.type)
            if breadth is None:
                continue
            trivial = all(self._is_trivial(stmt) for stmt in node.body)
            if trivial:
                yield file.finding(
                    self.name,
                    node.lineno,
                    f"`except {breadth}` swallows the error (body is only "
                    "pass/continue); record it, count it, or re-raise",
                )
                continue
            if breadth == "BaseException":
                reraises = any(
                    isinstance(stmt, ast.Raise) for stmt in ast.walk(node)
                )
                uses_name = node.name is not None and any(
                    isinstance(sub, ast.Name) and sub.id == node.name
                    for stmt in node.body
                    for sub in ast.walk(stmt)
                )
                if not (reraises or uses_name):
                    yield file.finding(
                        self.name,
                        node.lineno,
                        "`except BaseException` must re-raise or store the "
                        "exception (it catches KeyboardInterrupt/SystemExit)",
                    )

    @staticmethod
    def _broad_name(type_node: ast.expr) -> Optional[str]:
        names: List[ast.expr] = (
            list(type_node.elts) if isinstance(type_node, ast.Tuple) else [type_node]
        )
        for name in names:
            if isinstance(name, ast.Name) and name.id in (
                "Exception",
                "BaseException",
            ):
                return name.id
        return None

    @staticmethod
    def _is_trivial(stmt: ast.stmt) -> bool:
        if isinstance(stmt, (ast.Pass, ast.Continue, ast.Break)):
            return True
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            return True  # docstring/Ellipsis placeholder
        return False


# ----------------------------------------------------------------------
# 8. span-hygiene (observability PR)
# ----------------------------------------------------------------------


@register_rule
class SpanHygieneRule(Rule):
    name = "span-hygiene"
    description = (
        "Every trace `.span(...)` call must be a `with`-item: span "
        "handles close on `__exit__`, so a bare call leaks an open span "
        "and corrupts the trace's open-span stack.  Already-elapsed "
        "intervals use TraceContext.add_span, which never opens anything."
    )
    invariant = "observability PR (span trees stay well-nested)"

    def check(self, file: SourceFile, ctx: AnalysisContext) -> Iterator[Finding]:
        with_items: Set[int] = set()
        for node in ast.walk(file.tree):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    with_items.add(id(item.context_expr))
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "span"):
                continue
            if id(node) in with_items:
                continue
            if not self._looks_like_trace_span(node):
                continue
            yield file.finding(
                self.name,
                node.lineno,
                ".span(...) outside a with-statement leaks an open span; "
                "use `with trace.span(...):` (or add_span for elapsed "
                "intervals)",
            )

    @staticmethod
    def _looks_like_trace_span(call: ast.Call) -> bool:
        """A trace span call names its stage: first arg is a string
        constant, or attributes are attached as keywords.  (This keeps
        ``re.Match.span()`` / ``match.span(1)`` out of scope.)"""
        if call.keywords:
            return True
        return bool(
            call.args
            and isinstance(call.args[0], ast.Constant)
            and isinstance(call.args[0].value, str)
        )


# ----------------------------------------------------------------------
# 9. suppression-hygiene (meta-rule: the analyzer polices its own escapes)
# ----------------------------------------------------------------------


@register_rule
class SuppressionHygieneRule(Rule):
    name = "suppression-hygiene"
    description = (
        "Every `# repro: disable[-file]=` suppression must name known "
        "rules and carry a `-- justification`; atomic markers must be "
        "balanced; guarded-by annotations must parse."
    )
    invariant = "this PR (suppressions are auditable, never silent)"

    def check(self, file: SourceFile, ctx: AnalysisContext) -> Iterator[Finding]:
        from repro.analysis.core import RULE_REGISTRY

        for error in file.directive_errors:
            yield file.finding(self.name, _error_line(error), error)
        for directive in file.directives:
            if directive.verb in ("disable", "disable-file"):
                if directive.justification is None:
                    yield file.finding(
                        self.name,
                        directive.line,
                        f"suppression of {directive.value!r} has no "
                        "`-- justification`",
                    )
                unknown = [n for n in directive.names if n not in RULE_REGISTRY]
                if unknown:
                    yield file.finding(
                        self.name,
                        directive.line,
                        f"suppression names unknown rule(s): {', '.join(unknown)}",
                    )
                if not directive.names:
                    yield file.finding(
                        self.name,
                        directive.line,
                        "suppression lists no rules",
                    )
            elif directive.verb == "guarded-by":
                if _parse_guard_spec(directive.value) is None:
                    yield file.finding(
                        self.name,
                        directive.line,
                        "malformed guarded-by annotation (expected "
                        "'guarded-by=<lock> attrs=a,b' and/or 'writes=c,d')",
                    )
        _ranges, errors = file.atomic_ranges()
        for error in errors:
            yield file.finding(self.name, _error_line(error), error)


def _error_line(error: str) -> int:
    # Errors are formatted "line N: ..." by the parser helpers.
    try:
        return int(error.split(":", 1)[0].split()[-1])
    except (ValueError, IndexError):
        return 1


__all__ = [
    "BLOCKING_CALLS",
    "CORE_PACKAGES",
    "KERNEL_NAMES",
    "MUTATING_METHODS",
    "NUMPY_RANDOM_TYPES",
    "UPPER_PACKAGES",
    "AsyncBlockingRule",
    "AtomicSectionRule",
    "BackendSeamRule",
    "GuardedByRule",
    "LayeringRule",
    "RngDisciplineRule",
    "SpanHygieneRule",
    "SuppressionHygieneRule",
    "SwallowedErrorRule",
]
