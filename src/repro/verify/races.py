"""Whole-program concurrency lint: rules PPM010-PPM013.

The per-file rules in :mod:`repro.verify.lint` cannot see the property
that actually breaks concurrent decoders: *which execution context
touches which mutable state*.  This analyzer builds that map across the
whole source tree in three passes:

1. **Collect** (per module) — every class with its methods, an
   attribute-type table (``self.x = ClassName(...)`` constructor calls,
   parameter annotations), every mutation of instance attributes and
   module globals (assignments, augmented assignments, subscript stores
   and calls of known mutator methods like ``append``/``update``/
   ``move_to_end``), and whether each mutation site sits lexically
   inside a ``with <lock>`` block.
2. **Contexts** (whole program) — a call graph seeded with the two
   concurrent execution contexts of this codebase: the **event loop**
   (every ``async def``) and **worker threads** (callables handed to
   ``asyncio.to_thread`` / ``loop.run_in_executor`` /
   ``threading.Thread(target=...)`` / ``<pool>.submit``).  Contexts
   propagate along call edges — ``self.method()`` precisely, ``self.attr.method()``
   through the attribute-type table, and otherwise through a
   unique-method-name fallback (suppressed for ubiquitous names like
   ``get``/``close``).  Callables reach a pool through locals too —
   ``fn = a if hedged else b`` and ``worker = make_worker(...)`` — so
   resolution follows simple local aliases (both conditional branches)
   and treats a factory's nested closures as the callable it returned;
   that keeps speculative/hedged execution paths inside the analyzed
   thread context.
3. **Judge** — emit findings:

   - **PPM010** an instance attribute is mutated outside ``__init__``,
     without a lock, in a function reachable from worker-thread context
     (threads overlap each other and the loop by construction), or on
     the loop while threads touch the same attribute.
     ``threading.local()``-typed and lock-typed attributes are exempt.
   - **PPM011** a module global is mutated without a *module-level*
     lock from worker-thread context (an instance lock cannot guard
     state shared across instances).
   - **PPM012** ``await`` while holding a ``threading.Lock`` — the
     loop parks the coroutine with the lock held and every other
     thread (and any other coroutine needing the lock) deadlocks
     behind it.
   - **PPM013** an ``asyncio`` primitive (``Event``/``Queue``/...) is
     called from worker-thread context; asyncio primitives are not
     thread-safe and must be reached via
     ``loop.call_soon_threadsafe``.

Findings are :class:`~repro.verify.lint.LintFinding` records, so the
``ppm check`` front-end renders, sorts and ``# ppm: noqa[PPMxxx]``-
suppresses them exactly like the per-file rules.  The analysis is
deliberately heuristic — it resolves what it can prove and stays
silent elsewhere — so a finding is always worth reading, and an
intentional exception is a one-line suppression with a comment.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Sequence

from .lint import LintFinding, ParsedModule

#: Method names that mutate their receiver in place.
MUTATOR_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "discard",
        "remove",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "move_to_end",
        "push",
        "put",
        "put_nowait",
        "appendleft",
        "popleft",
        "sort",
        "reverse",
    }
)

#: Constructor dotted names that make an attribute a lock/guard.
LOCK_CTORS = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
    }
)

#: Constructors whose attributes are per-thread by definition (exempt).
THREAD_LOCAL_CTORS = frozenset({"threading.local"})

#: asyncio primitives that must only be touched from the event loop.
ASYNC_PRIMITIVE_CTORS = frozenset(
    {
        "asyncio.Event",
        "asyncio.Queue",
        "asyncio.PriorityQueue",
        "asyncio.LifoQueue",
        "asyncio.Condition",
        "asyncio.Lock",
        "asyncio.Semaphore",
        "asyncio.Future",
    }
)

#: A name "looks like a lock" for guard purposes.
_LOCKISH_RE = re.compile(r"lock|mutex|cond\b|_cond|_cv\b", re.IGNORECASE)

#: Method names too ubiquitous for the unique-name call-graph fallback.
_FALLBACK_DENYLIST = frozenset(
    {
        "get",
        "set",
        "put",
        "pop",
        "push",
        "add",
        "run",
        "map",
        "close",
        "clear",
        "start",
        "stop",
        "wait",
        "open",
        "read",
        "write",
        "copy",
        "update",
        "append",
        "discard",
        "remove",
        "submit",
        "result",
        "cancel",
        "join",
        "items",
        "keys",
        "values",
        "acquire",
        "release",
        "send",
        "record",
        "format",
        "check",
        "snapshot",
        "reset",
        "main",
        "observe",
        "kick",
        "health",
        "metrics",
        "describe",
        "validate",
        "finish",
    }
)

#: Max classes a fallback-resolved name may match before we drop it.
_FALLBACK_MAX_TARGETS = 3

LOOP = "event-loop"
THREAD = "worker-thread"


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for nested Name/Attribute chains, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _lockish(dotted: str | None) -> bool:
    return dotted is not None and _LOCKISH_RE.search(dotted) is not None


@dataclass
class _Mutation:
    attr: str  # first attribute segment after ``self``
    chain: str  # full dotted path, for diagnostics
    node: ast.AST
    guarded: bool  # lexically inside any with-lock
    via_call: bool  # mutator-method call vs assignment


@dataclass
class _GlobalMutation:
    name: str
    node: ast.AST
    module_guarded: bool  # inside a with on a *module-level* lock


@dataclass
class _Callee:
    kind: str  # "name" | "selfmeth" | "attrmeth" | "objmeth"
    name: str
    attr: str = ""  # receiver attr for attrmeth / receiver name for objmeth


@dataclass
class _Func:
    name: str
    qualname: str
    path: str
    node: ast.AST
    cls: "_Class | None"
    module: "_Module"
    is_async: bool
    contexts: set[str] = field(default_factory=set)
    calls: list[_Callee] = field(default_factory=list)
    thread_roots: list[_Callee] = field(default_factory=list)
    mutations: list[_Mutation] = field(default_factory=list)
    reads: set[str] = field(default_factory=set)
    global_mutations: list[_GlobalMutation] = field(default_factory=list)
    async_touches: list[tuple[str, ast.AST]] = field(default_factory=list)
    awaits_under_lock: list[tuple[str, ast.AST]] = field(default_factory=list)
    nested: dict[str, "_Func"] = field(default_factory=dict)
    parent: "_Func | None" = None
    #: local name -> possible bindings: ("alias", callee) for plain
    #: rebinds, ("factory", callee) for call results — the hedging
    #: engine's `primary = run_local_with(...)` / `fn = a if h else b`
    #: idiom, so callables handed to a pool through a variable still
    #: resolve to the closures that actually run on the workers
    aliases: dict[str, list[tuple[str, _Callee]]] = field(default_factory=dict)


@dataclass
class _Class:
    name: str
    path: str
    node: ast.ClassDef
    methods: dict[str, _Func] = field(default_factory=dict)
    attr_ctors: dict[str, str] = field(default_factory=dict)  # attr -> dotted ctor

    def lock_attr(self, attr: str) -> bool:
        return self.attr_ctors.get(attr) in LOCK_CTORS or _lockish(attr)

    def local_attr(self, attr: str) -> bool:
        return self.attr_ctors.get(attr) in THREAD_LOCAL_CTORS

    def async_attr(self, attr: str) -> bool:
        return self.attr_ctors.get(attr) in ASYNC_PRIMITIVE_CTORS


@dataclass
class _Module:
    path: str
    tree: ast.Module
    functions: dict[str, _Func] = field(default_factory=dict)
    classes: dict[str, _Class] = field(default_factory=dict)
    globals: set[str] = field(default_factory=set)


# -- pass 1: per-module collection -------------------------------------------


def _ctor_of(value: ast.expr) -> str | None:
    """Dotted constructor name of ``self.x = <value>``, looking through
    ``a if c else b`` / ``a or b`` wrappers for a recognisable Call."""
    if isinstance(value, ast.Call):
        return _dotted(value.func)
    if isinstance(value, ast.IfExp):
        return _ctor_of(value.body) or _ctor_of(value.orelse)
    if isinstance(value, ast.BoolOp):
        for sub in value.values:
            found = _ctor_of(sub)
            if found is not None:
                return found
    return None


def _self_chain(node: ast.AST) -> tuple[str, str] | None:
    """``(first_attr, full_chain)`` for expressions rooted at ``self``.

    ``self.a.b`` -> ("a", "a.b"); subscripts are looked through:
    ``self.a[k]`` -> ("a", "a[...]").
    """
    suffix = ""
    while isinstance(node, ast.Subscript):
        node = node.value
        suffix = "[...]" + suffix
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "self" and parts:
        chain = ".".join(reversed(parts)) + suffix
        return parts[-1], chain
    return None


def _base_name(node: ast.AST) -> str | None:
    """The bare module-level Name a mutation target is rooted at."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _callee_of(expr: ast.expr) -> _Callee | None:
    if isinstance(expr, ast.Name):
        return _Callee("name", expr.id)
    if isinstance(expr, ast.Attribute):
        value = expr.value
        if isinstance(value, ast.Name):
            if value.id == "self":
                return _Callee("selfmeth", expr.attr)
            return _Callee("objmeth", expr.attr, attr=value.id)
        if (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "self"
        ):
            return _Callee("attrmeth", expr.attr, attr=value.attr)
        return _Callee("objmeth", expr.attr)
    return None


def _thread_root_exprs(call: ast.Call) -> list[ast.expr]:
    """Callable arguments this call schedules onto another thread."""
    func = call.func
    dotted = _dotted(func) or ""
    name = func.attr if isinstance(func, ast.Attribute) else dotted
    if name == "to_thread" and call.args:
        return [call.args[0]]
    if name == "run_in_executor" and len(call.args) >= 2:
        return [call.args[1]]
    if name == "Thread" or dotted == "threading.Thread":
        return [kw.value for kw in call.keywords if kw.arg == "target"]
    if name == "submit" and isinstance(func, ast.Attribute):
        receiver = _dotted(func.value) or ""
        if "pool" in receiver.lower() or "executor" in receiver.lower():
            return call.args[:1]
    return []


class _FuncVisitor(ast.NodeVisitor):
    """Collects one function's accesses, edges and guard facts."""

    def __init__(self, func: _Func):
        self.func = func
        self.guard_depth = 0  # nested with-lock blocks (any lock)
        self.module_guard_depth = 0  # with on a module-level lock
        self.sync_lock_stack: list[str] = []  # for PPM012, async funcs only

    # -- guards ------------------------------------------------------------

    def _item_lock(self, item: ast.withitem) -> tuple[bool, bool, str]:
        """(is_lock, is_module_level_lock, dotted_name) for one item."""
        expr = item.context_expr
        dotted = _dotted(expr)
        if dotted is None:
            return False, False, ""
        cls = self.func.cls
        attr_typed = False
        chain = _self_chain(expr)
        if cls is not None and chain is not None:
            attr_typed = cls.attr_ctors.get(chain[0]) in LOCK_CTORS
        if not (_lockish(dotted) or attr_typed):
            return False, False, dotted
        module_level = "." not in dotted  # a bare Name, not self.<attr>
        return True, module_level, dotted

    def _visit_with(self, node: ast.With | ast.AsyncWith, is_async: bool) -> None:
        locks = [self._item_lock(item) for item in node.items]
        held = [d for ok, _m, d in locks if ok]
        module_held = any(m for ok, m, _d in locks if ok)
        sync_held = held if (held and not is_async) else []
        self.guard_depth += bool(held)
        self.module_guard_depth += bool(module_held)
        if sync_held and self.func.is_async:
            self.sync_lock_stack.extend(sync_held)
        for child in ast.iter_child_nodes(node):
            self.visit(child)
        if sync_held and self.func.is_async:
            del self.sync_lock_stack[-len(sync_held):]
        self.guard_depth -= bool(held)
        self.module_guard_depth -= bool(module_held)

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node, is_async=False)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node, is_async=True)

    def visit_Await(self, node: ast.Await) -> None:
        if self.sync_lock_stack:
            self.func.awaits_under_lock.append((self.sync_lock_stack[-1], node))
        self.generic_visit(node)

    # -- nested scopes stay separate functions -----------------------------

    def _visit_nested(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        nested = _Func(
            name=node.name,
            qualname=f"{self.func.qualname}.<locals>.{node.name}",
            path=self.func.path,
            node=node,
            cls=self.func.cls,
            module=self.func.module,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            parent=self.func,
        )
        self.func.nested[node.name] = nested
        _FuncVisitor(nested).scan(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_nested(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_nested(node)

    # -- accesses ----------------------------------------------------------

    def _record_store(self, target: ast.AST, node: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_store(elt, node)
            return
        chain = _self_chain(target)
        if chain is not None:
            self.func.mutations.append(
                _Mutation(
                    attr=chain[0],
                    chain=chain[1],
                    node=node,
                    guarded=self.guard_depth > 0,
                    via_call=False,
                )
            )
            return
        base = _base_name(target)
        if base is not None and base in self.func.module.globals:
            # plain rebinding of a local shadows; only flag stores that
            # reach the module object (subscript/attribute, or `global`)
            reaches_module = not isinstance(target, ast.Name) or base in getattr(
                self.func, "_declared_global", ()
            )
            if reaches_module:
                self.func.global_mutations.append(
                    _GlobalMutation(
                        name=base,
                        node=node,
                        module_guarded=self.module_guard_depth > 0,
                    )
                )

    def visit_Global(self, node: ast.Global) -> None:
        declared = set(getattr(self.func, "_declared_global", set()))
        declared.update(node.names)
        self.func._declared_global = declared  # type: ignore[attr-defined]

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_store(target, node)
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            self._record_alias(node.targets[0].id, node.value)
        self.generic_visit(node)

    def _record_alias(self, name: str, value: ast.expr) -> None:
        """Track what callable a local may be bound to (for thread roots)."""
        if isinstance(value, ast.IfExp):
            self._record_alias(name, value.body)
            self._record_alias(name, value.orelse)
            return
        if isinstance(value, (ast.Name, ast.Attribute)):
            callee = _callee_of(value)
            if callee is not None:
                self.func.aliases.setdefault(name, []).append(("alias", callee))
            return
        if isinstance(value, ast.Call):
            callee = _callee_of(value.func)
            if callee is not None:
                self.func.aliases.setdefault(name, []).append(("factory", callee))

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_store(node.target, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_store(node.target, node)
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.ctx, ast.Load):
            chain = _self_chain(node)
            if chain is not None:
                self.func.reads.add(chain[0])
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # mutator-method calls on self attrs and module globals
        if isinstance(func, ast.Attribute) and func.attr in MUTATOR_METHODS:
            chain = _self_chain(func.value)
            if chain is not None:
                self.func.mutations.append(
                    _Mutation(
                        attr=chain[0],
                        chain=f"{chain[1]}.{func.attr}()",
                        node=node,
                        guarded=self.guard_depth > 0,
                        via_call=True,
                    )
                )
            else:
                base = _base_name(func.value)
                if base is not None and base in self.func.module.globals:
                    self.func.global_mutations.append(
                        _GlobalMutation(
                            name=base,
                            node=node,
                            module_guarded=self.module_guard_depth > 0,
                        )
                    )
        # any call on an asyncio-primitive attr (PPM013 evidence)
        if isinstance(func, ast.Attribute):
            chain = _self_chain(func.value)
            if (
                chain is not None
                and self.func.cls is not None
                and self.func.cls.async_attr(chain[0])
            ):
                self.func.async_touches.append((f"{chain[1]}.{func.attr}()", node))
        # call edges + thread roots
        callee = _callee_of(func)
        if callee is not None:
            self.func.calls.append(callee)
        for expr in _thread_root_exprs(node):
            root = _callee_of(expr)
            if root is not None:
                self.func.thread_roots.append(root)
        self.generic_visit(node)

    def scan(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            self.visit(child)


_KNOWN_ANNOTATION_RE = re.compile(r"[A-Z]\w+")


def _collect_class(module: _Module, node: ast.ClassDef) -> _Class:
    cls = _Class(name=node.name, path=module.path, node=node)
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = _Func(
                name=item.name,
                qualname=f"{node.name}.{item.name}",
                path=module.path,
                node=item,
                cls=cls,
                module=module,
                is_async=isinstance(item, ast.AsyncFunctionDef),
            )
            cls.methods[item.name] = func
    # attribute types: `self.x = Ctor(...)` anywhere in the class, plus
    # `self.x = <param>` where the parameter annotation names a class
    for method in cls.methods.values():
        args = method.node.args
        annotations: dict[str, str] = {}
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            if arg.annotation is not None:
                text = ast.unparse(arg.annotation)
                match = _KNOWN_ANNOTATION_RE.search(text)
                if match:
                    annotations[arg.arg] = match.group(0)
        for stmt in ast.walk(method.node):
            if not isinstance(stmt, ast.Assign):
                continue
            for target in stmt.targets:
                chain = _self_chain(target)
                if chain is None or "." in chain[1] or "[" in chain[1]:
                    continue
                ctor = _ctor_of(stmt.value)
                if ctor is None and isinstance(stmt.value, ast.Name):
                    ctor = annotations.get(stmt.value.id)
                if ctor is not None:
                    cls.attr_ctors.setdefault(chain[0], ctor)
    return cls


def _collect_module(parsed: ParsedModule) -> _Module:
    assert parsed.tree is not None
    module = _Module(path=str(parsed.path), tree=parsed.tree)
    for stmt in parsed.tree.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    module.globals.add(target.id)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            module.globals.add(stmt.target.id)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            module.functions[stmt.name] = _Func(
                name=stmt.name,
                qualname=stmt.name,
                path=module.path,
                node=stmt,
                cls=None,
                module=module,
                is_async=isinstance(stmt, ast.AsyncFunctionDef),
            )
        elif isinstance(stmt, ast.ClassDef):
            module.classes[stmt.name] = _collect_class(module, stmt)
    for func in module.functions.values():
        _FuncVisitor(func).scan(func.node)
    for cls in module.classes.values():
        for method in cls.methods.values():
            _FuncVisitor(method).scan(method.node)
    return module


# -- pass 2: call graph + context propagation --------------------------------


class _Program:
    """The merged whole-program view."""

    def __init__(self, modules: list[_Module]):
        self.modules = modules
        self.classes: dict[str, list[_Class]] = {}
        self.methods_by_name: dict[str, list[_Func]] = {}
        for module in modules:
            for cls in module.classes.values():
                self.classes.setdefault(cls.name, []).append(cls)
            for func in module.functions.values():
                self.methods_by_name.setdefault(func.name, []).append(func)
                for nested in self._iter_nested(func):
                    self.methods_by_name.setdefault(nested.name, []).append(nested)
            for cls in module.classes.values():
                for method in cls.methods.values():
                    self.methods_by_name.setdefault(method.name, []).append(method)
                    for nested in self._iter_nested(method):
                        self.methods_by_name.setdefault(nested.name, []).append(nested)

    @staticmethod
    def _iter_nested(func: _Func):
        for nested in func.nested.values():
            yield nested
            yield from _Program._iter_nested(nested)

    def all_functions(self) -> list[_Func]:
        out: list[_Func] = []
        for module in self.modules:
            stack = list(module.functions.values())
            for cls in module.classes.values():
                stack.extend(cls.methods.values())
            while stack:
                func = stack.pop()
                out.append(func)
                stack.extend(func.nested.values())
        return out

    # -- resolution --------------------------------------------------------

    def _fallback(self, name: str) -> list[_Func]:
        if name in _FALLBACK_DENYLIST or name.startswith("__"):
            return []
        targets = self.methods_by_name.get(name, [])
        if 0 < len(targets) <= _FALLBACK_MAX_TARGETS:
            return targets
        return []

    def resolve(
        self,
        caller: _Func,
        callee: _Callee,
        _seen: frozenset[tuple[int, str]] = frozenset(),
    ) -> list[_Func]:
        if callee.kind == "name":
            # walk the full lexical chain: nested defs first, then local
            # aliases — `fn = a if h else b` resolves to both branches,
            # `primary = make_worker(...)` resolves to the closures the
            # factory defines (they run wherever the result is invoked)
            scope: _Func | None = caller
            while scope is not None:
                if callee.name in scope.nested:
                    return [scope.nested[callee.name]]
                bindings = scope.aliases.get(callee.name)
                key = (id(scope), callee.name)
                if bindings and key not in _seen:
                    seen = _seen | {key}
                    out: list[_Func] = []
                    for kind, inner in bindings:
                        targets = self.resolve(scope, inner, seen)
                        if kind == "alias":
                            out.extend(targets)
                        else:  # factory: its closures are the callable
                            for target in targets:
                                out.extend(target.nested.values())
                    if out:
                        return out
                scope = scope.parent
            mod_fn = caller.module.functions.get(callee.name)
            if mod_fn is not None:
                return [mod_fn]
            return self._fallback(callee.name)
        if callee.kind == "selfmeth":
            if caller.cls is not None and callee.name in caller.cls.methods:
                return [caller.cls.methods[callee.name]]
            return self._fallback(callee.name)
        if callee.kind == "attrmeth":
            if caller.cls is not None:
                ctor = caller.cls.attr_ctors.get(callee.attr)
                if ctor is not None:
                    cls_name = ctor.rsplit(".", 1)[-1]
                    for cls in self.classes.get(cls_name, []):
                        if callee.name in cls.methods:
                            return [cls.methods[callee.name]]
            return self._fallback(callee.name)
        if callee.kind == "objmeth":
            return self._fallback(callee.name)
        return []


def _propagate_contexts(program: _Program) -> None:
    functions = program.all_functions()
    edges: dict[int, list[_Func]] = {}
    for func in functions:
        targets: list[_Func] = []
        for callee in func.calls:
            targets.extend(program.resolve(func, callee))
        edges[id(func)] = targets
        if func.is_async:
            func.contexts.add(LOOP)
    work: list[_Func] = []
    for func in functions:
        for root in func.thread_roots:
            for target in program.resolve(func, root):
                if THREAD not in target.contexts:
                    target.contexts.add(THREAD)
                work.append(target)
        if func.contexts:
            work.append(func)
    while work:
        func = work.pop()
        for target in edges.get(id(func), ()):
            if target.is_async and THREAD in func.contexts and LOOP not in func.contexts:
                continue  # threads cannot call into a coroutine directly
            before = len(target.contexts)
            target.contexts |= func.contexts
            if len(target.contexts) != before:
                work.append(target)


# -- pass 3: findings ---------------------------------------------------------


def _finding(code: str, rule: str, func: _Func, node: ast.AST, message: str) -> LintFinding:
    return LintFinding(
        path=func.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0) + 1,
        code=code,
        rule=rule,
        message=message,
    )


def _ctx_names(contexts: set[str]) -> str:
    return "+".join(sorted(contexts)) if contexts else "main"


def _judge_class(program: _Program, cls: _Class) -> list[LintFinding]:
    findings: list[LintFinding] = []
    # union of contexts touching each attr (reads and writes, any method)
    touch_ctx: dict[str, set[str]] = {}
    all_funcs: list[_Func] = []
    stack = list(cls.methods.values())
    while stack:
        func = stack.pop()
        all_funcs.append(func)
        stack.extend(func.nested.values())
    for func in all_funcs:
        for attr in func.reads:
            touch_ctx.setdefault(attr, set()).update(func.contexts)
        for mut in func.mutations:
            touch_ctx.setdefault(mut.attr, set()).update(func.contexts)
    # earliest site in file order gets the (one) finding per attribute,
    # so a `# ppm: noqa` placed on the reported line stays put
    candidates = sorted(
        (
            (getattr(mut.node, "lineno", 1), getattr(mut.node, "col_offset", 0), func, mut)
            for func in all_funcs
            if func.name != "__init__"
            for mut in func.mutations
        ),
        key=lambda item: item[:2],
    )
    reported: set[str] = set()
    for _line, _col, func, mut in candidates:
        if mut.guarded or mut.attr in reported:
            continue
        if cls.lock_attr(mut.attr) or cls.local_attr(mut.attr):
            continue
        attr_union = touch_ctx.get(mut.attr, set())
        concurrent = THREAD in func.contexts or (
            LOOP in func.contexts and THREAD in attr_union
        )
        if not concurrent:
            continue
        reported.add(mut.attr)
        findings.append(
            _finding(
                "PPM010",
                "unguarded-shared-mutation",
                func,
                mut.node,
                f"{cls.name}.{mut.chain} is mutated without a lock in "
                f"{func.qualname} (reachable from {_ctx_names(func.contexts)} "
                f"context; attribute touched from {_ctx_names(attr_union)}); "
                "guard it with a threading.Lock, confine it to one context, "
                "or suppress with `# ppm: noqa[PPM010]` and a comment",
            )
        )
    return findings


def _judge_globals(program: _Program) -> list[LintFinding]:
    findings: list[LintFinding] = []
    # which globals see a thread-context mutation at all
    thread_mutated: set[tuple[str, str]] = set()
    for func in program.all_functions():
        for gmut in func.global_mutations:
            if THREAD in func.contexts:
                thread_mutated.add((func.module.path, gmut.name))
    reported: set[tuple[str, str]] = set()
    for func in program.all_functions():
        for gmut in func.global_mutations:
            key = (func.module.path, gmut.name)
            if gmut.module_guarded or key in reported:
                continue
            if _lockish(gmut.name):
                continue
            concurrent = THREAD in func.contexts or (
                LOOP in func.contexts and key in thread_mutated
            )
            if not concurrent:
                continue
            reported.add(key)
            findings.append(
                _finding(
                    "PPM011",
                    "unguarded-global-mutation",
                    func,
                    gmut.node,
                    f"module global {gmut.name!r} is mutated in {func.qualname} "
                    f"(reachable from {_ctx_names(func.contexts)} context) "
                    "without a module-level lock — an instance lock cannot "
                    "guard state shared across instances",
                )
            )
    return findings


def _judge_await_locks(program: _Program) -> list[LintFinding]:
    findings: list[LintFinding] = []
    for func in program.all_functions():
        for lock_name, node in func.awaits_under_lock:
            findings.append(
                _finding(
                    "PPM012",
                    "await-under-threading-lock",
                    func,
                    node,
                    f"await while holding the synchronous lock {lock_name!r} in "
                    f"{func.qualname}: the coroutine parks with the lock held "
                    "and blocks every thread (and coroutine) needing it; use "
                    "an asyncio.Lock or release before awaiting",
                )
            )
    return findings


def _judge_async_primitives(program: _Program) -> list[LintFinding]:
    findings: list[LintFinding] = []
    reported: set[tuple[str, str]] = set()
    for func in program.all_functions():
        if THREAD not in func.contexts:
            continue
        for touch, node in func.async_touches:
            key = (func.qualname, touch.split("(", 1)[0])
            if key in reported:
                continue
            reported.add(key)
            findings.append(
                _finding(
                    "PPM013",
                    "asyncio-primitive-off-loop",
                    func,
                    node,
                    f"self.{touch} is an asyncio primitive touched from "
                    f"{_ctx_names(func.contexts)} context in {func.qualname}; "
                    "asyncio primitives are not thread-safe — marshal through "
                    "loop.call_soon_threadsafe",
                )
            )
    return findings


#: Rule catalogue for ``--list-rules`` style output (code -> name, text).
RACE_RULES: dict[str, tuple[str, str]] = {
    "PPM010": (
        "unguarded-shared-mutation",
        "instance attribute mutated without a lock while reachable from "
        "worker-thread context (or from the loop while threads touch it)",
    ),
    "PPM011": (
        "unguarded-global-mutation",
        "module global mutated from a concurrent context without a "
        "module-level lock",
    ),
    "PPM012": (
        "await-under-threading-lock",
        "await while holding a synchronous threading lock",
    ),
    "PPM013": (
        "asyncio-primitive-off-loop",
        "asyncio Event/Queue/... called from worker-thread context",
    ),
}


def analyze_races(modules: Sequence[ParsedModule]) -> list[LintFinding]:
    """Run the whole-program concurrency analysis over parsed modules.

    noqa filtering is the caller's job (the ``ppm check`` front-end and
    :func:`run_races` both apply it), so tests can see raw findings.
    """
    collected = [_collect_module(m) for m in modules if m.tree is not None]
    program = _Program(collected)
    _propagate_contexts(program)
    findings: list[LintFinding] = []
    for module in collected:
        for cls in module.classes.values():
            findings.extend(_judge_class(program, cls))
    findings.extend(_judge_globals(program))
    findings.extend(_judge_await_locks(program))
    findings.extend(_judge_async_primitives(program))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def run_races(paths: Sequence[str]) -> list[LintFinding]:
    """Parse ``paths`` and analyze, honouring ``# ppm: noqa`` markers."""
    from .lint import filter_noqa, parse_modules

    modules = parse_modules(paths)
    findings = analyze_races(modules)
    noqa_by_path = {str(m.path): m.noqa for m in modules if m.noqa}
    kept, _suppressed = filter_noqa(findings, noqa_by_path)
    return kept
