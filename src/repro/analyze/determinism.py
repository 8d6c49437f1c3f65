"""Determinism rules (DET1xx): iteration order, RNG seeding, wall-clock.

The bug class these rules target has shipped three times in this repo:
``_busy_channels`` set-order nondeterminism in the PR 2 engine rewrite
(iteration order of a ``set`` of objects follows memory addresses), the
won-scheme chained-local VC bug found by ``repro.verify`` in PR 1, and
the ``permuted()`` within-class channel-order bug in PR 4.  Every rule
here over-approximates on purpose: a flagged site is either fixed
(sorted, seeded, injected) or carries an audited
``# repro: allow[...]: reason`` suppression explaining why its order
cannot reach results.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analyze.context import ModuleUnit, ProjectContext
from repro.analyze.findings import Finding
from repro.analyze.registry import rule

__all__ = ["iter_calls", "resolve_call_chain"]

# calls that consume an iterable order-insensitively: iteration inside
# them is safe (sum is included: summing a dict view of ints is common
# and benign; float sums that need exact reproducibility should not live
# behind a sum() of an unordered container in the first place -- DET101
# still flags raw set iteration feeding accumulators)
_NEUTRAL_CALLS = {
    "sorted", "min", "max", "len", "any", "all", "set", "frozenset", "sum",
}
# calls that materialize iteration order into an ordered structure
_MATERIALIZERS = {
    "list", "tuple", "enumerate",
    "numpy.fromiter", "numpy.array", "numpy.asarray",
}
# numpy legacy global-state RNG entry points (module-level state seeded
# implicitly from the OS: never reproducible without a global seed call,
# and a global seed call is itself an ordering hazard across workers)
_NP_LEGACY_RNG = {
    "numpy.random.rand", "numpy.random.randn", "numpy.random.randint",
    "numpy.random.random", "numpy.random.random_sample",
    "numpy.random.shuffle", "numpy.random.permutation",
    "numpy.random.choice", "numpy.random.seed", "numpy.random.normal",
    "numpy.random.uniform",
}
# stdlib random module-level functions (same global-state hazard)
_STDLIB_RNG = {
    "random.random", "random.randint", "random.randrange",
    "random.shuffle", "random.choice", "random.choices", "random.sample",
    "random.uniform", "random.seed", "random.getrandbits",
}
# wall-clock / entropy sources; values that reach results or cache keys
# break run-to-run reproducibility
_WALLCLOCK = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "os.urandom", "uuid.uuid1", "uuid.uuid4",
}
# modules where wall-clock reads are the point: the identity-neutral
# observability layer and the executor's task timings (they never feed
# results or fingerprints -- asserted by the obs-parity tests)
_WALLCLOCK_ALLOWED_PREFIXES = ("repro.obs.",)
_WALLCLOCK_ALLOWED_MODULES = {"repro.obs", "repro.perf.executor"}

_SET_ANNOTATIONS = ("set", "Set", "frozenset", "FrozenSet")


# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------
def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> canonical dotted module, e.g. ``np -> numpy``."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                local = name.asname or name.name.split(".")[0]
                target = name.name if name.asname else name.name.split(".")[0]
                aliases[local] = target
        elif isinstance(node, ast.ImportFrom) and node.module:
            for name in node.names:
                aliases[name.asname or name.name] = (
                    f"{node.module}.{name.name}"
                )
    return aliases


def _dotted(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def resolve_call_chain(
    node: ast.expr, aliases: Dict[str, str]
) -> Optional[str]:
    """The canonical dotted name of a call target, import-resolved."""
    chain = _dotted(node)
    if chain is None:
        return None
    head, _, rest = chain.partition(".")
    resolved = aliases.get(head, head)
    return f"{resolved}.{rest}" if rest else resolved


def iter_calls(
    tree: ast.AST, aliases: Dict[str, str]
) -> Iterator[Tuple[ast.Call, Optional[str]]]:
    """Every Call node with its resolved dotted target name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            yield node, resolve_call_chain(node.func, aliases)


def _neutralized_ids(tree: ast.AST, aliases: Dict[str, str]) -> Set[int]:
    """ids of nodes living inside an order-insensitive consumer call."""
    neutral: Set[int] = set()
    for call, name in iter_calls(tree, aliases):
        if name in _NEUTRAL_CALLS:
            for arg in call.args:
                neutral.update(id(n) for n in ast.walk(arg))
    return neutral


def _is_set_annotation(annotation: ast.expr) -> bool:
    text = ast.unparse(annotation)
    base = text.split("[", 1)[0].strip()
    base = base.split(".")[-1]  # typing.Set -> Set
    return base in _SET_ANNOTATIONS


def _is_set_expr(
    node: Optional[ast.expr],
    local_sets: Set[str],
    attr_sets: Set[str],
) -> bool:
    """Whether an expression is statically known to produce a set."""
    if node is None:
        return False
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.Name):
        return node.id in local_sets
    if isinstance(node, ast.Attribute):
        if (
            isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return node.attr in attr_sets
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_expr(
            node.left, local_sets, attr_sets
        ) or _is_set_expr(node.right, local_sets, attr_sets)
    return False


def _scope_set_names(scope: ast.AST) -> Set[str]:
    """Names assigned/annotated as sets directly in ``scope``.

    Nested function bodies are skipped (their locals are their own), but
    nested statements (if/for/try) are included.
    """
    names: Set[str] = set()

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                 ast.ClassDef),
            ):
                continue
            if isinstance(child, ast.Assign):
                if _is_set_expr(child.value, names, set()):
                    for target in child.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
            elif isinstance(child, ast.AnnAssign):
                if isinstance(child.target, ast.Name) and (
                    _is_set_annotation(child.annotation)
                    or _is_set_expr(child.value, names, set())
                ):
                    names.add(child.target.id)
            visit(child)

    visit(scope)
    return names


def _class_set_attrs(cls: ast.ClassDef) -> Set[str]:
    """``self.X`` attributes assigned/annotated as sets in any method."""
    attrs: Set[str] = set()
    for node in ast.walk(cls):
        target: Optional[ast.expr] = None
        value: Optional[ast.expr] = None
        annotation: Optional[ast.expr] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target, value, annotation = node.target, node.value, node.annotation
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            if (annotation is not None and _is_set_annotation(annotation)) or (
                _is_set_expr(value, set(), attrs)
            ):
                attrs.add(target.attr)
    return attrs


def _scopes(tree: ast.Module) -> Iterator[Tuple[ast.AST, Set[str], Set[str]]]:
    """(scope node, local set names, enclosing-class set attrs) triples."""
    class_attrs: Dict[int, Set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            class_attrs[id(node)] = _class_set_attrs(node)

    def walk(node: ast.AST, attrs: Set[str]) -> Iterator[
        Tuple[ast.AST, Set[str], Set[str]]
    ]:
        if isinstance(node, (ast.Module, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            yield node, _scope_set_names(node), attrs
        for child in ast.iter_child_nodes(node):
            child_attrs = (
                class_attrs[id(child)]
                if isinstance(child, ast.ClassDef)
                else attrs
            )
            yield from walk(child, child_attrs)

    yield from walk(tree, set())


def _dict_view_call(node: ast.expr) -> Optional[str]:
    """'values' / 'keys' when the node is a ``X.values()``-style call."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("values", "keys")
        and not node.args
        and not node.keywords
    ):
        return node.func.attr
    return None


def _body_order_triggers(body: List[ast.stmt]) -> List[str]:
    """Order-sensitivity signals inside a loop body."""
    triggers: List[str] = []
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.AugAssign):
                triggers.append("accumulates with an augmented assignment")
            elif isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.Div, ast.FloorDiv)
            ):
                triggers.append("computes a division")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "append"
            ):
                triggers.append("appends to an ordered sequence")
    return triggers


# ---------------------------------------------------------------------------
# DET101: set iteration
# ---------------------------------------------------------------------------
@rule(
    "DET101",
    "set-iteration",
    family="determinism",
    severity="warning",
    summary=(
        "iteration or materialization of a set, whose order follows "
        "element hashes (object sets: memory addresses) and can flow "
        "into RNG draws, serialized output, or accumulated floats"
    ),
    hint=(
        "iterate sorted(the_set) (or an insertion-ordered dict-as-set: "
        "Dict[T, None]), or suppress with a reason why order cannot "
        "reach results"
    ),
)
def check_set_iteration(
    unit: ModuleUnit, ctx: ProjectContext
) -> Iterator[Finding]:
    assert unit.tree is not None
    del ctx
    aliases = _import_aliases(unit.tree)
    neutral = _neutralized_ids(unit.tree, aliases)

    def finding(node: ast.AST, what: str) -> Finding:
        from repro.analyze.registry import ANALYZE_RULES

        line = getattr(node, "lineno", 0)
        return ANALYZE_RULES.get("DET101").finding(
            unit.path,
            line,
            f"{what} iterates a set in nondeterministic hash order",
            context=unit.line_text(line),
        )

    for scope, local_sets, attr_sets in _scopes(unit.tree):
        for node in _walk_scope(scope):
            if isinstance(node, ast.For):
                if id(node.iter) in neutral:
                    continue
                if _is_set_expr(node.iter, local_sets, attr_sets):
                    yield finding(node, "for loop")
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp,
                                   ast.DictComp)):
                for gen in node.generators:
                    if id(gen.iter) in neutral:
                        continue
                    if _is_set_expr(gen.iter, local_sets, attr_sets):
                        yield finding(node, "comprehension")
            elif isinstance(node, ast.Call):
                name = resolve_call_chain(node.func, aliases)
                if name in _MATERIALIZERS and node.args:
                    arg = node.args[0]
                    if id(arg) in neutral:
                        continue
                    if _is_set_expr(arg, local_sets, attr_sets):
                        yield finding(node, f"{name}() call")


def _walk_scope(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk a scope without descending into nested function scopes."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda, ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


# ---------------------------------------------------------------------------
# DET102: dict-view order flowing into order-sensitive sinks
# ---------------------------------------------------------------------------
@rule(
    "DET102",
    "dict-view-order",
    family="determinism",
    severity="warning",
    summary=(
        "iteration over dict .values()/.keys() whose order flows into "
        "accumulated floats, appended sequences, or materialized arrays "
        "-- deterministic only while every insertion site is"
    ),
    hint=(
        "sort the items (sorted(d.items())), key the aggregation so "
        "order cannot matter, or suppress with a reason why the dict's "
        "insertion order is itself deterministic"
    ),
)
def check_dict_view_order(
    unit: ModuleUnit, ctx: ProjectContext
) -> Iterator[Finding]:
    assert unit.tree is not None
    del ctx
    aliases = _import_aliases(unit.tree)
    neutral = _neutralized_ids(unit.tree, aliases)

    def finding(node: ast.AST, view: str, why: str) -> Finding:
        from repro.analyze.registry import ANALYZE_RULES

        line = getattr(node, "lineno", 0)
        return ANALYZE_RULES.get("DET102").finding(
            unit.path,
            line,
            f"iteration over .{view}() {why}",
            context=unit.line_text(line),
        )

    for node in ast.walk(unit.tree):
        if isinstance(node, ast.For):
            view = _dict_view_call(node.iter)
            if view is None or id(node.iter) in neutral:
                continue
            triggers = _body_order_triggers(node.body)
            if triggers:
                yield finding(node, view, f"{triggers[0]} in its body")
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
            for gen in node.generators:
                view = _dict_view_call(gen.iter)
                if view is None or id(gen.iter) in neutral:
                    continue
                exprs: List[ast.expr] = [
                    node.elt if not isinstance(node, ast.DictComp)
                    else node.value
                ]
                wrapper = ast.Expr(value=exprs[0])
                triggers = _body_order_triggers([wrapper])
                if triggers:
                    yield finding(node, view, f"{triggers[0]}")
        elif isinstance(node, ast.Call):
            name = resolve_call_chain(node.func, aliases)
            if name in _MATERIALIZERS and node.args:
                view = _dict_view_call(node.args[0])
                if view is not None and id(node.args[0]) not in neutral:
                    yield finding(
                        node, view,
                        f"materializes view order via {name}()",
                    )


# ---------------------------------------------------------------------------
# DET103: unseeded / global-state RNG
# ---------------------------------------------------------------------------
@rule(
    "DET103",
    "unseeded-rng",
    family="determinism",
    severity="error",
    summary=(
        "RNG construction or draw outside SimParams.seed plumbing: "
        "unseeded default_rng()/Random(), or module-level global-state "
        "random functions"
    ),
    hint=(
        "thread an explicit seed (np.random.default_rng(seed)) from "
        "SimParams/RunSpec; never draw from module-level RNG state"
    ),
)
def check_unseeded_rng(
    unit: ModuleUnit, ctx: ProjectContext
) -> Iterator[Finding]:
    assert unit.tree is not None
    del ctx
    from repro.analyze.registry import ANALYZE_RULES

    entry = ANALYZE_RULES.get("DET103")
    aliases = _import_aliases(unit.tree)
    for call, name in iter_calls(unit.tree, aliases):
        if name is None:
            continue
        line = call.lineno
        context = unit.line_text(line)
        if name == "numpy.random.default_rng" and not (
            call.args or call.keywords
        ):
            yield entry.finding(
                unit.path, line,
                "np.random.default_rng() without a seed draws entropy "
                "from the OS; results cannot be reproduced",
                context=context,
            )
        elif name == "random.Random" and not (call.args or call.keywords):
            yield entry.finding(
                unit.path, line,
                "random.Random() without a seed is OS-entropy seeded",
                context=context,
            )
        elif name in _NP_LEGACY_RNG:
            yield entry.finding(
                unit.path, line,
                f"{name}() uses numpy's module-level global RNG state",
                context=context,
            )
        elif name in _STDLIB_RNG:
            yield entry.finding(
                unit.path, line,
                f"{name}() uses the stdlib's module-level RNG state",
                context=context,
            )


# ---------------------------------------------------------------------------
# DET104: wall-clock / entropy values
# ---------------------------------------------------------------------------
@rule(
    "DET104",
    "wallclock-read",
    family="determinism",
    severity="warning",
    summary=(
        "wall-clock or entropy read (time.time, datetime.now, "
        "os.urandom, uuid4) outside the identity-neutral observability "
        "layers -- values that reach results or cache keys break "
        "reproducibility"
    ),
    hint=(
        "inject a clock/ID source from the caller, or move the read "
        "into repro.obs (timings there are identity-neutral by the "
        "obs-parity tests)"
    ),
)
def check_wallclock(
    unit: ModuleUnit, ctx: ProjectContext
) -> Iterator[Finding]:
    assert unit.tree is not None
    del ctx
    module = unit.module
    if module in _WALLCLOCK_ALLOWED_MODULES or module.startswith(
        _WALLCLOCK_ALLOWED_PREFIXES
    ):
        return
    from repro.analyze.registry import ANALYZE_RULES

    entry = ANALYZE_RULES.get("DET104")
    aliases = _import_aliases(unit.tree)
    for call, name in iter_calls(unit.tree, aliases):
        if name in _WALLCLOCK:
            yield entry.finding(
                unit.path, call.lineno,
                f"{name}() read outside the observability layer",
                context=unit.line_text(call.lineno),
            )


# ---------------------------------------------------------------------------
# DET105: PYTHONHASHSEED-dependent values
# ---------------------------------------------------------------------------
@rule(
    "DET105",
    "builtin-hash",
    family="determinism",
    severity="warning",
    summary=(
        "builtin hash() call: str/bytes hashes vary with PYTHONHASHSEED "
        "across processes, so the value can never feed an ordering, a "
        "cache key, or a result"
    ),
    hint=(
        "use hashlib (sha256 of a canonical encoding) for stable "
        "content hashes; see repro.spec.specs.canonical_json"
    ),
)
def check_builtin_hash(
    unit: ModuleUnit, ctx: ProjectContext
) -> Iterator[Finding]:
    assert unit.tree is not None
    del ctx
    from repro.analyze.registry import ANALYZE_RULES

    entry = ANALYZE_RULES.get("DET105")
    for node in ast.walk(unit.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "hash"
        ):
            yield entry.finding(
                unit.path, node.lineno,
                "builtin hash() is PYTHONHASHSEED-dependent for "
                "str/bytes arguments",
                context=unit.line_text(node.lineno),
            )
