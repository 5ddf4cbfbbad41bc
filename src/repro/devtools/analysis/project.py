"""Whole-tree project model for the project-wide lint rules.

The per-file rules (RL001–RL010) see one module at a time.  RL013 and
RL015 need facts that span modules, so the runner parses every
collected file once and hands each rule a :class:`ProjectModel`:

* an **import/symbol graph** — every module's top-level bindings and
  import bindings resolved through project-internal re-export chains
  (``from repro.sim.rng import make_rng`` inside ``repro.sim.__init__``
  resolves back to the defining module);
* a **function index** with per-function facts: resolved direct call
  targets (the call graph) and module-level-state writes;
* the **worker-reachable set** — every function transitively callable
  from a callable handed to ``parallel_map``, used by RL013.

The worker-reachable set is memoised on the instance.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.devtools.config import LintConfig
from repro.devtools.context import ModuleContext

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Dotted-name suffixes recognised as the fork-crossing map primitive.
PARALLEL_ENTRYPOINTS: Tuple[str, ...] = ("sim.parallel.parallel_map",)

#: Mutating method names on module-level containers (RL013).
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear", "write",
})


def module_name_for_path(path: str) -> str:
    """Derive a dotted module name from a file path.

    Package membership is established by walking up through directories
    that contain an ``__init__.py`` — so ``src/repro/sim/rng.py`` maps
    to ``repro.sim.rng`` and a fixture package in a temporary directory
    maps to its own package root.  In-memory sources fall back to the
    path stem.
    """
    p = Path(path)
    if not p.is_file():
        return p.stem
    parts: List[str] = [] if p.stem == "__init__" else [p.stem]
    parent = p.parent
    while (parent / "__init__.py").is_file():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else p.stem


@dataclass
class FunctionInfo:
    """Static facts about one project function (or method)."""

    qualname: str
    local_name: str
    module: "ModuleInfo"
    node: FunctionNode
    #: Resolved dotted names of direct call targets (project + external).
    calls: Set[str] = field(default_factory=set)
    #: Module-level state writes: (state name, anchoring node, kind).
    state_writes: List[Tuple[str, ast.AST, str]] = field(default_factory=list)


@dataclass
class ModuleInfo:
    """One parsed module plus its resolved top-level symbol table."""

    name: str
    context: ModuleContext
    #: Every top-level binding (defs, classes, assigns, imports).
    bindings: Set[str] = field(default_factory=set)
    #: Top-level def/class names only.
    definitions: Set[str] = field(default_factory=set)
    #: Local import bindings: local name -> dotted source symbol/module.
    import_bindings: Dict[str, str] = field(default_factory=dict)
    #: Modules star-imported at top level.
    star_imports: List[str] = field(default_factory=list)
    #: Functions keyed by local qualname ("f" or "Class.f").
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)

    @property
    def path(self) -> str:
        return self.context.display_path


def _collect_top_bindings(
    body: Sequence[ast.stmt], info: ModuleInfo, module_package: str
) -> None:
    """Record top-level bindings, descending into If/Try (conditional
    definitions) but never into functions or classes."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            info.bindings.add(node.name)
            info.definitions.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        info.bindings.add(leaf.id)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                info.bindings.add(local)
                info.import_bindings[local] = (
                    alias.name if alias.asname else local
                )
        elif isinstance(node, ast.ImportFrom):
            base = _import_base(node, module_package)
            for alias in node.names:
                if alias.name == "*":
                    if base:
                        info.star_imports.append(base)
                    continue
                local = alias.asname or alias.name
                info.bindings.add(local)
                if base:
                    info.import_bindings[local] = f"{base}.{alias.name}"
        elif isinstance(node, (ast.If, ast.Try)):
            _collect_top_bindings(node.body, info, module_package)
            _collect_top_bindings(getattr(node, "orelse", []), info,
                                  module_package)
            for handler in getattr(node, "handlers", []):
                _collect_top_bindings(handler.body, info, module_package)
            _collect_top_bindings(getattr(node, "finalbody", []), info,
                                  module_package)


def _import_base(node: ast.ImportFrom, module_package: str) -> Optional[str]:
    """Absolute dotted base of a ``from X import ...`` statement."""
    if not node.level:
        return node.module
    # Relative import: resolve against the importing module's package.
    parts = module_package.split(".") if module_package else []
    drop = node.level
    if drop > len(parts):
        return node.module
    base_parts = parts[: len(parts) - (drop - 1)] if drop > 1 else parts
    if node.module:
        base_parts = base_parts + [node.module]
    return ".".join(base_parts) if base_parts else node.module


class ProjectModel:
    """Cross-module analysis context shared by the project rules."""

    def __init__(
        self,
        contexts: Iterable[ModuleContext],
        config: Optional[LintConfig] = None,
    ) -> None:
        self.config = config if config is not None else LintConfig()
        self.modules_by_path: Dict[str, ModuleInfo] = {}
        self.modules_by_name: Dict[str, ModuleInfo] = {}
        for context in contexts:
            info = self._index_module(context)
            self.modules_by_path[context.display_path] = info
            self.modules_by_name[info.name] = info
        self._workers: Optional[Dict[str, str]] = None

    # -- module indexing -------------------------------------------------

    def _index_module(self, context: ModuleContext) -> ModuleInfo:
        name = module_name_for_path(context.path)
        info = ModuleInfo(name=name, context=context)
        package = name.rsplit(".", 1)[0] if "." in name else ""
        if context.path.replace("\\", "/").endswith("__init__.py"):
            package = name
        _collect_top_bindings(context.tree.body, info, package)
        for node in context.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(info, node, node.name)
            elif isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                        self._index_function(
                            info, sub, f"{node.name}.{sub.name}"
                        )
        return info

    def _index_function(
        self, info: ModuleInfo, node: FunctionNode, local_name: str
    ) -> None:
        fn = FunctionInfo(
            qualname=f"{info.name}.{local_name}",
            local_name=local_name,
            module=info,
            node=node,
        )
        self._collect_function_facts(fn)
        info.functions[local_name] = fn

    def _collect_function_facts(self, fn: FunctionInfo) -> None:
        """Direct call targets and module-level-state writes (RL013)."""
        module = fn.module
        local_binds = _local_bindings(fn.node)
        globals_declared: Set[str] = set()
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Global):
                globals_declared.update(node.names)
            elif isinstance(node, ast.Call):
                target = self.resolve_call(module, node)
                if target is not None:
                    fn.calls.add(target)
        module_state = module.bindings - module.definitions
        for node in ast.walk(fn.node):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (isinstance(target, ast.Name)
                            and target.id in globals_declared):
                        fn.state_writes.append(
                            (target.id, node, "global assignment")
                        )
                    elif isinstance(target, ast.Subscript):
                        root = _root_name(target.value)
                        if root and self._is_module_state(
                            root, module_state, local_binds, globals_declared
                        ):
                            fn.state_writes.append(
                                (root, node, "item assignment")
                            )
            elif isinstance(node, ast.Call):
                func = node.func
                if (isinstance(func, ast.Attribute)
                        and func.attr in MUTATING_METHODS
                        and isinstance(func.value, ast.Name)):
                    root = func.value.id
                    if self._is_module_state(
                        root, module_state, local_binds, globals_declared
                    ):
                        fn.state_writes.append(
                            (root, node, f".{func.attr}() mutation")
                        )

    def closure_facts(
        self, info: ModuleInfo, node: FunctionNode, local_name: str
    ) -> FunctionInfo:
        """Facts for a nested worker closure (not in the module index).

        RL013 needs state-write facts for functions defined *inside*
        other functions and handed straight to ``parallel_map``; those
        never appear in :attr:`ModuleInfo.functions`.
        """
        fn = FunctionInfo(
            qualname=f"{info.name}.<locals>.{local_name}",
            local_name=local_name,
            module=info,
            node=node,
        )
        self._collect_function_facts(fn)
        return fn

    @staticmethod
    def _is_module_state(
        name: str,
        module_state: Set[str],
        local_binds: Set[str],
        globals_declared: Set[str],
    ) -> bool:
        if name in globals_declared:
            return True
        return name in module_state and name not in local_binds

    # -- symbol resolution ----------------------------------------------

    def resolve_export(
        self, module_name: str, symbol: str, _depth: int = 0
    ) -> Optional[str]:
        """Resolve ``module_name.symbol`` through re-export chains.

        Returns the defining ``module.symbol`` dotted name, the original
        dotted name for external modules, or None when the symbol cannot
        be found in a project-internal module.
        """
        info = self.modules_by_name.get(module_name)
        if info is None:
            return f"{module_name}.{symbol}"  # external: taken on faith
        if _depth > 8:
            return None
        if symbol in info.definitions:
            return f"{module_name}.{symbol}"
        source = info.import_bindings.get(symbol)
        if source is not None:
            mod, _, sym = source.rpartition(".")
            if not mod:
                return source
            if source in self.modules_by_name:
                return source  # a submodule import, e.g. package.sim
            return self.resolve_export(mod, sym, _depth + 1)
        if symbol in info.bindings:
            return f"{module_name}.{symbol}"  # plain top-level assignment
        for star in info.star_imports:
            resolved = self.resolve_export(star, symbol, _depth + 1)
            if resolved is not None:
                return resolved
        return None

    def resolve_call(
        self, module: ModuleInfo, call: ast.Call
    ) -> Optional[str]:
        """Resolve a call expression to a dotted target name."""
        return self.resolve_name_node(module, call.func)

    def resolve_name_node(
        self, module: ModuleInfo, node: ast.AST
    ) -> Optional[str]:
        """Resolve a Name/Attribute chain to a dotted name.

        Local function definitions win over imports; import bindings are
        followed through project re-export chains so the returned name
        identifies the defining module whenever it is in the project.
        """
        if isinstance(node, ast.Name):
            if node.id in module.functions:
                return f"{module.name}.{node.id}"
            if node.id in module.definitions:
                return f"{module.name}.{node.id}"
            source = module.import_bindings.get(node.id)
            if source is not None:
                mod, _, sym = source.rpartition(".")
                if mod and source not in self.modules_by_name:
                    resolved = self.resolve_export(mod, sym)
                    return resolved if resolved is not None else source
                return source
            return None
        if isinstance(node, ast.Attribute):
            base = self.resolve_name_node(module, node.value)
            if base is None:
                return None
            dotted = f"{base}.{node.attr}"
            mod, _, sym = dotted.rpartition(".")
            if mod in self.modules_by_name:
                resolved = self.resolve_export(mod, sym)
                return resolved if resolved is not None else dotted
            return dotted
        return None

    def function_by_qualname(self, qualname: str) -> Optional[FunctionInfo]:
        """Look up a project function by its resolved dotted name."""
        mod, _, local = qualname.rpartition(".")
        info = self.modules_by_name.get(mod)
        if info is not None and local in info.functions:
            return info.functions[local]
        # Method qualnames carry two trailing components.
        mod2, _, cls = mod.rpartition(".")
        info = self.modules_by_name.get(mod2)
        if info is not None:
            return info.functions.get(f"{cls}.{local}")
        return None

    # -- parallel-worker reachability (RL013) ----------------------------

    def is_parallel_entry(self, target: Optional[str]) -> bool:
        """True when a resolved call target is the fork-map primitive."""
        if target is None:
            return False
        return any(
            target == entry or target.endswith("." + entry)
            or target.endswith(entry)
            for entry in PARALLEL_ENTRYPOINTS
        ) or target.split(".")[-1] == "parallel_map"

    def worker_reachable(self) -> Dict[str, str]:
        """Map of function qualname -> worker entry it is reachable from.

        Seeds are the ``fn`` arguments of every ``parallel_map`` call in
        the project that resolve to a project function; the closure is
        taken over the resolved direct-call graph.
        """
        if self._workers is not None:
            return self._workers
        seeds: Dict[str, str] = {}
        for info in self.modules_by_path.values():
            for node in info.context.walk():
                if not isinstance(node, ast.Call) or not node.args:
                    continue
                if not self.is_parallel_entry(self.resolve_call(info, node)):
                    continue
                fn_arg = node.args[0]
                target = self.resolve_name_node(info, fn_arg)
                if target is not None and self.function_by_qualname(target):
                    seeds.setdefault(target, target)
        frontier = list(seeds)
        while frontier:
            qualname = frontier.pop()
            fn = self.function_by_qualname(qualname)
            if fn is None:
                continue
            entry = seeds[qualname]
            for callee in sorted(fn.calls):
                if callee in seeds:
                    continue
                if self.function_by_qualname(callee) is not None:
                    seeds[callee] = entry
                    frontier.append(callee)
        self._workers = seeds
        return seeds


def _local_bindings(fn: FunctionNode) -> Set[str]:
    """Names bound inside a function: params, assignments, loops, defs."""
    bound: Set[str] = set()
    args = fn.args
    for a in args.posonlyargs + args.args + args.kwonlyargs:
        bound.add(a.arg)
    if args.vararg:
        bound.add(args.vararg.arg)
    if args.kwarg:
        bound.add(args.kwarg.arg)
    for node in ast.walk(fn):
        if node is fn:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                for leaf in ast.walk(target):
                    # Only Store-context names: ``d[k] = v`` reads ``d``
                    # (its Name is a Load) — it binds nothing.
                    if isinstance(leaf, ast.Name) and isinstance(
                        leaf.ctx, ast.Store
                    ):
                        bound.add(leaf.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for leaf in ast.walk(node.target):
                if isinstance(leaf, ast.Name):
                    bound.add(leaf.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.comprehension):
            for leaf in ast.walk(node.target):
                if isinstance(leaf, ast.Name):
                    bound.add(leaf.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    for leaf in ast.walk(item.optional_vars):
                        if isinstance(leaf, ast.Name):
                            bound.add(leaf.id)
    return bound


def _root_name(node: ast.AST) -> Optional[str]:
    """The root Name identifier of an attribute/subscript chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    return None
