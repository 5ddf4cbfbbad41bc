"""Whole-project lint rules RL013 and RL015.

These rules run on the whole-tree :class:`ProjectModel` (they set
``requires_project``) because their evidence spans modules:

* **RL013** — module-level state written from worker-executed code:
  fork workers mutate a copy-on-write snapshot, so the parent never
  sees the write (the ``_last_dispatch`` bug class).  Workers are the
  callables handed to ``parallel_map`` — top-level functions, closures
  defined next to the call, and everything either reaches through the
  call graph.
* **RL015** — kernel eligibility drift: a policy/coordinator attribute
  read inside a kernel scan path that no eligibility gate
  (``ineligibility_reason`` / ``plan_or_reason``) ever checks means the
  gate can admit configurations the scan silently mishandles.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.devtools.analysis.project import (
    FunctionInfo,
    ModuleInfo,
    ProjectModel,
)
from repro.devtools.context import ModuleContext
from repro.devtools.rules import Finding, Rule, register

#: Parameter names treated as policy-bearing in kernel modules (RL015).
_POLICY_PARAMS = frozenset({"policy", "coordinator", "config"})


def _module_info(
    module: ModuleContext, project: ProjectModel
) -> Optional[ModuleInfo]:
    return project.modules_by_path.get(module.display_path)


@register
class WorkerStateWriteRule(Rule):
    """RL013: worker-reachable code must not write module-level state."""

    code = "RL013"
    name = "worker-state-write"
    description = (
        "module-level mutable state written from functions reachable "
        "from parallel_map workers is lost in forked children"
    )
    requires_project = True

    def check_project(
        self, module: ModuleContext, project: ProjectModel
    ) -> Iterator[Finding]:
        info = _module_info(module, project)
        if info is None:
            return
        workers = project.worker_reachable()
        for local_name, fn in sorted(info.functions.items()):
            entry = workers.get(fn.qualname)
            if entry is not None:
                yield from self._report_writes(module, fn, entry)
        # Closures handed to parallel_map never appear in the module
        # function index; scan them at each call site.
        yield from self._check_closures(module, project, info)

    def _report_writes(
        self, module: ModuleContext, fn: FunctionInfo, entry: str
    ) -> Iterator[Finding]:
        entry_name = entry.rsplit(".", 1)[-1]
        for state_name, node, kind in fn.state_writes:
            yield self.finding(
                module,
                node,
                f"{kind} to module-level state {state_name!r} in "
                f"{fn.local_name!r}, which runs in parallel_map workers "
                f"(reached from {entry_name!r}); forked workers mutate a "
                "copy, so the parent never observes the write — return "
                "the value instead",
            )

    def _check_closures(
        self, module: ModuleContext, project: ProjectModel, info: ModuleInfo
    ) -> Iterator[Finding]:
        scopes: List[Sequence[ast.stmt]] = [module.tree.body]
        scopes.extend(fn.node.body for fn in info.functions.values())
        for body in scopes:
            nodes = list(_scope_nodes(body))
            nested = {
                node.name: node for node in nodes
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            for call in nodes:
                if not isinstance(call, ast.Call) or not call.args:
                    continue
                fn_arg = call.args[0]
                if not isinstance(fn_arg, ast.Name):
                    continue
                worker = nested.get(fn_arg.id)
                if worker is None or not project.is_parallel_entry(
                    project.resolve_call(info, call)
                ):
                    continue
                facts = project.closure_facts(info, worker, fn_arg.id)
                for state_name, node, kind in facts.state_writes:
                    yield self.finding(
                        module,
                        node,
                        f"{kind} to module-level state {state_name!r} in "
                        f"worker closure {fn_arg.id!r}; forked workers "
                        "mutate a copy, so the parent never observes the "
                        "write — return the value instead",
                    )


def _scope_nodes(body: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """Every node of one scope, not descending into nested scopes.

    Function, class and lambda nodes are yielded themselves (so nested
    worker definitions can be looked up by name) but their bodies
    belong to their own scope.
    """
    stack: List[ast.AST] = list(reversed(body))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Lambda)):
            stack.extend(reversed(list(ast.iter_child_nodes(node))))


@register
class KernelEligibilityDriftRule(Rule):
    """RL015: kernel scans must not read policy attrs the gates skip."""

    code = "RL015"
    name = "kernel-eligibility-drift"
    description = (
        "policy/coordinator attributes read in kernel scan paths must "
        "be checked by an eligibility gate"
    )
    requires_project = True

    def check_project(
        self, module: ModuleContext, project: ProjectModel
    ) -> Iterator[Finding]:
        info = _module_info(module, project)
        if info is None:
            return
        if not module.path_matches(project.config.kernel_modules):
            return
        checked = _gate_checked_attrs(project)
        gates = set(project.config.kernel_gates)
        gate_list = ", ".join(sorted(gates)) or "<none>"
        for local_name, fn in sorted(info.functions.items()):
            if fn.local_name.rsplit(".", 1)[-1] in gates:
                continue
            for param, attr, node in _policy_attr_reads(fn.node):
                if attr in checked:
                    continue
                yield self.finding(
                    module,
                    node,
                    f"kernel scan path {fn.local_name!r} reads "
                    f"{param}.{attr}, which no eligibility gate "
                    f"({gate_list}) checks; the gate can admit "
                    "configurations this scan silently mishandles",
                )


def _gate_checked_attrs(project: ProjectModel) -> Set[str]:
    """Union of policy attrs every eligibility gate inspects."""
    checked: Set[str] = set()
    gates = set(project.config.kernel_gates)
    for info in project.modules_by_path.values():
        if not info.context.path_matches(project.config.kernel_modules):
            continue
        for fn in info.functions.values():
            if fn.local_name.rsplit(".", 1)[-1] not in gates:
                continue
            for _, attr, _node in _policy_attr_reads(fn.node):
                checked.add(attr)
    return checked


def _policy_attr_reads(
    fn_node: ast.AST,
) -> List[Tuple[str, str, ast.AST]]:
    """``(root param, attribute, node)`` for each policy attr access.

    Roots are parameters named in :data:`_POLICY_PARAMS`; locals
    assigned from a rooted attribute chain (``policy =
    coordinator.policy``) become rooted themselves, so aliased reads
    are still attributed.  ``getattr(root, "attr", ...)`` with a
    constant name counts as a read of that attribute.
    """
    args = getattr(fn_node, "args", None)
    if args is None:
        return []
    rooted: Set[str] = {
        a.arg
        for a in list(args.posonlyargs) + list(args.args)
        + list(args.kwonlyargs)
        if a.arg in _POLICY_PARAMS
    }
    if not rooted:
        return []
    reads: List[Tuple[str, str, ast.AST]] = []
    body = list(getattr(fn_node, "body", []))
    # One forward pass to pick up aliases, then a full read collection
    # (aliases are rare enough that order subtleties don't matter).
    for _ in range(2):
        for node in ast.walk(fn_node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                root = _rooted_source(node.value, rooted)
                if isinstance(target, ast.Name) and root is not None:
                    rooted.add(target.id)
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Attribute):
            root = _rooted_source(node.value, rooted, direct=True)
            if root is not None:
                reads.append((root, node.attr, node))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id in rooted
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            reads.append((node.args[0].id, node.args[1].value, node))
    return reads


def _rooted_source(
    node: ast.AST, rooted: Set[str], direct: bool = False
) -> Optional[str]:
    """Root name when ``node`` is a rooted Name or attr chain on one."""
    if isinstance(node, ast.Name):
        return node.id if node.id in rooted else None
    if not direct and isinstance(node, ast.Attribute):
        return _rooted_source(node.value, rooted)
    return None
