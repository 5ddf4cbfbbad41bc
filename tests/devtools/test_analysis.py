"""Tests for the project model and the project-wide rules RL013/RL015.

Fixture modules are inline strings (never files committed under
``tests/``), so the CI step that lints the test tree never sees the
deliberate violations planted here.
"""

from __future__ import annotations

import textwrap

from repro.devtools.analysis.project import ProjectModel, module_name_for_path
from repro.devtools.config import LintConfig
from repro.devtools.context import ModuleContext
from repro.devtools.runner import lint_paths, lint_source


def dedent(src: str) -> str:
    return textwrap.dedent(src)


def lint_snippet(src, path="pkg/mod.py", **config_kwargs):
    return lint_source(
        dedent(src), path=path, config=LintConfig(**config_kwargs)
    )


def write_package(tmp_path, modules):
    """Materialise ``{relative_path: source}`` as a package tree."""
    root = tmp_path / "proj"
    for rel, source in modules.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(dedent(source), encoding="utf-8")
    # Every directory in the tree becomes a package.
    for directory in [root, *(p for p in root.rglob("*") if p.is_dir())]:
        init = directory / "__init__.py"
        if not init.exists():
            init.write_text("", encoding="utf-8")
    return root


class TestRL013WorkerState:
    def test_module_worker_writing_module_state_flagged(self):
        findings = lint_snippet("""
            from repro.sim.parallel import parallel_map
            _CACHE = {}
            def work(i):
                _CACHE[i] = i * 2
                return i
            def run(items):
                return parallel_map(work, items)
        """, select=["RL013"])
        assert [f.code for f in findings] == ["RL013"]
        assert "_CACHE" in findings[0].message

    def test_transitively_reached_writer_flagged(self):
        findings = lint_snippet("""
            from repro.sim.parallel import parallel_map
            _LOG = []
            def _record(x):
                _LOG.append(x)
            def work(i):
                _record(i)
                return i
            def run(items):
                return parallel_map(work, items)
        """, select=["RL013"])
        assert [f.code for f in findings] == ["RL013"]
        assert "_LOG" in findings[0].message

    def test_closure_worker_global_assign_flagged(self):
        findings = lint_snippet("""
            from repro.sim.parallel import parallel_map
            _LAST = None
            def run(items):
                def work(i):
                    global _LAST
                    _LAST = i
                    return i
                return parallel_map(work, items)
        """, select=["RL013"])
        assert [f.code for f in findings] == ["RL013"]

    def test_local_container_writes_are_clean(self):
        findings = lint_snippet("""
            from repro.sim.parallel import parallel_map
            def work(i):
                acc = {}
                acc[i] = i * 2
                return acc
            def run(items):
                return parallel_map(work, items)
        """, select=["RL013"])
        assert findings == []

    def test_writer_not_reachable_from_worker_is_clean(self):
        findings = lint_snippet("""
            from repro.sim.parallel import parallel_map
            _STATS = {}
            def record(k, v):
                _STATS[k] = v
            def work(i):
                return i * 2
            def run(items):
                out = parallel_map(work, items)
                record("n", len(out))
                return out
        """, select=["RL013"])
        assert findings == []


class TestRL015KernelDrift:
    KERNEL_PATH = "proj/sim/kernel.py"

    def test_unchecked_scan_attribute_flagged(self):
        findings = lint_snippet("""
            def plan_or_reason(coordinator):
                if coordinator.n_sensors < 1:
                    return None, "no sensors"
                return object(), None
            def scan(coordinator, xs):
                return [x * coordinator.theta for x in xs]
        """, path=self.KERNEL_PATH, select=["RL015"])
        assert [f.code for f in findings] == ["RL015"]
        assert "coordinator.theta" in findings[0].message

    def test_gate_checked_attribute_is_clean(self):
        findings = lint_snippet("""
            def plan_or_reason(coordinator):
                if coordinator.theta <= 0:
                    return None, "bad theta"
                return object(), None
            def scan(coordinator, xs):
                return [x * coordinator.theta for x in xs]
        """, path=self.KERNEL_PATH, select=["RL015"])
        assert findings == []

    def test_alias_through_local_assignment_tracked(self):
        findings = lint_snippet("""
            def plan_or_reason(coordinator):
                policy = coordinator.policy
                if getattr(policy, "battery_aware", False):
                    return None, "battery-aware"
                return object(), None
            def scan(policy, xs):
                return [x for x in xs if policy.battery_aware]
        """, path=self.KERNEL_PATH, select=["RL015"])
        assert findings == []

    def test_non_kernel_module_ignored(self):
        findings = lint_snippet("""
            def plan_or_reason(coordinator):
                return object(), None
            def scan(coordinator, xs):
                return [x * coordinator.theta for x in xs]
        """, path="proj/other.py", select=["RL015"])
        assert findings == []

    def test_real_kernels_have_no_drift(self):
        from pathlib import Path

        package = (
            Path(__file__).resolve().parent.parent.parent / "src" / "repro"
        )
        findings = lint_paths(
            [package / "sim" / "kernel.py",
             package / "sim" / "network_kernel.py"],
            LintConfig(select=["RL015"]),
        )
        assert findings == []


class TestProjectModel:
    def test_module_name_walks_package_dirs(self, tmp_path):
        root = write_package(tmp_path, {"sub/mod.py": "x = 1\n"})
        assert module_name_for_path(
            str(root / "sub" / "mod.py")
        ) == "proj.sub.mod"

    def test_resolve_export_follows_chain(self, tmp_path):
        root = write_package(tmp_path, {
            "impl.py": "def solve():\n    return 1\n",
            "api.py": "from proj.impl import solve\n",
        })
        contexts = [
            ModuleContext(
                (root / name).read_text(encoding="utf-8"),
                path=str(root / name),
                display_path=(root / name).as_posix(),
            )
            for name in ("impl.py", "api.py")
        ]
        project = ProjectModel(contexts)
        assert project.resolve_export("proj.api", "solve") == (
            "proj.impl.solve"
        )
        assert project.resolve_export("proj.api", "ghost") is None

    def test_worker_reachability_closure(self):
        source = dedent("""
            from repro.sim.parallel import parallel_map
            def helper(x):
                return x + 1
            def work(i):
                return helper(i)
            def run(items):
                return parallel_map(work, items)
        """)
        context = ModuleContext(source, path="pkg/mod.py")
        project = ProjectModel([context])
        reachable = project.worker_reachable()
        names = {q.rsplit(".", 1)[-1] for q in reachable}
        assert names == {"work", "helper"}
