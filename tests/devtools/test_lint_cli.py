"""End-to-end tests for the lint engine and its command line."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.devtools.cli import main
from repro.devtools.config import LintConfig
from repro.devtools.runner import (
    collect_files,
    format_findings,
    lint_paths,
    lint_source,
)
from repro.devtools.rules import LintError

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"


def subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env

CLEAN_MODULE = textwrap.dedent("""
    \"\"\"A module that satisfies every rule.\"\"\"

    from __future__ import annotations


    def double(x):
        \"\"\"Return twice the input.\"\"\"
        return 2 * x
""")

DIRTY_MODULE = textwrap.dedent("""
    from __future__ import annotations

    import numpy as np


    def sample(n):
        rng = np.random.default_rng()
        return rng.random(n)
""")


class TestEngine:
    def test_lint_paths_on_directory(self, tmp_path):
        (tmp_path / "good.py").write_text(CLEAN_MODULE)
        (tmp_path / "bad.py").write_text(DIRTY_MODULE)
        findings = lint_paths([tmp_path], LintConfig())
        assert {f.code for f in findings} == {"RL001"}
        assert all(f.path.endswith("bad.py") for f in findings)

    def test_exclude_glob_skips_file(self, tmp_path):
        (tmp_path / "bad.py").write_text(DIRTY_MODULE)
        config = LintConfig(exclude=["*/bad.py"])
        assert lint_paths([tmp_path], config) == []

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(LintError):
            lint_paths([tmp_path / "ghost.py"])

    def test_collect_files_deduplicates(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(CLEAN_MODULE)
        files = collect_files([tmp_path, target])
        assert files.count(target) <= 1 and len(files) == 1

    def test_syntax_error_reported_as_lint_error(self):
        with pytest.raises(LintError):
            lint_source("def broken(:\n")

    def test_format_json_round_trips(self):
        # DIRTY_MODULE yields two RL001 findings: the unseeded call and
        # the public function that accepts no seed/rng parameter.
        findings = lint_source(
            DIRTY_MODULE, path="bad.py", config=LintConfig(select=["RL001"])
        )
        payload = json.loads(format_findings(findings, "json"))
        assert payload["count"] == len(findings) == 2
        assert {f["code"] for f in payload["findings"]} == {"RL001"}

    def test_format_text_mentions_count(self):
        findings = lint_source(
            DIRTY_MODULE, path="bad.py", config=LintConfig(select=["RL001"])
        )
        text = format_findings(findings, "text")
        assert "bad.py:" in text and "2 finding" in text

    def test_unknown_format_rejected(self):
        with pytest.raises(LintError):
            format_findings([], "xml")


class TestCliMain:
    def test_clean_tree_exits_zero(self, capsys, tmp_path):
        (tmp_path / "good.py").write_text(CLEAN_MODULE)
        rc = main([str(tmp_path), "--no-config"])
        assert rc == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys, tmp_path):
        (tmp_path / "bad.py").write_text(DIRTY_MODULE)
        rc = main([str(tmp_path), "--no-config"])
        assert rc == 1
        assert "RL001" in capsys.readouterr().out

    def test_bad_path_exits_two(self, capsys, tmp_path):
        rc = main([str(tmp_path / "ghost"), "--no-config"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_select_flag(self, capsys, tmp_path):
        (tmp_path / "bad.py").write_text("x = y == 1.0\n")
        rc = main([str(tmp_path), "--no-config", "--select", "RL001"])
        assert rc == 0
        rc = main([str(tmp_path), "--no-config", "--select", "RL002"])
        assert rc == 1

    def test_ignore_flag(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(DIRTY_MODULE)
        rc = main([
            str(tmp_path), "--no-config", "--ignore", "RL001",
        ])
        assert rc == 0

    def test_json_format(self, capsys, tmp_path):
        (tmp_path / "bad.py").write_text(DIRTY_MODULE)
        rc = main([
            str(tmp_path), "--no-config", "--format", "json",
            "--select", "RL001",
        ])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 2

    def test_list_rules(self, capsys):
        rc = main(["--list-rules"])
        assert rc == 0
        out = capsys.readouterr().out
        listed = [line.split()[0] for line in out.splitlines()]
        assert listed == [f"RL{i:03d}" for i in (*range(1, 11), 13, 15)]

    def test_sarif_flag(self, capsys, tmp_path):
        (tmp_path / "bad.py").write_text(DIRTY_MODULE)
        sarif = tmp_path / "out.sarif"
        rc = main([str(tmp_path), "--no-config", "--sarif", str(sarif)])
        assert rc == 1
        doc = json.loads(sarif.read_text(encoding="utf-8"))
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"]

    def test_config_file_respected(self, capsys, tmp_path):
        (tmp_path / "bad.py").write_text(DIRTY_MODULE)
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            "[tool.repro-lint]\nignore = [\"RL001\"]\n"
        )
        rc = main([str(tmp_path), "--config", str(pyproject)])
        assert rc == 0


class TestRealTree:
    """Acceptance: the shipped tree lints clean, and a planted unseeded
    generator in core/greedy.py turns the build red."""

    def test_package_lints_clean(self):
        findings = lint_paths([PACKAGE], LintConfig())
        assert findings == [], format_findings(findings)

    def test_planted_unseeded_rng_in_greedy_fails(self, tmp_path):
        mirror = tmp_path / "src" / "repro" / "core"
        mirror.mkdir(parents=True)
        greedy = (PACKAGE / "core" / "greedy.py").read_text(encoding="utf-8")
        planted = greedy.replace(
            "import numpy as np",
            "import numpy as np\n_planted = np.random.default_rng()",
            1,
        )
        assert planted != greedy, "expected numpy import in greedy.py"
        target = mirror / "greedy.py"
        target.write_text(planted, encoding="utf-8")
        findings = lint_paths([target], LintConfig())
        assert [f.code for f in findings] == ["RL001"]

    def test_planted_finding_fails_via_module_cli(self, tmp_path):
        """`python -m repro.lint <planted file>` exits 1, as CI would."""
        bad = tmp_path / "planted.py"
        bad.write_text(DIRTY_MODULE, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(bad), "--no-config"],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        assert proc.returncode == 1, proc.stderr
        assert "RL001" in proc.stdout

    def test_module_cli_clean_on_package(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(PACKAGE)],
            capture_output=True,
            text=True,
            cwd=str(REPO_ROOT),
            env=subprocess_env(),
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
