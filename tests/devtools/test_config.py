"""Tests for [tool.repro-lint] configuration handling."""

from __future__ import annotations

import textwrap

import pytest

from repro.devtools.config import LintConfig, load_config
from repro.devtools.config import _parse_toml_subset, find_pyproject
from repro.devtools.rules import LintError


def write_pyproject(tmp_path, body):
    path = tmp_path / "pyproject.toml"
    path.write_text(textwrap.dedent(body), encoding="utf-8")
    return path


class TestLintConfig:
    def test_defaults_select_every_rule(self):
        config = LintConfig()
        assert config.enabled_codes() == tuple(
            f"RL{i:03d}" for i in (*range(1, 11), 13, 15)
        )
        assert config.rng_modules == ("sim/rng.py",)
        assert config.kernel_modules == (
            "sim/kernel.py", "sim/network_kernel.py",
            "sim/batch_kernel.py",
        )
        assert config.kernel_gates == (
            "ineligibility_reason", "plan_or_reason",
            "policy_fast_paths",
        )

    def test_ignore_removes_from_selection(self):
        config = LintConfig(ignore=["RL007"])
        assert "RL007" not in config.enabled_codes()
        assert "RL001" in config.enabled_codes()

    def test_select_narrows_selection(self):
        config = LintConfig(select=["RL002", "RL003"])
        assert config.enabled_codes() == ("RL002", "RL003")

    def test_codes_are_case_insensitive(self):
        config = LintConfig(select=["rl002"])
        assert config.enabled_codes() == ("RL002",)

    def test_unknown_code_rejected(self):
        with pytest.raises(LintError):
            LintConfig(select=["RL042"])

    def test_exclude_globs(self):
        config = LintConfig(exclude=["src/repro/_vendor/*", "*/generated.py"])
        assert config.is_excluded("src/repro/_vendor/blob.py")
        assert config.is_excluded("a/b/generated.py")
        assert not config.is_excluded("src/repro/core/greedy.py")


class TestLoadConfig:
    def test_missing_table_gives_defaults(self, tmp_path):
        path = write_pyproject(tmp_path, """
            [project]
            name = "x"
        """)
        config = load_config(pyproject=path)
        assert config.enabled_codes() == LintConfig().enabled_codes()

    def test_reads_table(self, tmp_path):
        path = write_pyproject(tmp_path, """
            [tool.repro-lint]
            select = ["RL001", "RL002"]
            ignore = ["RL002"]
            exclude = ["src/gen/*"]
            rng-modules = ["sim/rng.py", "sim/rng2.py"]
        """)
        config = load_config(pyproject=path)
        assert config.enabled_codes() == ("RL001",)
        assert config.exclude == ("src/gen/*",)
        assert config.rng_modules == ("sim/rng.py", "sim/rng2.py")

    def test_multiline_arrays(self, tmp_path):
        path = write_pyproject(tmp_path, """
            [tool.repro-lint]
            ignore = [
                "RL006",
                "RL007",
            ]
        """)
        config = load_config(pyproject=path)
        enabled = config.enabled_codes()
        assert "RL006" not in enabled and "RL007" not in enabled

    def test_bad_value_type_rejected(self, tmp_path):
        path = write_pyproject(tmp_path, """
            [tool.repro-lint]
            select = "RL001"
        """)
        with pytest.raises(LintError):
            load_config(pyproject=path)

    def test_unknown_code_in_file_rejected(self, tmp_path):
        path = write_pyproject(tmp_path, """
            [tool.repro-lint]
            select = ["RL999"]
        """)
        with pytest.raises(LintError):
            load_config(pyproject=path)

    def test_explicit_missing_file_rejected(self, tmp_path):
        with pytest.raises(LintError):
            load_config(pyproject=tmp_path / "nope.toml")

    def test_discovery_walks_upward(self, tmp_path):
        write_pyproject(tmp_path, """
            [tool.repro-lint]
            ignore = ["RL008"]
        """)
        nested = tmp_path / "src" / "pkg"
        nested.mkdir(parents=True)
        assert find_pyproject(nested) == tmp_path / "pyproject.toml"
        config = load_config(start=nested)
        assert "RL008" not in config.enabled_codes()

    def test_no_pyproject_anywhere_gives_defaults(self, tmp_path):
        # tmp_path has no pyproject and neither do its parents up to /tmp.
        config = load_config(start="/")
        assert config.enabled_codes() == LintConfig().enabled_codes()


class TestTomlSubsetFallback:
    """The 3.9/3.10 fallback parser must agree with tomllib on our subset."""

    SAMPLE = textwrap.dedent("""
        [project]
        name = "repro"

        [tool.repro-lint]
        select = ["RL001", "RL002"]  # trailing comment
        ignore = [
            "RL002",
        ]
        rng-modules = ['sim/rng.py']
        flag = true
        count = 3
    """)

    def test_parses_tables_and_arrays(self):
        tables = _parse_toml_subset(self.SAMPLE)
        table = tables["tool.repro-lint"]
        assert table["select"] == ["RL001", "RL002"]
        assert table["ignore"] == ["RL002"]
        assert table["rng-modules"] == ["sim/rng.py"]
        assert table["flag"] is True
        assert table["count"] == 3

    def test_matches_tomllib_when_available(self):
        tomllib = pytest.importorskip("tomllib")
        reference = tomllib.loads(self.SAMPLE)["tool"]["repro-lint"]
        fallback = _parse_toml_subset(self.SAMPLE)["tool.repro-lint"]
        assert fallback == reference
