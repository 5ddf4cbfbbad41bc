"""SARIF 2.1.0 emission: structure, determinism, schema validity."""

from __future__ import annotations

import json

import pytest

from repro.devtools.analysis.sarif import (
    SARIF_SCHEMA,
    SARIF_VERSION,
    format_sarif,
    to_sarif,
)
from repro.devtools.rules import Finding, all_rules

#: The structural core of the OASIS SARIF 2.1.0 schema: every element
#: the emitter produces, with the spec's required properties and types.
#: Validating against the full multi-thousand-line schema would need a
#: network fetch; this subset pins the same constraints for our output
#: shape (and `additionalProperties` catches misspelled keys).
SARIF_CORE_SCHEMA = {
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "$schema": {"type": "string", "format": "uri"},
        "version": {"enum": ["2.1.0"]},
        "runs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["tool"],
                "additionalProperties": False,
                "properties": {
                    "columnKind": {
                        "enum": ["utf16CodeUnits", "unicodeCodePoints"]
                    },
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "informationUri": {
                                        "type": "string", "format": "uri",
                                    },
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                            "properties": {
                                                "id": {"type": "string"},
                                            },
                                        },
                                    },
                                },
                            },
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["message"],
                            "additionalProperties": False,
                            "properties": {
                                "ruleId": {"type": "string"},
                                "ruleIndex": {
                                    "type": "integer", "minimum": 0,
                                },
                                "level": {
                                    "enum": [
                                        "none", "note", "warning", "error",
                                    ]
                                },
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                    "properties": {
                                        "text": {"type": "string"},
                                    },
                                },
                                "locations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "properties": {
                                                    "artifactLocation": {
                                                        "type": "object",
                                                        "properties": {
                                                            "uri": {
                                                                "type":
                                                                "string",
                                                            },
                                                        },
                                                    },
                                                    "region": {
                                                        "type": "object",
                                                        "properties": {
                                                            "startLine": {
                                                                "type":
                                                                "integer",
                                                                "minimum": 1,
                                                            },
                                                            "startColumn": {
                                                                "type":
                                                                "integer",
                                                                "minimum": 1,
                                                            },
                                                        },
                                                    },
                                                },
                                            },
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}

FINDINGS = [
    Finding(
        code="RL013",
        message="item assignment to module-level state '_CACHE'",
        path="src/repro/sim/engine.py",
        line=42,
        col=7,
    ),
    Finding(
        code="RL001",
        message="unseeded generator",
        path="src/repro/core/greedy.py",
        line=3,
        col=0,
    ),
]


class TestSarifStructure:
    def test_document_shape(self):
        doc = to_sarif(FINDINGS)
        assert doc["version"] == SARIF_VERSION == "2.1.0"
        assert doc["$schema"] == SARIF_SCHEMA
        (run,) = doc["runs"]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        assert len(run["results"]) == 2

    def test_every_registered_rule_described(self):
        doc = to_sarif([])
        ids = [r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]]
        assert ids == [rule.code for rule in all_rules()]

    def test_rule_index_points_at_descriptor(self):
        doc = to_sarif(FINDINGS)
        run = doc["runs"][0]
        rules = run["tool"]["driver"]["rules"]
        for result in run["results"]:
            descriptor = rules[result["ruleIndex"]]
            assert descriptor["id"] == result["ruleId"]

    def test_locations_are_one_based(self):
        doc = to_sarif(FINDINGS)
        regions = [
            loc["physicalLocation"]["region"]
            for result in doc["runs"][0]["results"]
            for loc in result["locations"]
        ]
        assert {r["startLine"] for r in regions} == {42, 3}
        # col 0 in our model is column 1 in SARIF.
        assert {r["startColumn"] for r in regions} == {8, 1}

    def test_format_is_deterministic_json(self):
        first = format_sarif(FINDINGS)
        second = format_sarif(list(FINDINGS))
        assert first == second
        assert json.loads(first)["version"] == "2.1.0"


class TestSarifSchemaValidation:
    def test_validates_against_core_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(to_sarif(FINDINGS), SARIF_CORE_SCHEMA)

    def test_empty_findings_document_validates(self):
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(to_sarif([]), SARIF_CORE_SCHEMA)

    def test_real_tree_document_validates(self):
        jsonschema = pytest.importorskip("jsonschema")
        from pathlib import Path

        from repro.devtools.config import LintConfig
        from repro.devtools.runner import lint_paths

        package = (
            Path(__file__).resolve().parent.parent.parent / "src" / "repro"
        )
        findings = lint_paths(
            [package / "devtools" / "context.py"], LintConfig()
        )
        jsonschema.validate(to_sarif(findings), SARIF_CORE_SCHEMA)
