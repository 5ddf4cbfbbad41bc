"""Rule data model and registry for the ``repro lint`` pass.

A rule is a small object with a stable code (``RL001`` ...), a
human-readable name, and a :meth:`Rule.check` method that inspects one
parsed module (a :class:`~repro.devtools.context.ModuleContext`) and
yields :class:`Finding` records.  Rules register themselves with the
module-level registry via the :func:`register` decorator, which is what
``--list-rules``, ``select``/``ignore`` config handling, and the test
suite iterate over.  The built-in rules (:mod:`repro.devtools.checks`
and :mod:`repro.devtools.analysis.flow_rules`) are imported on the
first registry read, so importing :mod:`repro.devtools` (for example
for telemetry) loads none of the linter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Tuple, Type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.devtools.analysis.project import ProjectModel
    from repro.devtools.context import ModuleContext

from repro.exceptions import ReproError


class LintError(ReproError):
    """Raised for unusable lint configuration or unparseable input."""


@dataclass(frozen=True)
class Finding:
    """One diagnostic anchored to a file position.

    ``line`` is 1-based and ``col`` 0-based, matching CPython's AST
    conventions; the text formatter prints ``col + 1`` so editors that
    expect 1-based columns jump to the right spot.
    """

    code: str
    message: str
    path: str
    line: int
    col: int = 0

    def anchor(self) -> str:
        """Return the ``path:line:col`` prefix used by the text format."""
        return f"{self.path}:{self.line}:{self.col + 1}"

    def to_dict(self) -> Dict[str, object]:
        """Serialise for the ``--format json`` output."""
        return {
            "code": self.code,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "col": self.col,
        }


class Rule:
    """Base class for lint rules; subclasses override :meth:`check`."""

    #: Stable identifier, e.g. ``"RL001"``.  Used in suppressions and config.
    code: str = ""
    #: Short kebab-case name, e.g. ``"unseeded-random"``.
    name: str = ""
    #: One-line description shown by ``--list-rules``.
    description: str = ""
    #: Project-wide rules set this to True and override
    #: :meth:`check_project`; the runner then hands them the whole-tree
    #: :class:`~repro.devtools.analysis.project.ProjectModel` so call
    #: graphs and gate checks can cross module boundaries.
    requires_project: bool = False

    def check(self, module: "ModuleContext") -> Iterator[Finding]:
        """Yield findings for one module; the base implementation is empty."""
        return iter(())

    def check_project(
        self, module: "ModuleContext", project: "ProjectModel"
    ) -> Iterator[Finding]:
        """Yield findings for one module given whole-project context.

        The default delegates to :meth:`check` so per-file rules work
        unchanged whichever entry point the runner uses.
        """
        return self.check(module)

    def finding(
        self, module: "ModuleContext", node: object, message: str
    ) -> Finding:
        """Build a :class:`Finding` anchored at an AST node's position."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            code=self.code,
            message=message,
            path=module.display_path,
            line=line,
            col=col,
        )


#: Registry of rule classes keyed by code, populated by :func:`register`.
_REGISTRY: Dict[str, Type[Rule]] = {}

__all__ = [
    "Finding",
    "LintError",
    "Rule",
    "all_rules",
    "get_rule",
    "register",
    "rule_codes",
]


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a :class:`Rule` subclass to the registry."""
    instance = cls()
    if not instance.code:
        raise LintError(f"rule {cls.__name__} has no code")
    if instance.code in _REGISTRY:
        raise LintError(f"duplicate rule code {instance.code}")
    _REGISTRY[instance.code] = cls
    return cls


def _registry() -> Dict[str, Type[Rule]]:
    """The registry, with the built-in rule modules imported."""
    from repro.devtools import checks  # noqa: F401  (registers rules)
    from repro.devtools.analysis import flow_rules  # noqa: F401

    return _REGISTRY


def all_rules() -> List[Rule]:
    """Instantiate every registered rule, sorted by code."""
    registry = _registry()
    return [registry[code]() for code in sorted(registry)]


def rule_codes() -> Tuple[str, ...]:
    """Return the sorted tuple of registered rule codes."""
    return tuple(sorted(_registry()))


def get_rule(code: str) -> Rule:
    """Look up one rule by code; raises :class:`LintError` if unknown."""
    registry = _registry()
    try:
        return registry[code]()
    except KeyError:
        raise LintError(
            f"unknown rule code {code!r}; known: {', '.join(sorted(registry))}"
        ) from None
