"""``[tool.repro-lint]`` configuration for the lint pass.

Configuration lives in ``pyproject.toml``::

    [tool.repro-lint]
    select = ["RL001", "RL002"]      # default: every registered rule
    ignore = ["RL007"]               # removed from the selection
    exclude = ["src/repro/_vendor/*"]  # fnmatch globs on /-paths
    rng-modules = ["sim/rng.py"]     # RL001's designated RNG module(s)

On Python ≥ 3.11 the stdlib :mod:`tomllib` parses the file; older
interpreters (the project floor is 3.9) fall back to a deliberately tiny
parser that understands exactly the subset above — one table header,
string/bool scalars and (possibly multi-line) string arrays — so the
linter carries zero third-party dependencies.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.devtools.rules import LintError, rule_codes

try:  # Python >= 3.11
    import tomllib as _toml
except ModuleNotFoundError:  # pragma: no cover - exercised on 3.9/3.10 CI
    _toml = None

_SECTION = "repro-lint"

#: Default RL001 allowance: only the stream-management module may touch
#: ``numpy.random.default_rng`` directly.
DEFAULT_RNG_MODULES: Tuple[str, ...] = ("sim/rng.py",)

#: Kernel scan modules whose policy/config attribute reads RL015 audits
#: against their eligibility gates.
DEFAULT_KERNEL_MODULES: Tuple[str, ...] = (
    "sim/kernel.py",
    "sim/network_kernel.py",
    "sim/batch_kernel.py",
)

#: Function names treated as eligibility gates inside kernel modules.
DEFAULT_KERNEL_GATES: Tuple[str, ...] = (
    "ineligibility_reason",
    "plan_or_reason",
    "policy_fast_paths",
)


class LintConfig:
    """Resolved lint configuration (defaults merged with pyproject)."""

    def __init__(
        self,
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None,
        exclude: Optional[Iterable[str]] = None,
        rng_modules: Optional[Iterable[str]] = None,
        kernel_modules: Optional[Iterable[str]] = None,
        kernel_gates: Optional[Iterable[str]] = None,
    ) -> None:
        known = rule_codes()
        self.select: Tuple[str, ...] = self._codes(select, known) or known
        self.ignore: Tuple[str, ...] = self._codes(ignore, known)
        self.exclude: Tuple[str, ...] = tuple(exclude or ())
        self.rng_modules: Tuple[str, ...] = tuple(
            rng_modules if rng_modules is not None else DEFAULT_RNG_MODULES
        )
        self.kernel_modules: Tuple[str, ...] = tuple(
            kernel_modules if kernel_modules is not None
            else DEFAULT_KERNEL_MODULES
        )
        self.kernel_gates: Tuple[str, ...] = tuple(
            kernel_gates if kernel_gates is not None
            else DEFAULT_KERNEL_GATES
        )

    @staticmethod
    def _codes(
        raw: Optional[Iterable[str]], known: Tuple[str, ...]
    ) -> Tuple[str, ...]:
        if raw is None:
            return ()
        codes = tuple(str(c).strip().upper() for c in raw)
        for code in codes:
            if code not in known:
                raise LintError(
                    f"unknown rule code {code!r} in configuration; "
                    f"known: {', '.join(known)}"
                )
        return codes

    def enabled_codes(self) -> Tuple[str, ...]:
        """Rule codes that are selected and not ignored."""
        return tuple(c for c in self.select if c not in self.ignore)

    def is_excluded(self, path: Union[str, Path]) -> bool:
        """True when ``path`` matches any ``exclude`` glob."""
        from fnmatch import fnmatch

        text = str(path).replace("\\", "/")
        return any(
            fnmatch(text, pattern) or fnmatch(text, "*/" + pattern)
            for pattern in self.exclude
        )

    def __repr__(self) -> str:  # pragma: no cover - debug cosmetic
        return (
            f"LintConfig(select={self.select!r}, ignore={self.ignore!r}, "
            f"exclude={self.exclude!r}, rng_modules={self.rng_modules!r})"
        )


def _parse_toml_subset(text: str) -> Dict[str, Dict[str, object]]:
    """Parse the tiny TOML subset the fallback path needs.

    Supports ``[table.headers]``, ``key = "string"`` / ``true`` /
    ``false`` / bare numbers, and string arrays that may span lines.
    Unrecognised constructs are skipped rather than rejected — this
    parser only ever feeds :func:`load_config`, which looks at one
    well-known table.
    """
    tables: Dict[str, Dict[str, object]] = {}
    current: Dict[str, object] = tables.setdefault("", {})
    pending_key: Optional[str] = None
    pending_items: List[str] = []

    def finish_array(chunk: str) -> bool:
        """Accumulate array items; True when the closing ``]`` was seen."""
        closed = "]" in chunk
        body = chunk.split("]", 1)[0]
        pending_items.extend(
            m.group(1) or m.group(2)
            for m in re.finditer(r'"([^"]*)"|\'([^\']*)\'', body)
        )
        return closed

    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip() if '"' not in raw_line \
            else raw_line.strip()
        if not line:
            continue
        if pending_key is not None:
            if finish_array(line):
                current[pending_key] = list(pending_items)
                pending_key, pending_items = None, []
            continue
        header = re.match(r"\[\s*([A-Za-z0-9_.\-\"']+)\s*\]\s*$", line)
        if header:
            name = header.group(1).replace('"', "").replace("'", "")
            current = tables.setdefault(name, {})
            continue
        keyval = re.match(r"([A-Za-z0-9_\-\"']+)\s*=\s*(.*)$", line)
        if not keyval:
            continue
        key = keyval.group(1).strip("\"'")
        value = keyval.group(2).strip()
        if value.startswith("["):
            pending_items = []
            if finish_array(value[1:]):
                current[key] = list(pending_items)
                pending_items = []
            else:
                pending_key = key
            continue
        string = re.match(r'"([^"]*)"|\'([^\']*)\'', value)
        if string:
            current[key] = string.group(1) or string.group(2) or ""
        elif value in ("true", "false"):
            current[key] = value == "true"
        else:
            try:
                current[key] = float(value) if "." in value else int(value)
            except ValueError:
                pass
    return tables


def _read_tool_table(pyproject: Path) -> Dict[str, object]:
    """Extract the ``[tool.repro-lint]`` table from a pyproject file."""
    text = pyproject.read_text(encoding="utf-8")
    if _toml is not None:
        try:
            data = _toml.loads(text)
        except _toml.TOMLDecodeError as exc:
            raise LintError(f"{pyproject}: invalid TOML: {exc}") from exc
        tool = data.get("tool", {})
        table = tool.get(_SECTION, {}) if isinstance(tool, dict) else {}
        return dict(table) if isinstance(table, dict) else {}
    tables = _parse_toml_subset(text)
    return dict(tables.get(f"tool.{_SECTION}", {}))


def find_pyproject(start: Union[str, Path]) -> Optional[Path]:
    """Walk upward from ``start`` looking for a ``pyproject.toml``."""
    here = Path(start).resolve()
    if here.is_file():
        here = here.parent
    for candidate in (here, *here.parents):
        pyproject = candidate / "pyproject.toml"
        if pyproject.is_file():
            return pyproject
    return None


def load_config(
    pyproject: Optional[Union[str, Path]] = None,
    start: Optional[Union[str, Path]] = None,
) -> LintConfig:
    """Build a :class:`LintConfig` from ``pyproject.toml``.

    ``pyproject`` names the file explicitly; otherwise the nearest
    ``pyproject.toml`` above ``start`` (default: the current directory)
    is used.  A missing file or missing table yields pure defaults.
    """
    path: Optional[Path]
    if pyproject is not None:
        path = Path(pyproject)
        if not path.is_file():
            raise LintError(f"config file not found: {path}")
    else:
        path = find_pyproject(start if start is not None else Path.cwd())
    if path is None:
        return LintConfig()
    table = _read_tool_table(path)

    def strings(key: str) -> Optional[List[str]]:
        value = table.get(key, table.get(key.replace("-", "_")))
        if value is None:
            return None
        if not isinstance(value, list) or not all(
            isinstance(item, str) for item in value
        ):
            raise LintError(
                f"[tool.{_SECTION}] {key} must be an array of strings"
            )
        return list(value)

    return LintConfig(
        select=strings("select"),
        ignore=strings("ignore"),
        exclude=strings("exclude"),
        rng_modules=strings("rng-modules"),
        kernel_modules=strings("kernel-modules"),
        kernel_gates=strings("kernel-gates"),
    )
