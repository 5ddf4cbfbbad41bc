"""The domain rules behind ``repro lint`` (RL001–RL010).

Each rule encodes one invariant the reproduction's correctness rests on;
see the module docstrings referenced from README's "Static analysis &
reproducibility invariants" section for the rationale.  Rules are
registered on import via :func:`repro.devtools.rules.register`.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Sequence, Set, Tuple, Union

from repro.devtools.context import ModuleContext
from repro.devtools.rules import Finding, Rule, register

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Legacy ``numpy.random.*`` module-level samplers and state mutators.
#: Calling any of these uses (or reseeds) numpy's hidden global
#: RandomState, which breaks stream isolation between subsystems.
_LEGACY_NP_RANDOM = frozenset({
    "beta", "binomial", "bytes", "chisquare", "choice", "dirichlet",
    "exponential", "f", "gamma", "geometric", "get_state", "gumbel",
    "hypergeometric", "laplace", "logistic", "lognormal", "logseries",
    "multinomial", "multivariate_normal", "negative_binomial",
    "noncentral_chisquare", "noncentral_f", "normal", "pareto",
    "permutation", "poisson", "power", "rand", "randint", "randn",
    "random", "random_integers", "random_sample", "ranf", "rayleigh",
    "sample", "seed", "set_state", "shuffle", "standard_cauchy",
    "standard_exponential", "standard_gamma", "standard_normal",
    "standard_t", "triangular", "uniform", "vonmises", "wald",
    "weibull", "zipf",
})

#: ``numpy.random`` generator, legacy-state and bit-generator classes.
#: Building any of these directly bypasses the seeding discipline just
#: like ``default_rng`` does, so only the RNG module(s) may call them.
_NP_RANDOM_CONSTRUCTORS = frozenset({
    "default_rng", "Generator", "RandomState", "PCG64", "PCG64DXSM",
    "MT19937", "Philox", "SFC64",
})

#: Parameter names that satisfy RL001's "stochastic functions must let the
#: caller control the stream" requirement.
_SEED_PARAM_NAMES = frozenset({
    "seed", "base_seed", "rng", "seeds", "rngs", "random_state",
})


def _function_params(node: FunctionNode) -> Set[str]:
    """Collect every parameter name of a function definition."""
    args = node.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    if args.vararg is not None:
        names.add(args.vararg.arg)
    if args.kwarg is not None:
        names.add(args.kwarg.arg)
    return names


@register
class UnseededRandomRule(Rule):
    """RL001 — all randomness flows through :mod:`repro.sim.rng`.

    Flags stdlib ``random`` usage, legacy ``numpy.random.<dist>`` calls,
    and direct generator construction (``default_rng``, ``Generator``,
    ``RandomState`` and the bit generators) outside the designated RNG
    module(s); additionally, public functions that construct generators
    must accept a ``seed``/``rng`` parameter so callers control the
    stream.
    """

    code = "RL001"
    name = "unseeded-random"
    description = (
        "randomness must be seeded and threaded through repro.sim.rng"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        in_rng_module = module.path_matches(module.config_rng_modules)
        for node in module.walk():
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield from self._check_import(module, node)
            elif isinstance(node, ast.Call):
                yield from self._check_call(module, node, in_rng_module)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(module, node, in_rng_module)

    def _check_import(
        self, module: ModuleContext, node: Union[ast.Import, ast.ImportFrom]
    ) -> Iterator[Finding]:
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif node.module is not None and not node.level:
            modules = [node.module]
        else:
            modules = []
        for name in modules:
            if name == "random" or name.startswith("random."):
                yield self.finding(
                    module, node,
                    "stdlib 'random' is unseeded global state; use "
                    "repro.sim.rng.make_rng / spawn instead",
                )

    def _check_call(
        self, module: ModuleContext, node: ast.Call, in_rng_module: bool
    ) -> Iterator[Finding]:
        qual = module.imports.qualname(node.func)
        if qual is None:
            return
        if qual.startswith("random."):
            yield self.finding(
                module, node,
                f"call to stdlib {qual}() uses unseeded global state; "
                "use repro.sim.rng.make_rng / spawn instead",
            )
            return
        prefix, _, attr = qual.rpartition(".")
        if prefix != "numpy.random":
            return
        if attr in _NP_RANDOM_CONSTRUCTORS:
            if not in_rng_module:
                detail = (
                    f"unseeded {qual}()" if not node.args
                    and not node.keywords else f"{qual}(...)"
                )
                yield self.finding(
                    module, node,
                    f"{detail} outside the RNG module; call "
                    "repro.sim.rng.make_rng(seed) so streams stay "
                    "reproducible",
                )
        elif attr in _LEGACY_NP_RANDOM:
            yield self.finding(
                module, node,
                f"legacy numpy.random.{attr}() draws from the hidden "
                "global RandomState; use a Generator from "
                "repro.sim.rng instead",
            )

    def _check_function(
        self, module: ModuleContext, node: FunctionNode, in_rng_module: bool
    ) -> Iterator[Finding]:
        if in_rng_module or node.name.startswith("_"):
            return
        if _function_params(node) & _SEED_PARAM_NAMES:
            return
        for inner in ast.walk(node):
            if not isinstance(inner, ast.Call):
                continue
            qual = module.imports.qualname(inner.func)
            is_make_rng = (
                isinstance(inner.func, ast.Name)
                and inner.func.id == "make_rng"
            ) or (qual is not None and qual.endswith(".make_rng"))
            if is_make_rng or qual == "numpy.random.default_rng":
                yield self.finding(
                    module, node,
                    f"stochastic public function {node.name!r} constructs "
                    "a generator but accepts no seed/rng parameter; the "
                    "caller must be able to control the stream",
                )
                return


def _is_floatish(node: ast.AST) -> bool:
    """True when an expression is statically known to be a float."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.UnaryOp):
        return _is_floatish(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_floatish(node.left) or _is_floatish(node.right)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id == "float":
            return True
        if isinstance(func, ast.Attribute) and func.attr in (
            "float64", "float32", "float16",
        ):
            return True
    return False


@register
class FloatEqualityRule(Rule):
    """RL002 — no ``==``/``!=`` against floats.

    Exact float comparison silently depends on rounding behaviour that
    varies across numpy versions and platforms; use ``math.isclose``,
    ``numpy.isclose``, or an order comparison against the sentinel.
    """

    code = "RL002"
    name = "float-equality"
    description = "no ==/!= comparisons involving floats"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in module.walk():
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[i], operands[i + 1]
                if _is_floatish(left) or _is_floatish(right):
                    yield self.finding(
                        module, node,
                        "float equality comparison; use math.isclose / "
                        "numpy.isclose or an order comparison against the "
                        "sentinel value",
                    )
                    break


_MUTABLE_CONSTRUCTORS = frozenset({
    "list", "dict", "set", "bytearray",
    "collections.defaultdict", "collections.OrderedDict",
    "collections.deque", "collections.Counter",
    "numpy.array", "numpy.zeros", "numpy.ones", "numpy.empty",
})


@register
class MutableDefaultRule(Rule):
    """RL003 — no mutable default arguments.

    A mutable default is shared across calls, so one caller's mutation
    leaks into every later call — a classic source of irreproducible
    results.
    """

    code = "RL003"
    name = "mutable-default"
    description = "no mutable default argument values"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in module.walk():
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(module, default):
                    yield self.finding(
                        module, default,
                        f"mutable default argument in {node.name!r}; "
                        "default to None and construct inside the body",
                    )

    @staticmethod
    def _is_mutable(module: ModuleContext, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                if node.func.id in _MUTABLE_CONSTRUCTORS:
                    return True
            qual = module.imports.qualname(node.func)
            if qual is not None and qual in _MUTABLE_CONSTRUCTORS:
                return True
        return False


#: Callables whose probability-vector keyword must be validated.
_PROB_SINKS = frozenset({"choice", "multinomial"})
_PROB_KEYWORDS = frozenset({"p", "pvals"})


@register
class PmfValidationRule(Rule):
    """RL004 — probability arrays pass through ``validate_pmf`` first.

    Probability vectors handed to samplers (``Generator.choice(p=...)``,
    ``multinomial(pvals=...)``) must be wrapped in
    :func:`repro.events.base.validate_pmf` at the call site, and the
    cached ``_alpha`` pmf slot may only be written by the validating
    base class.
    """

    code = "RL004"
    name = "unvalidated-pmf"
    description = "probability arrays must pass through validate_pmf"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        allowed_alpha = module.path_matches(("events/base.py",))
        for node in module.walk():
            if isinstance(node, ast.Call):
                yield from self._check_sink(module, node)
            elif isinstance(node, ast.Assign) and not allowed_alpha:
                yield from self._check_alpha_write(module, node)

    def _check_sink(
        self, module: ModuleContext, node: ast.Call
    ) -> Iterator[Finding]:
        if not isinstance(node.func, ast.Attribute):
            return
        if node.func.attr not in _PROB_SINKS:
            return
        for keyword in node.keywords:
            if keyword.arg not in _PROB_KEYWORDS:
                continue
            if not self._is_validated(keyword.value):
                yield self.finding(
                    module, keyword.value,
                    f"probability vector passed to {node.func.attr}"
                    f"({keyword.arg}=...) without validate_pmf(); wrap the "
                    "argument so mass and sign errors fail loudly",
                )

    @staticmethod
    def _is_validated(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Name):
            return func.id == "validate_pmf"
        return isinstance(func, ast.Attribute) and func.attr == "validate_pmf"

    def _check_alpha_write(
        self, module: ModuleContext, node: ast.Assign
    ) -> Iterator[Finding]:
        for target in node.targets:
            if isinstance(target, ast.Attribute) and target.attr == "_alpha":
                yield self.finding(
                    module, node,
                    "direct write to the cached pmf slot '_alpha' bypasses "
                    "base-class validation; go through the validating "
                    "'alpha' property",
                )


@register
class OverbroadExceptRule(Rule):
    """RL005 — no bare/overbroad ``except`` that can swallow ReproError.

    ``except:``, ``except Exception:`` and ``except BaseException:``
    absorb the library's own error channel; a handler is only allowed
    when it visibly re-raises.
    """

    code = "RL005"
    name = "overbroad-except"
    description = "no bare/overbroad except that swallows ReproError"

    _BROAD = frozenset({"Exception", "BaseException"})

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in module.walk():
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = self._broad_name(node.type)
            if broad is None:
                continue
            if self._reraises(node):
                continue
            label = "bare except" if broad == "" else f"except {broad}"
            yield self.finding(
                module, node,
                f"{label} swallows ReproError; catch a narrower type or "
                "re-raise",
            )

    def _broad_name(self, type_node: Optional[ast.AST]) -> Optional[str]:
        """Return '' for bare except, the name for broad types, else None."""
        if type_node is None:
            return ""
        names: Sequence[ast.AST]
        if isinstance(type_node, ast.Tuple):
            names = type_node.elts
        else:
            names = [type_node]
        for name in names:
            if isinstance(name, ast.Name) and name.id in self._BROAD:
                return name.id
        return None

    @staticmethod
    def _reraises(handler: ast.ExceptHandler) -> bool:
        for inner in ast.walk(handler):
            if isinstance(inner, ast.Raise):
                return True
        return False


@register
class FutureAnnotationsRule(Rule):
    """RL006 — every module opts into postponed annotation evaluation.

    ``from __future__ import annotations`` keeps annotations lazy, so
    the 3.9 floor and modern ``X | Y`` syntax coexist and importing a
    module never evaluates heavy annotation expressions.
    """

    code = "RL006"
    name = "missing-future-annotations"
    description = "modules must import annotations from __future__"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        body = module.tree.body
        if not body:
            return
        for node in body:
            if (isinstance(node, ast.ImportFrom)
                    and node.module == "__future__"
                    and any(a.name == "annotations" for a in node.names)):
                return
        yield Finding(
            code=self.code,
            message="module lacks 'from __future__ import annotations'",
            path=module.display_path,
            line=1,
        )


@register
class ExportedDocstringRule(Rule):
    """RL007 — everything a module exports via ``__all__`` is documented."""

    code = "RL007"
    name = "undocumented-export"
    description = "public functions/classes in __all__ need docstrings"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        exported = self._exported_names(module.tree)
        if not exported:
            return
        for node in module.tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            if node.name in exported and ast.get_docstring(node) is None:
                kind = "class" if isinstance(node, ast.ClassDef) else "function"
                yield self.finding(
                    module, node,
                    f"{kind} {node.name!r} is exported via __all__ but has "
                    "no docstring",
                )

    @staticmethod
    def _exported_names(tree: ast.Module) -> Set[str]:
        names: Set[str] = set()
        for node in tree.body:
            if not isinstance(node, ast.Assign):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id == "__all__":
                    if isinstance(node.value, (ast.List, ast.Tuple)):
                        for elt in node.value.elts:
                            if (isinstance(elt, ast.Constant)
                                    and isinstance(elt.value, str)):
                                names.add(elt.value)
        return names


@register
class AssertValidationRule(Rule):
    """RL008 — no ``assert`` for validation in library code.

    ``python -O`` strips asserts, so any input check written as an
    assert silently vanishes in optimised runs; raise a
    :class:`~repro.exceptions.ReproError` subclass instead.
    """

    code = "RL008"
    name = "assert-validation"
    description = "raise ReproError subclasses instead of assert"

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in module.walk():
            if isinstance(node, ast.Assert):
                yield self.finding(
                    module, node,
                    "assert is stripped under 'python -O'; raise a "
                    "ReproError subclass for validation",
                )


def _mentions_seed_name(node: ast.AST) -> bool:
    """True when an expression's subtree references a seed-ish variable."""
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name) and "seed" in inner.id.lower():
            return True
        if isinstance(inner, ast.Attribute) and "seed" in inner.attr.lower():
            return True
    return False


@register
class SeedArithmeticRule(Rule):
    """RL009 — no arithmetic seed derivation at call sites.

    Deriving per-point seeds as ``seed + idx`` (or any other arithmetic
    on a seed variable) collides whenever two base seeds differ by less
    than the sweep length — e.g. ``run(seed=1)`` point 5 replays
    ``run(seed=0)`` point 6 — silently correlating runs that must be
    independent.  ``repro.sim.rng.spawn_seeds`` derives children through
    ``SeedSequence.spawn``, which guarantees distinct, independent
    streams for every (base seed, index) pair.
    """

    code = "RL009"
    name = "seed-arithmetic"
    description = (
        "derive child seeds via repro.sim.rng.spawn_seeds, not arithmetic"
    )

    _SEED_KWARGS = frozenset({"seed", "base_seed"})

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in module.walk():
            if not isinstance(node, ast.Call):
                continue
            for kw in node.keywords:
                if (
                    kw.arg in self._SEED_KWARGS
                    and isinstance(kw.value, ast.BinOp)
                    and _mentions_seed_name(kw.value)
                ):
                    yield self.finding(
                        module, kw.value,
                        f"arithmetic seed derivation passed as {kw.arg!r} "
                        "can collide across runs; derive child seeds with "
                        "repro.sim.rng.spawn_seeds",
                    )


def _len_list_param(
    node: ast.AST, params: Set[str]
) -> Optional[ast.Name]:
    """The parameter Name inside a ``len(list(param))`` call, if any."""
    if not (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "len"
        and len(node.args) == 1
        and not node.keywords
    ):
        return None
    inner = node.args[0]
    if (
        isinstance(inner, ast.Call)
        and isinstance(inner.func, ast.Name)
        and inner.func.id == "list"
        and len(inner.args) == 1
        and not inner.keywords
        and isinstance(inner.args[0], ast.Name)
        and inner.args[0].id in params
    ):
        return inner.args[0]
    return None


@register
class GeneratorExhaustionRule(Rule):
    """RL010 — no ``len(list(param))`` on a parameter iterated again.

    ``len(list(x))`` silently *consumes* ``x`` when the caller passed a
    generator: the ``list()`` drains it for the count and throws the
    elements away, so every later iteration of ``x`` in the same
    function sees an empty stream and the function returns an empty (or
    truncated) result with no error — the ``capacity_profile`` bug.
    Materialize the parameter once at function entry
    (``x = list(x)``) and take ``len`` of the materialized copy.
    """

    code = "RL010"
    name = "generator-exhaustion"
    description = (
        "len(list(param)) exhausts generator inputs; materialize the "
        "parameter once at entry and reuse it"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for fn in module.walk():
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = _function_params(fn)
            if not params:
                continue
            suspects = []
            for sub in ast.walk(fn):
                inner = _len_list_param(sub, params)
                if inner is not None:
                    suspects.append((sub, inner))
            if not suspects:
                continue
            names = {inner.id for _, inner in suspects}
            loads: dict = {name: [] for name in names}
            for sub in ast.walk(fn):
                if (
                    isinstance(sub, ast.Name)
                    and isinstance(sub.ctx, ast.Load)
                    and sub.id in loads
                ):
                    loads[sub.id].append(sub)
            for call, inner in suspects:
                if any(n is not inner for n in loads[inner.id]):
                    yield self.finding(
                        module, call,
                        f"len(list({inner.id})) consumes the parameter "
                        f"{inner.id!r} when it is a generator, and the "
                        "function iterates it again — materialize once "
                        f"at entry ({inner.id} = list({inner.id})) and "
                        "reuse the copy",
                    )


#: Kept for introspection/tests: the full tuple of rule classes here.
ALL_CHECKS: Tuple[type, ...] = (
    UnseededRandomRule,
    FloatEqualityRule,
    MutableDefaultRule,
    PmfValidationRule,
    OverbroadExceptRule,
    FutureAnnotationsRule,
    ExportedDocstringRule,
    AssertValidationRule,
    SeedArithmeticRule,
    GeneratorExhaustionRule,
)
