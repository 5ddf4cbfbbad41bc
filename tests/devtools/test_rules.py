"""Per-rule fixture tests for the repro lint pass.

Every rule gets at least one positive fixture (must flag) and one
negative fixture (must stay silent); fixtures are inline source
snippets linted in isolation with only the rule under test selected,
so unrelated rules (e.g. RL006's future-import requirement) never
contaminate an assertion.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.devtools.config import LintConfig
from repro.devtools.rules import LintError, all_rules, get_rule
from repro.devtools.runner import lint_paths, lint_source


def run_rule(code, source, path="pkg/module.py"):
    """Lint ``source`` with only ``code`` enabled; return finding codes."""
    config = LintConfig(select=[code])
    findings = lint_source(textwrap.dedent(source), path=path, config=config)
    return [f.code for f in findings]


class TestRegistry:
    def test_registered_rule_codes(self):
        codes = [rule.code for rule in all_rules()]
        assert codes == [f"RL{i:03d}" for i in (*range(1, 11), 13, 15)]

    def test_rules_have_names_and_descriptions(self):
        for rule in all_rules():
            assert rule.name, rule.code
            assert rule.description, rule.code

    def test_get_rule_unknown_code(self):
        with pytest.raises(LintError):
            get_rule("RL999")


class TestRL001UnseededRandom:
    def test_flags_unseeded_default_rng(self):
        src = """
            import numpy as np
            gen = np.random.default_rng()
        """
        assert run_rule("RL001", src) == ["RL001"]

    def test_flags_default_rng_under_alias(self):
        src = """
            import numpy
            gen = numpy.random.default_rng(42)
        """
        assert run_rule("RL001", src) == ["RL001"]

    def test_flags_stdlib_random_import_and_call(self):
        src = """
            import random
            x = random.random()
        """
        assert run_rule("RL001", src) == ["RL001", "RL001"]

    def test_flags_legacy_np_random_sampler(self):
        src = """
            import numpy as np
            np.random.seed(0)
            x = np.random.normal(0.0, 1.0)
        """
        assert run_rule("RL001", src) == ["RL001", "RL001"]

    def test_flags_public_function_without_seed_param(self):
        src = """
            from repro.sim.rng import make_rng

            def sample_things(n):
                rng = make_rng(0)
                return rng.random(n)
        """
        assert "RL001" in run_rule("RL001", src)

    def test_allows_rng_module_itself(self):
        src = """
            import numpy as np

            def make_rng(seed=None):
                return np.random.default_rng(seed)
        """
        assert run_rule("RL001", src, path="src/repro/sim/rng.py") == []

    def test_allows_seed_threading(self):
        src = """
            from repro.sim.rng import make_rng

            def simulate(horizon, seed=None):
                rng = make_rng(seed)
                return rng.random(horizon)
        """
        assert run_rule("RL001", src) == []

    def test_allows_generator_parameter_use(self):
        src = """
            def draw(rng, n):
                return rng.random(n)
        """
        assert run_rule("RL001", src) == []

    def test_ignores_local_variable_shadowing_numpy(self):
        src = """
            def f(random):
                return random.random()
        """
        assert run_rule("RL001", src) == []


def flagged_lines(code, source, path="pkg/module.py"):
    """Lines ``code`` fires on when it alone lints ``source``."""
    config = LintConfig(select=[code])
    findings = lint_source(textwrap.dedent(source), path=path, config=config)
    return sorted({f.line for f in findings if f.code == code})


class TestRL001GeneratorConstruction:
    """Every direct generator construction fires where it is written.

    These are the fixture shapes a flow-sensitive provenance rule once
    tracked to their use sites; flagging the construction itself covers
    each of them, including the ones that hide the generator behind a
    branch, a helper or a module boundary.
    """

    def test_untrusted_draw_flagged(self):
        src = """
            import numpy as np
            def run():
                g = np.random.default_rng(0)
                return g.random()
        """
        assert 4 in flagged_lines("RL001", src)

    def test_branch_join_flagged(self):
        src = """
            import numpy as np
            from repro.sim.rng import make_rng
            def run(seed, flag):
                if flag:
                    g = make_rng(seed)
                else:
                    g = np.random.default_rng()
                return g.random()
        """
        assert 8 in flagged_lines("RL001", src)

    def test_laundering_helper_flagged(self):
        src = """
            import numpy as np
            def _hidden():
                return np.random.default_rng()
            def run():
                g = _hidden()
                return g.random()
        """
        assert 4 in flagged_lines("RL001", src)

    def test_raw_generator_constructor_flagged(self):
        src = """
            import numpy as np
            def run():
                g = np.random.Generator(np.random.PCG64(1))
                return g.normal()
        """
        assert 4 in flagged_lines("RL001", src)

    def test_random_state_flagged(self):
        src = """
            from numpy.random import RandomState
            def run():
                return RandomState(3).normal()
        """
        assert 4 in flagged_lines("RL001", src)

    @pytest.mark.parametrize(
        "ctor", ["PCG64DXSM", "MT19937", "Philox", "SFC64"]
    )
    def test_bit_generators_flagged(self, ctor):
        src = f"""
            import numpy as np
            bits = np.random.{ctor}(7)
        """
        assert run_rule("RL001", src) == ["RL001"]

    def test_cross_module_chain_flagged_at_origin(self, tmp_path):
        root = tmp_path / "proj"
        root.mkdir()
        (root / "__init__.py").write_text("")
        (root / "alpha.py").write_text(textwrap.dedent("""
            import numpy as np

            def fresh(seed):
                return np.random.default_rng()
        """))
        (root / "beta.py").write_text(textwrap.dedent("""
            from proj.alpha import fresh

            def run(seed):
                g = fresh(seed)
                return g.random()
        """))
        findings = lint_paths([root], LintConfig(select=["RL001"]))
        # The chain is cut where the generator is built.
        assert [(f.code, f.path.rsplit("/", 1)[-1]) for f in findings] == [
            ("RL001", "alpha.py")
        ]

    def test_trusted_parameter_and_spawn_are_clean(self):
        src = """
            def run(rng):
                children = rng.spawn(3)
                return [c.random() for c in children]
        """
        assert run_rule("RL001", src) == []

    def test_rng_module_may_construct(self):
        src = """
            import numpy as np
            def make_rng(seed):
                return np.random.Generator(np.random.PCG64(seed))
        """
        assert run_rule("RL001", src, path="proj/sim/rng.py") == []

    def test_suppression_comment_silences(self):
        src = """
            import numpy as np
            def run(seed):
                g = np.random.default_rng(0)  # repro-lint: disable=RL001
                return g.random()
        """
        assert run_rule("RL001", src) == []


class TestRL002FloatEquality:
    def test_flags_float_literal_equality(self):
        assert run_rule("RL002", "ok = x == 1.0\n") == ["RL002"]

    def test_flags_not_equal_and_float_call(self):
        src = """
            a = y != 0.5
            b = float(z) == w
        """
        assert run_rule("RL002", src) == ["RL002", "RL002"]

    def test_flags_negative_float_literal(self):
        assert run_rule("RL002", "flag = x == -0.0\n") == ["RL002"]

    def test_allows_integer_equality(self):
        assert run_rule("RL002", "ok = n == 0\n") == []

    def test_allows_order_comparisons(self):
        assert run_rule("RL002", "ok = x >= 1.0\n") == []

    def test_allows_isclose(self):
        src = """
            import numpy as np
            ok = np.isclose(x, 1.0)
        """
        assert run_rule("RL002", src) == []


class TestRL003MutableDefault:
    def test_flags_list_literal_default(self):
        src = """
            def collect(items=[]):
                return items
        """
        assert run_rule("RL003", src) == ["RL003"]

    def test_flags_dict_call_and_kwonly_default(self):
        src = """
            def configure(opts=dict(), *, extras={}):
                return opts, extras
        """
        assert run_rule("RL003", src) == ["RL003", "RL003"]

    def test_flags_numpy_array_default(self):
        src = """
            import numpy as np

            def run(weights=np.zeros(3)):
                return weights
        """
        assert run_rule("RL003", src) == ["RL003"]

    def test_allows_none_default(self):
        src = """
            def collect(items=None):
                if items is None:
                    items = []
                return items
        """
        assert run_rule("RL003", src) == []

    def test_allows_immutable_defaults(self):
        src = """
            def f(a=1, b=(1, 2), c="x", d=frozenset()):
                return a, b, c, d
        """
        assert run_rule("RL003", src) == []


class TestRL004PmfValidation:
    def test_flags_unvalidated_choice_p(self):
        src = """
            def pick(rng, values, probs):
                return rng.choice(values, p=probs)
        """
        assert run_rule("RL004", src) == ["RL004"]

    def test_flags_unvalidated_multinomial_pvals(self):
        src = """
            def roll(rng, n, probs):
                return rng.multinomial(n, pvals=probs)
        """
        assert run_rule("RL004", src) == ["RL004"]

    def test_flags_direct_alpha_write_outside_base(self):
        src = """
            class Custom:
                def warm(self, pmf):
                    self._alpha = pmf
        """
        assert run_rule("RL004", src) == ["RL004"]

    def test_allows_validated_choice(self):
        src = """
            from repro.events.base import validate_pmf

            def pick(rng, values, probs):
                return rng.choice(values, p=validate_pmf(probs))
        """
        assert run_rule("RL004", src) == []

    def test_allows_alpha_write_in_base_module(self):
        src = """
            class InterArrivalDistribution:
                def _cache(self, pmf):
                    self._alpha = pmf
        """
        assert run_rule("RL004", src, path="src/repro/events/base.py") == []


class TestRL005OverbroadExcept:
    def test_flags_bare_except(self):
        src = """
            try:
                work()
            except:
                pass
        """
        assert run_rule("RL005", src) == ["RL005"]

    def test_flags_except_exception_swallow(self):
        src = """
            try:
                work()
            except Exception as exc:
                log(exc)
        """
        assert run_rule("RL005", src) == ["RL005"]

    def test_flags_broad_type_in_tuple(self):
        src = """
            try:
                work()
            except (ValueError, Exception):
                pass
        """
        assert run_rule("RL005", src) == ["RL005"]

    def test_allows_reraising_handler(self):
        src = """
            try:
                work()
            except Exception:
                cleanup()
                raise
        """
        assert run_rule("RL005", src) == []

    def test_allows_narrow_except(self):
        src = """
            try:
                work()
            except ValueError:
                pass
        """
        assert run_rule("RL005", src) == []


class TestRL006FutureAnnotations:
    def test_flags_missing_future_import(self):
        assert run_rule("RL006", "x = 1\n") == ["RL006"]

    def test_allows_present_future_import(self):
        src = """
            from __future__ import annotations

            x = 1
        """
        assert run_rule("RL006", src) == []

    def test_skips_empty_module(self):
        assert run_rule("RL006", "") == []


class TestRL007ExportedDocstring:
    def test_flags_undocumented_export(self):
        src = """
            __all__ = ["solve"]

            def solve():
                return 1
        """
        assert run_rule("RL007", src) == ["RL007"]

    def test_flags_undocumented_exported_class(self):
        src = """
            __all__ = ["Solver"]

            class Solver:
                pass
        """
        assert run_rule("RL007", src) == ["RL007"]

    def test_allows_documented_exports(self):
        src = """
            __all__ = ["solve"]

            def solve():
                \"\"\"Solve the thing.\"\"\"
                return 1
        """
        assert run_rule("RL007", src) == []

    def test_ignores_names_not_in_all(self):
        src = """
            __all__ = ["solve"]

            def helper():
                return 1

            def solve():
                \"\"\"Documented.\"\"\"
                return helper()
        """
        assert run_rule("RL007", src) == []

    def test_ignores_reexports(self):
        src = """
            from pkg.impl import solve

            __all__ = ["solve"]
        """
        assert run_rule("RL007", src) == []


class TestRL008AssertValidation:
    def test_flags_assert(self):
        src = """
            def set_rate(rate):
                assert rate >= 0, "rate must be non-negative"
        """
        assert run_rule("RL008", src) == ["RL008"]

    def test_allows_raising_repro_error(self):
        src = """
            from repro.exceptions import EnergyError

            def set_rate(rate):
                if rate < 0:
                    raise EnergyError(f"rate must be >= 0, got {rate}")
        """
        assert run_rule("RL008", src) == []


class TestRL009SeedArithmetic:
    def test_flags_seed_plus_index(self):
        src = """
            for idx, point in enumerate(points):
                simulate(point, seed=seed + idx)
        """
        assert run_rule("RL009", src) == ["RL009"]

    def test_flags_multiplicative_derivation(self):
        src = "run(seed=base_seed + 1000 * idx + k_idx)\n"
        assert run_rule("RL009", src) == ["RL009"]

    def test_flags_base_seed_keyword(self):
        src = "replicate(fn, 8, base_seed=seed * 2)\n"
        assert run_rule("RL009", src) == ["RL009"]

    def test_flags_attribute_seed(self):
        src = "simulate(point, seed=config.seed + idx)\n"
        assert run_rule("RL009", src) == ["RL009"]

    def test_silent_on_spawned_seeds(self):
        src = """
            from repro.sim.rng import spawn_seeds
            for point, child in zip(points, spawn_seeds(seed, len(points))):
                simulate(point, seed=child)
        """
        assert run_rule("RL009", src) == []

    def test_silent_on_plain_seed_passthrough(self):
        src = "simulate(point, seed=seed)\n"
        assert run_rule("RL009", src) == []

    def test_silent_on_arithmetic_without_seed_operand(self):
        src = "simulate(point, seed=2 * idx + 1)\n"
        assert run_rule("RL009", src) == []

    def test_silent_on_seed_arithmetic_elsewhere(self):
        # Only call-site seed keywords are flagged; unrelated arithmetic
        # on a variable that merely contains "seed" is fine.
        src = "offset = seed + 1\n"
        assert run_rule("RL009", src) == []

    def test_suppressible(self):
        src = "simulate(point, seed=seed + idx)  # repro-lint: disable=RL009\n"
        assert run_rule("RL009", src) == []


class TestRL010GeneratorExhaustion:
    def test_flags_len_list_param_reiterated(self):
        src = """
            def profile(capacities):
                seeds = spawn_seeds(0, len(list(capacities)))
                return [run(c, s) for c, s in zip(capacities, seeds)]
        """
        assert run_rule("RL010", src) == ["RL010"]

    def test_flags_reiteration_before_the_len(self):
        src = """
            def f(items):
                first = max(items)
                return first, len(list(items))
        """
        assert run_rule("RL010", src) == ["RL010"]

    def test_silent_when_materialized_at_entry(self):
        src = """
            def profile(capacities):
                capacities = list(capacities)
                seeds = spawn_seeds(0, len(capacities))
                return [run(c, s) for c, s in zip(capacities, seeds)]
        """
        assert run_rule("RL010", src) == []

    def test_silent_without_reiteration(self):
        src = """
            def count_items(items):
                return len(list(items))
        """
        assert run_rule("RL010", src) == []

    def test_silent_on_non_parameter(self):
        src = """
            def f(n):
                xs = range(n)
                total = len(list(xs))
                return total, [x for x in xs]
        """
        assert run_rule("RL010", src) == []

    def test_suppressible(self):
        src = """
            def f(items):
                n = len(list(items))  # repro-lint: disable=RL010
                return n, [x for x in items]
        """
        assert run_rule("RL010", src) == []


class TestSuppressions:
    def test_inline_disable_silences_rule(self):
        src = "ok = x == 1.0  # repro-lint: disable=RL002\n"
        assert run_rule("RL002", src) == []

    def test_disable_next_line(self):
        src = """
            # repro-lint: disable-next-line=RL002
            ok = x == 1.0
        """
        assert run_rule("RL002", src) == []

    def test_disable_all(self):
        src = "ok = x == 1.0  # repro-lint: disable\n"
        assert run_rule("RL002", src) == []

    def test_unrelated_code_not_suppressed(self):
        src = "ok = x == 1.0  # repro-lint: disable=RL001\n"
        assert run_rule("RL002", src) == ["RL002"]

    def test_suppression_is_line_scoped(self):
        src = """
            a = x == 1.0  # repro-lint: disable=RL002
            b = y == 2.0
        """
        findings = run_rule("RL002", src)
        assert findings == ["RL002"]


class TestFindingAnchors:
    def test_findings_carry_path_line_and_code(self):
        findings = lint_source(
            "bad = value == 0.25\n",
            path="src/repro/core/greedy.py",
            config=LintConfig(select=["RL002"]),
        )
        (finding,) = findings
        assert finding.path == "src/repro/core/greedy.py"
        assert finding.line == 1
        assert finding.anchor().startswith("src/repro/core/greedy.py:1:")
        payload = finding.to_dict()
        assert payload["code"] == "RL002"
