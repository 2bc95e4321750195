"""The one check rule: every check is counted and kept by ``CheckReport``.

``CheckReport.record`` checks an identity exactly, refusing a float operand,
and ``CheckReport.require`` checks any other condition; both count one check
and keep ``(site, expected, actual)`` only when it fails.  An ``ast`` guard
keeps every other module from counting or keeping checks by hand, and the
failure-path cases pin the sites, expected values and residuals of checks
that only fail on broken inputs, in the order they were recorded before
those checks moved onto ``require``; the kernel-agreement, kernel-transform,
representation, backwards-martingale and kernel-expectation cases were
recorded before those checks moved onto the int pairs of ``kernel_row``,
and the ``CONVERTED_ROWS`` cases while each of those rows was a verdict with
a check-by-check replay, before it became one ``record_ratios`` stream.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from martinwalk import suites
from martinwalk.chain import DistributionTable, GradedChain, State, kernel_rows
from martinwalk.compositions import (
    alpha_walk,
    boundary_harmonic,
    closed_form_kernel_row,
    comp_state,
    uniform_walk,
)
from martinwalk.definetti import (
    binary_digits,
    counting_chain,
    cylinder_exchangeability_report,
    projection_consistency_check,
    source_cylinder_law,
    verify_counting_cotransitions,
    verify_counting_markov,
)
from martinwalk.harmonic import (
    HarmonicFn,
    cotransition_equality_check,
    density_ratio_check,
    h_transform,
    is_harmonic,
    kernel_transform_check,
    representation_check,
)
from martinwalk.prob import format_prob
from martinwalk.reports import CheckReport, Violation
from martinwalk.suites import standard_negative_control

SRC = Path(__file__).resolve().parent.parent / "src" / "martinwalk"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "reports.py")


def _hand_written_checks(tree: ast.Module) -> list[tuple[int, str]]:
    """Line and description of each write to a report's count or violations."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if node.attr in ("checked", "violations"):
                out.append((node.lineno, f"assigns .{node.attr}"))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "Violation":
                out.append((node.lineno, "builds a Violation"))
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "violations"
                and func.attr in ("append", "extend", "insert")
            ):
                out.append((node.lineno, f"calls .violations.{func.attr}"))
    return out


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_reports_counts_checks(path):
    found = _hand_written_checks(ast.parse(path.read_text(), filename=str(path)))
    assert not found, f"{path.name}: counts or keeps checks by hand at {found}"


def test_guard_sees_each_hand_written_form():
    source = (
        "report.checked += 1\n"
        "report.violations.append(v)\n"
        "v = Violation('s', 1, 0)\n"
        "report.violations = []\n"
    )
    lines = [line for line, _ in _hand_written_checks(ast.parse(source))]
    assert sorted(lines) == [1, 2, 3, 4]


class TestRequire:
    def test_pass_counts_one_check_and_keeps_nothing(self):
        report = CheckReport("r")
        report.require("site", True, 1, 2)
        assert (report.checked, report.violations, report.ok) == (1, [], True)

    def test_failure_keeps_site_expected_actual_and_residual(self):
        report = CheckReport("r")
        report.require("a", True, 0, 0)
        report.require("b", False, Fraction(1, 3), Fraction(1, 2))
        assert report.checked == 2
        assert report.violations == [Violation("b", Fraction(1, 3), Fraction(1, 2))]
        assert report.violations[0].residual == Fraction(1, 6)

    def test_passing_check_never_calls_its_site(self):
        def site() -> str:
            raise AssertionError("a passing check formatted its site")

        report = CheckReport("r")
        report.record(site, Fraction(1, 2), Fraction(2, 4))
        report.require(site, True, 1, 2)
        assert (report.checked, report.violations) == (2, [])

    def test_failing_check_keeps_the_text_of_its_site(self):
        x, y = State(1, (1, 0)), State(2, (1, 1))
        lazy, eager = CheckReport("r"), CheckReport("r")
        lazy.record(lambda: f"K@({x}; {y})", 1, Fraction(1, 2))
        lazy.require(lambda: f"bound@({x}; {y})", False, 2, 3)
        eager.record(f"K@({x}; {y})", 1, Fraction(1, 2))
        eager.require(f"bound@({x}; {y})", False, 2, 3)
        assert lazy.violations == eager.violations
        assert [v.site for v in lazy.violations] == [
            "K@((1, 0)@1; (1, 1)@2)",
            "bound@((1, 0)@1; (1, 1)@2)",
        ]

    def test_bound_compares_int_pairs_and_keeps_fractions_on_failure(self):
        report = CheckReport("r")
        report.require_bound("below", (1, 3), (1, 2))
        report.require_bound("equal", (2, 4), (1, 2))
        report.require_bound("equal-strict", (2, 4), (1, 2), strict=True)
        report.require_bound("above", (3, 4), (2, 4))
        assert report.checked == 4
        assert report.violations == [
            Violation("equal-strict", Fraction(1, 2), Fraction(1, 2)),
            Violation("above", Fraction(1, 2), Fraction(3, 4)),
        ]

    def test_record_checks_identities_exactly(self):
        report = CheckReport("r")
        report.record("exact-equal", Fraction(1, 2), Fraction(2, 4))
        report.record("exact-unequal", 1, Fraction(1, 3))
        for expected, actual in ((0.5, Fraction(1, 2)), (Fraction(1, 2), 0.5 + 1e-13)):
            with pytest.raises(TypeError, match="float operand"):
                report.record("float", expected, actual)
        assert report.checked == 2
        assert [v.site for v in report.violations] == ["exact-unequal"]

    @given(
        st.lists(
            st.tuples(st.integers(-6, 6), st.integers(1, 6), st.integers(-6, 6), st.integers(1, 6)),
            max_size=12,
        )
    )
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_int_pair_checks_are_their_fraction_checks(self, quads):
        """``record_ratio`` and ``require_bound`` on int pairs count and keep
        what ``record`` and ``require`` do on the ``Fraction``s they stand for."""
        pairs, fractions = CheckReport("pairs"), CheckReport("fractions")
        for a, b, c, d in quads:
            site, x, y = f"{a}/{b} vs {c}/{d}", Fraction(a, b), Fraction(c, d)
            pairs.record_ratio(site, (a, b), (c, d))
            fractions.record(site, x, y)
            for strict in (False, True):
                pairs.require_bound(f"{site} {strict}", (a, b), (c, d), strict)
                fractions.require(f"{site} {strict}", x < y if strict else x <= y, y, x)
        assert pairs.checked == fractions.checked == 3 * len(quads)
        assert pairs.violations == fractions.violations


# -- failure paths, recorded before the checks moved onto ``require`` -----------

_A = "alpha=(Fraction(3, 10), Fraction(7, 10))"


def _skip_b_chain() -> GradedChain:
    """Level 1 enumerates (2,), which no step reaches."""
    a, b, c = State(1, (1,)), State(1, (2,)), State(1, (3,))
    return GradedChain(
        State(0, ()),
        lambda n: (a, b, c) if n == 1 else (),
        lambda x: [(a, Fraction(1, 2)), (c, Fraction(1, 2))],
        name="skip-b",
    )


def _four_times_kernel(monkeypatch):
    """Scale the forward kernel route the suite reads, the conditional laws'
    numerators, by 4."""
    law = GradedChain.conditional_law

    def scaled(self, x, n):
        table = law(self, x, n)
        return DistributionTable(n, {y: 4 * v for y, v in table.nums.items()}, table.den)

    monkeypatch.setattr(GradedChain, "conditional_law", scaled)
    return suites.kernel_symmetry_report(uniform_walk(2), 1)


def _exchangeable_control(monkeypatch):
    monkeypatch.setattr(suites, "standard_negative_control", lambda: suites.standard_mixture(2))
    return suites.lemma_reports(suites.counting_family(2), 3)[-1]


def _zero_reconstruction(monkeypatch):
    monkeypatch.setattr(suites, "reconstruct_real", lambda digits: Fraction(0))
    return suites.digit_roundtrip_report(points=4, depth=3)


_THIRDS = (Fraction(1, 3), Fraction(2, 3))
_HALVES = (Fraction(1, 2), Fraction(1, 2))


def _swapped_h_transform() -> tuple[GradedChain, GradedChain]:
    """The uniform walk and an h-transform of it whose ``h`` is replaced by the
    constant boundary h of (1/2, 1/2)."""
    base = uniform_walk(2)
    transformed = h_transform(base, boundary_harmonic(_THIRDS))
    transformed.h = boundary_harmonic(_HALVES)
    return base, transformed


def _swapped_density_ratio():
    """The density identity of the swapped transform, over its own path law."""
    base, transformed = _swapped_h_transform()
    return density_ratio_check(base.cylinder_law(2), transformed, transformed.cylinder_law(2))


def _halves_on_thirds():
    """The representation identity of the (1/2, 1/2) boundary h, averaged
    under the (1/3, 2/3) transform."""
    base = uniform_walk(2)
    transformed = h_transform(base, boundary_harmonic(_THIRDS))
    h = boundary_harmonic(_HALVES)
    return representation_check(base, h, comp_state((1, 0)), 3, transformed)


def _doubled_closed_form(monkeypatch):
    """Double the numerators of the closed-form rows the agreement suite reads."""

    def doubled(x, n):
        return [(2 * a, b) for a, b in closed_form_kernel_row(x, n)]

    monkeypatch.setattr(suites, "closed_form_kernel_row", doubled)
    return suites.kernel_agreement_report(uniform_walk(2), 1)


def _double_conditional_laws(monkeypatch):
    """Double the conditional laws' numerators strictly above the conditioning
    level, so K(x, .) doubles on every level but level(x)."""
    law = GradedChain.conditional_law

    def doubled(self, x, n):
        table = law(self, x, n)
        if n == x.level:
            return table
        return DistributionTable(n, {y: 2 * v for y, v in table.nums.items()}, table.den)

    monkeypatch.setattr(GradedChain, "conditional_law", doubled)


def _doubled_martingale(monkeypatch):
    _double_conditional_laws(monkeypatch)
    return suites.martingale_identity_report(uniform_walk(2), 2)


def _doubled_expectation(monkeypatch):
    _double_conditional_laws(monkeypatch)
    return suites.expectation_identity_report(uniform_walk(2), 1)


def _base_paths_oracle():
    """The oracle reads the base walk's path law for the h-transform's DP laws."""
    base = uniform_walk(2)
    transformed = h_transform(base, boundary_harmonic(_THIRDS))
    return suites.oracle_equivalence_report(transformed, base.cylinder_law(2))


def _uniform_alpha_walk(monkeypatch):
    """Every alpha walk is the uniform one, so its paths miss the h-transform's."""
    monkeypatch.setattr(suites, "alpha_walk", lambda alpha: alpha_walk(_HALVES))
    return suites.transform_identity_reports(2, 2, [_THIRDS])[-2]


#: the violation sites of the control's counting path law at horizon 3
_CONTROL_HISTORIES = (
    "history=(State(level=1, payload=(0, 1)), State(level=2, payload=(1, 1)))",
    "history=(State(level=1, payload=(1, 0)), State(level=2, payload=(1, 1)))",
)

#: the four paths of the d=2 walk at horizon 2, as the density and path sites print them
_PATHS = (
    "(State(level=1, payload=(0, 1)), State(level=2, payload=(0, 2)))",
    "(State(level=1, payload=(0, 1)), State(level=2, payload=(1, 1)))",
    "(State(level=1, payload=(1, 0)), State(level=2, payload=(1, 1)))",
    "(State(level=1, payload=(1, 0)), State(level=2, payload=(2, 0)))",
)
_THIRDS_PATH_LAW = ("4/9", "2/9", "2/9", "1/9")

FAILURES = {
    "weak-irreducibility": (
        lambda mp: _skip_b_chain().check_weak_irreducibility(1),
        "weak-irreducibility[skip-b]",
        4,
        [("P(Y_1=(2,)@1)>0", "1/1", "0/1")],
    ),
    "negative-h": (
        lambda mp: is_harmonic(
            uniform_walk(2),
            HarmonicFn(lambda s: 1 - 2 * s.payload[0] if s.level else 1, name="neg"),
            2,
        ),
        "harmonicity[neg on uniform-walk(d=2)]",
        10,
        [
            ("mean-value@(0, 0)@0", "1/1", "0/1"),
            ("mean-value@(0, 1)@1", "1/1", "0/1"),
            ("non-negativity@(1, 0)@1", "0/1", "-1/1"),
            ("mean-value@(1, 0)@1", "-1/1", "-2/1"),
            ("non-negativity@(1, 1)@2", "0/1", "-1/1"),
            ("non-negativity@(2, 0)@2", "0/1", "-3/1"),
        ],
    ),
    "plain-product-at-d1": (
        lambda mp: suites.unnormalized_rejection_report(1, 3, [(1,)]),
        "unnormalized-kernel-rejected[d=1]",
        1,
        [("plain-product-should-fail@alpha=(1,)", "3/1", "0/1")],
    ),
    "kernel-limit-tol0": (
        lambda mp: suites.kernel_limit_report(
            2, suites.limit_alpha_grid(2)[1:2], horizons=(10, 3, 30), tol=0
        ),
        "kernel-limit[d=2]",
        30,
        [
            (f"monotone@((0, 1); {_A}; n=3)", "0/1", "1/15"),
            (f"monotone@((1, 0); {_A}; n=3)", "0/1", "1/15"),
            (f"limit@((0, 2); {_A}; n=30)", "0/1", "21/725"),
            (f"monotone@((0, 2); {_A}; n=3)", "7/75", "47/75"),
            (f"limit@((1, 1); {_A}; n=30)", "0/1", "21/725"),
            (f"monotone@((1, 1); {_A}; n=3)", "7/75", "37/75"),
            (f"limit@((2, 0); {_A}; n=30)", "0/1", "21/725"),
            (f"monotone@((2, 0); {_A}; n=3)", "7/75", "9/25"),
            (f"limit@((0, 3); {_A}; n=30)", "0/1", "447/3625"),
            (f"monotone@((0, 3); {_A}; n=3)", "154/375", "343/125"),
            (f"limit@((1, 2); {_A}; n=30)", "0/1", "237/3625"),
            (f"monotone@((1, 2); {_A}; n=3)", "28/125", "559/375"),
            (f"limit@((2, 1); {_A}; n=30)", "0/1", "27/3625"),
            (f"monotone@((2, 1); {_A}; n=3)", "14/375", "63/125"),
            (f"limit@((3, 0); {_A}; n=30)", "0/1", "183/3625"),
            (f"monotone@((3, 0); {_A}; n=3)", "56/375", "27/125"),
        ],
    ),
    "kernel-symmetry-scaled": (
        _four_times_kernel,
        "kernel-symmetry[d=2]<= 1",
        19,
        [
            ("symmetry@((0, 0)@0; (0, 0)@0)", "4/1", "1/1"),
            ("bound@((0, 0)@0; (0, 0)@0)", "1/1", "4/1"),
            ("root-normalization@(0, 0)@0", "1/1", "4/1"),
            ("symmetry@((0, 0)@0; (0, 1)@1)", "4/1", "1/1"),
            ("bound@((0, 0)@0; (0, 1)@1)", "1/1", "4/1"),
            ("root-normalization@(0, 1)@1", "1/1", "4/1"),
            ("symmetry@((0, 0)@0; (1, 0)@1)", "4/1", "1/1"),
            ("bound@((0, 0)@0; (1, 0)@1)", "1/1", "4/1"),
            ("root-normalization@(1, 0)@1", "1/1", "4/1"),
            ("symmetry@((0, 1)@1; (0, 1)@1)", "8/1", "2/1"),
            ("bound@((0, 1)@1; (0, 1)@1)", "2/1", "8/1"),
            ("root-normalization@(0, 1)@1", "1/1", "4/1"),
            ("symmetry@((1, 0)@1; (1, 0)@1)", "8/1", "2/1"),
            ("bound@((1, 0)@1; (1, 0)@1)", "2/1", "8/1"),
            ("root-normalization@(1, 0)@1", "1/1", "4/1"),
        ],
    ),
    "exchangeable-control": (
        _exchangeable_control,
        "negative-control-detected",
        2,
        [
            ("markov-check-should-fail", "1/1", "0/1"),
            ("cotransition-check-should-fail", "1/1", "0/1"),
        ],
    ),
    "control-counting-markov": (
        lambda mp: verify_counting_markov(
            standard_negative_control(), source_cylinder_law(standard_negative_control(), 3)
        ),
        "counting-markov[markov[d=2]]@3",
        12,
        [
            (f"{_CONTROL_HISTORIES[0]} -> (1, 2)@3", "2/3", "1/3"),
            (f"{_CONTROL_HISTORIES[0]} -> (2, 1)@3", "1/3", "2/3"),
            (f"{_CONTROL_HISTORIES[1]} -> (1, 2)@3", "2/3", "5/6"),
            (f"{_CONTROL_HISTORIES[1]} -> (2, 1)@3", "1/3", "1/6"),
        ],
    ),
    "control-counting-cotransitions": (
        lambda mp: verify_counting_cotransitions(standard_negative_control(), 3),
        "counting-cotransitions[markov[d=2]]@3",
        12,
        [
            ("cotransition@((1, 1)@2 -> (0, 1)@1)", "1/2", "1/3"),
            ("cotransition@((1, 1)@2 -> (1, 0)@1)", "1/2", "2/3"),
            ("cotransition@((1, 2)@3 -> (0, 2)@2)", "1/3", "5/17"),
            ("cotransition@((1, 2)@3 -> (1, 1)@2)", "2/3", "12/17"),
            ("cotransition@((2, 1)@3 -> (1, 1)@2)", "2/3", "3/7"),
            ("cotransition@((2, 1)@3 -> (2, 0)@2)", "1/3", "4/7"),
        ],
    ),
    "control-exchangeability": (
        lambda mp: cylinder_exchangeability_report(
            source_cylinder_law(standard_negative_control(), 3)
        ),
        "exchangeability",
        4,
        [
            ("permutation@(1, 2, 1) vs (1, 1, 2)", "1/9", "1/36"),
            ("permutation@(2, 1, 1) vs (1, 1, 2)", "1/9", "1/18"),
            ("permutation@(2, 1, 2) vs (1, 2, 2)", "5/36", "1/36"),
            ("permutation@(2, 2, 1) vs (1, 2, 2)", "5/36", "5/72"),
        ],
    ),
    "density-ratio-swapped-h": (
        lambda mp: _swapped_density_ratio(),
        "density-ratio[h-transform[K(.,('1/3', '2/3'))](uniform-walk(d=2))]@2",
        4,
        [(f"path={path}", "1/4", p) for path, p in zip(_PATHS, _THIRDS_PATH_LAW)],
    ),
    "oracle-base-paths": (
        lambda mp: _base_paths_oracle(),
        "oracle-equivalence[h-transform[K(.,('1/3', '2/3'))](uniform-walk(d=2))]@2",
        21,
        [
            ("forward@(0, 1)@1", "2/3", "1/2"),
            ("forward@(1, 0)@1", "1/3", "1/2"),
            ("forward@(0, 2)@2", "4/9", "1/4"),
            ("forward@(1, 1)@2", "4/9", "1/2"),
            ("forward@(2, 0)@2", "1/9", "1/4"),
            ("conditional@((0, 0)@0 -> (0, 1)@1)", "2/3", "1/2"),
            ("conditional@((0, 0)@0 -> (1, 0)@1)", "1/3", "1/2"),
            ("conditional@((0, 0)@0 -> (0, 2)@2)", "4/9", "1/4"),
            ("conditional@((0, 0)@0 -> (1, 1)@2)", "4/9", "1/2"),
            ("conditional@((0, 0)@0 -> (2, 0)@2)", "1/9", "1/4"),
            ("conditional@((0, 1)@1 -> (0, 2)@2)", "2/3", "1/2"),
            ("conditional@((0, 1)@1 -> (1, 1)@2)", "1/3", "1/2"),
            ("conditional@((1, 0)@1 -> (1, 1)@2)", "2/3", "1/2"),
            ("conditional@((1, 0)@1 -> (2, 0)@2)", "1/3", "1/2"),
        ],
    ),
    "alpha-walk-uniform": (
        _uniform_alpha_walk,
        "alpha-walk-equivalence[d=2]@2",
        4,
        [(f"path@{path}", "1/4", p) for path, p in zip(_PATHS, _THIRDS_PATH_LAW)],
    ),
    "kernel-agreement-doubled": (
        _doubled_closed_form,
        "kernel-agreement[d=2]<= 1",
        7,
        [
            ("K@((0, 0)@0; (0, 0)@0)", "2/1", "1/1"),
            ("K@((0, 0)@0; (0, 1)@1)", "2/1", "1/1"),
            ("K@((0, 0)@0; (1, 0)@1)", "2/1", "1/1"),
            ("K@((0, 1)@1; (0, 1)@1)", "4/1", "2/1"),
            ("K@((1, 0)@1; (1, 0)@1)", "4/1", "2/1"),
        ],
    ),
    "kernel-transform-swapped-h": (
        lambda mp: kernel_transform_check(*_swapped_h_transform(), 2),
        "kernel-transform[h-transform[K(.,('1/3', '2/3'))](uniform-walk(d=2))]",
        25,
        [
            ("K_h@((0, 1)@1; (0, 1)@1)", "2/1", "3/2"),
            ("K_h@((0, 1)@1; (0, 2)@2)", "2/1", "3/2"),
            ("K_h@((0, 1)@1; (1, 1)@2)", "1/1", "3/4"),
            ("K_h@((1, 0)@1; (1, 0)@1)", "2/1", "3/1"),
            ("K_h@((1, 0)@1; (1, 1)@2)", "1/1", "3/2"),
            ("K_h@((1, 0)@1; (2, 0)@2)", "2/1", "3/1"),
            ("K_h@((0, 2)@2; (0, 2)@2)", "4/1", "9/4"),
            ("K_h@((1, 1)@2; (1, 1)@2)", "2/1", "9/4"),
            ("K_h@((2, 0)@2; (2, 0)@2)", "4/1", "9/1"),
        ],
    ),
    "representation-wrong-h": (
        lambda mp: _halves_on_thirds(),
        "representation[K(.,('1/2', '1/2'))]@((1, 0)@1, n=3)",
        1,
        [("expected-kernel", "1/1", "2/3")],
    ),
    "backwards-martingale-doubled": (
        _doubled_martingale,
        "backwards-martingale[d=2]<= 2",
        11,
        [
            ("martingale@((0, 0)@0; (0, 1)@1)", "2/1", "1/1"),
            ("martingale@((0, 0)@0; (1, 0)@1)", "2/1", "1/1"),
            ("martingale@((0, 1)@1; (0, 2)@2)", "4/1", "2/1"),
            ("martingale@((0, 1)@1; (1, 1)@2)", "2/1", "1/1"),
            ("martingale@((1, 0)@1; (1, 1)@2)", "2/1", "1/1"),
            ("martingale@((1, 0)@1; (2, 0)@2)", "4/1", "2/1"),
        ],
    ),
    "kernel-expectation-doubled": (
        _doubled_expectation,
        "kernel-expectation[d=2]<= 1",
        4,
        [("expectation@((0, 0)@0; n=1)", "1/1", "2/1")],
    ),
    "digit-roundtrip-zero": (
        _zero_reconstruction,
        "digit-roundtrip[4 points, depth 3]",
        4,
        [
            ("roundtrip@1/4", "1/8", "1/4"),
            ("roundtrip@1/2", "1/8", "1/2"),
            ("roundtrip@3/4", "1/8", "3/4"),
        ],
    ),
}


@pytest.mark.parametrize("case", FAILURES, ids=list(FAILURES))
def test_failure_path(case, monkeypatch):
    build, name, checked, violations = FAILURES[case]
    report = build(monkeypatch)
    rendered = [(v.site, format_prob(v.expected), format_prob(v.actual)) for v in report.violations]
    assert (report.name, report.checked, rendered) == (name, checked, violations)


# -- rows counted at once, against the per-check path ---------------------------


def _agreement_per_check(walk: GradedChain, max_level: int) -> CheckReport:
    """``kernel_agreement_report`` as it recorded its checks one at a time."""
    report = CheckReport(f"kernel-agreement[d={len(walk.root.payload)}]<= {max_level}")
    for x, n, row in kernel_rows(walk, max_level):
        for y, closed in zip(walk.enumerate_level(n), suites.closed_form_kernel_row(x, n)):
            report.record_ratio(lambda: f"K@({x}; {y})", closed, row[y])
    return report


def _symmetry_per_check(walk: GradedChain, max_level: int) -> CheckReport:
    """``kernel_symmetry_report`` as it recorded its checks one at a time."""
    report = CheckReport(f"kernel-symmetry[d={len(walk.root.payload)}]<= {max_level}")
    for m in range(max_level + 1):
        level_m, law_m = walk.enumerate_level(m), walk.forward_law(m)
        bounds = {x: (law_m.den, law_m.nums[x]) for x in level_m}
        for n in range(m, max_level + 1):
            law_n = walk.forward_law(n)
            conds = [(x, walk.conditional_law(x, n), bounds[x]) for x in level_m]
            root = walk.kernel_row(walk.root, n)
            for y in walk.enumerate_level(n):
                back, p_y = walk.backward_conditional(y, m), law_n.nums[y]
                for x, cond, bound in conds:
                    forward = (cond.nums.get(y, 0) * law_n.den, cond.den * p_y)
                    backward = (back.nums.get(x, 0) * bound[0], back.den * bound[1])
                    report.record_ratio(lambda: f"symmetry@({x}; {y})", forward, backward)
                    report.require_bound(lambda: f"bound@({x}; {y})", forward, bound)
                report.record_ratio(lambda: f"root-normalization@{y}", (1, 1), root[y])
    return report


_ROW_LEVEL = 4


def _mutated_walk(mutate) -> GradedChain:
    """A d=3 walk whose laws up to ``_ROW_LEVEL`` are all built, then changed
    in one place by ``mutate(walk)``."""
    walk = uniform_walk(3)
    _symmetry_per_check(walk, _ROW_LEVEL)
    mutate(walk)
    return walk


def _bump_conditional(factor: int, shift: int):
    """Scale and shift P(Y_3 = (2, 1, 0) | Y_1 = (1, 0, 0)), the numerator the
    forward kernel of that pair reads."""

    def mutate(walk):
        nums = walk.conditional_law(comp_state((1, 0, 0)), 3).nums
        nums[comp_state((2, 1, 0))] = nums[comp_state((2, 1, 0))] * factor + shift

    return mutate


def _unreached_conditional(walk):
    """Give (1, 0, 0) mass at (0, 0, 3), which it cannot reach."""
    walk.conditional_law(comp_state((1, 0, 0)), 3).nums[comp_state((0, 0, 3))] = 1


def _unreached_backward(walk):
    """Give (0, 0, 3) backward mass at (1, 0, 0), which does not reach it."""
    walk.backward_conditional(comp_state((0, 0, 3)), 1).nums[comp_state((1, 0, 0))] = 1


_ROW_MUTATIONS = {
    "conditional-plus-one": (_bump_conditional(1, 1), True),
    "conditional-times-1000": (_bump_conditional(1000, 0), True),
    "conditional-outside-support": (_unreached_conditional, True),
    "backward-outside-support": (_unreached_backward, False),
}


def _same_report(report: CheckReport, reference: CheckReport) -> None:
    assert reference.violations, "the mutation must make some check fail"
    assert (report.name, report.checked) == (reference.name, reference.checked)
    assert report.violations == reference.violations
    assert report.violations[0].residual == reference.violations[0].residual


class TestRowsAgainstPerCheck:
    """A row counted at once on a match, and recorded check by check on a
    mismatch, gives the per-check path's count, sites, order and residuals."""

    @pytest.mark.parametrize("case", _ROW_MUTATIONS, ids=list(_ROW_MUTATIONS))
    def test_symmetry(self, case):
        walk = _mutated_walk(_ROW_MUTATIONS[case][0])
        reference = _symmetry_per_check(walk, _ROW_LEVEL)
        _same_report(suites.kernel_symmetry_report(walk, _ROW_LEVEL), reference)

    @pytest.mark.parametrize(
        "case", [c for c, (_, forward) in _ROW_MUTATIONS.items() if forward]
    )
    def test_agreement_with_a_changed_conditional_law(self, case):
        walk = _mutated_walk(_ROW_MUTATIONS[case][0])
        reference = _agreement_per_check(walk, _ROW_LEVEL)
        _same_report(suites.kernel_agreement_report(walk, _ROW_LEVEL), reference)

    def test_agreement_with_a_changed_closed_form(self, monkeypatch):
        x = comp_state((1, 1, 0))

        def changed(z, n):
            row = closed_form_kernel_row(z, n)
            if (z, n) == (x, 3):
                a, b = row[4]
                row[4] = (a + 1, b)
            return row

        monkeypatch.setattr(suites, "closed_form_kernel_row", changed)
        walk = uniform_walk(3)
        reference = _agreement_per_check(walk, _ROW_LEVEL)
        _same_report(suites.kernel_agreement_report(walk, _ROW_LEVEL), reference)

    @pytest.mark.parametrize(
        "suite, per_check",
        [
            (suites.kernel_symmetry_report, _symmetry_per_check),
            (suites.kernel_agreement_report, _agreement_per_check),
        ],
    )
    def test_unchanged_walk_passes_with_the_per_check_count(self, suite, per_check):
        reference = per_check(uniform_walk(3), _ROW_LEVEL)
        report = suite(uniform_walk(3), _ROW_LEVEL)
        assert (report.checked, report.violations) == (reference.checked, []) and reference.ok

    def test_record_row_replays_only_a_failing_row(self):
        report, replayed = CheckReport("r"), []
        report.record_row(5, True, lambda: replayed.append("passing"))
        report.record_row(5, False, lambda: report.record_ratio("failing", (1, 2), (1, 3)))
        assert replayed == [] and report.checked == 5 + 1
        assert report.violations == [Violation("failing", Fraction(1, 2), Fraction(1, 3))]


# -- rows written as one stream of checks ----------------------------------------


def _history(*payloads) -> str:
    """The site prefix of a count path history, its states at levels 1, 2, ..."""
    states = ", ".join(f"State(level={k}, payload={p})" for k, p in enumerate(payloads, 1))
    return f"history=({states})"


def _swapped_transform_d3():
    """The d=3 transform of (1/2, 1/3, 1/6) with its ``h`` replaced by the uniform boundary h."""
    base = uniform_walk(3)
    transformed = h_transform(
        base, boundary_harmonic((Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    )
    transformed.h = boundary_harmonic((Fraction(1, 3),) * 3)
    return kernel_transform_check(base, transformed, 2)


def _mismatched_projection():
    """Digits of 5/8 and 1/8 at depth 3 against those of 1/4 and 5/8 (twice)
    at depth 2: only the pushed law has the key (0, 0)."""
    deeper = DistributionTable(1, {Fraction(5, 8): 1, Fraction(1, 8): 1}, 2)
    shallower = DistributionTable(1, {Fraction(1, 4): 1, Fraction(5, 8): 2}, 3)
    return projection_consistency_check(
        deeper.push(lambda point: binary_digits(point, 3)),
        shallower.push(lambda point: binary_digits(point, 2)),
    )


def _swapped_alpha_walk(monkeypatch):
    """Each alpha walk steps by its alpha reversed."""
    monkeypatch.setattr(suites, "alpha_walk", lambda alpha: alpha_walk(alpha[::-1]))
    return suites.transform_identity_reports(2, 2, [_THIRDS])[-2]


#: the two count histories of the control that pass through (1, 1) at level 2
_FROM_01, _FROM_10 = ((0, 1), (1, 1)), ((1, 0), (1, 1))

#: name, checked, violations and first residual of each row written as one
#: stream, recorded while each row was a verdict with a check-by-check replay
CONVERTED_ROWS = {
    "control-count-paths@4": (
        lambda mp: verify_counting_markov(
            standard_negative_control(), source_cylinder_law(standard_negative_control(), 4)
        ),
        "counting-markov[markov[d=2]]@4",
        28,
        [
            (f"{_history(*_FROM_01)} -> (1, 2)@3", "2/3", "1/3"),
            (f"{_history(*_FROM_01)} -> (2, 1)@3", "1/3", "2/3"),
            (f"{_history(*_FROM_10)} -> (1, 2)@3", "2/3", "5/6"),
            (f"{_history(*_FROM_10)} -> (2, 1)@3", "1/3", "1/6"),
            (f"{_history((0, 1), (0, 2), (1, 2))} -> (1, 3)@4", "35/51", "1/3"),
            (f"{_history((0, 1), (0, 2), (1, 2))} -> (2, 2)@4", "16/51", "2/3"),
            (f"{_history(*_FROM_01, (1, 2))} -> (1, 3)@4", "35/51", "5/6"),
            (f"{_history(*_FROM_01, (1, 2))} -> (2, 2)@4", "16/51", "1/6"),
            (f"{_history(*_FROM_01, (2, 1))} -> (2, 2)@4", "13/21", "1/3"),
            (f"{_history(*_FROM_01, (2, 1))} -> (3, 1)@4", "8/21", "2/3"),
            (f"{_history(*_FROM_10, (1, 2))} -> (1, 3)@4", "35/51", "5/6"),
            (f"{_history(*_FROM_10, (1, 2))} -> (2, 2)@4", "16/51", "1/6"),
            (f"{_history(*_FROM_10, (2, 1))} -> (2, 2)@4", "13/21", "1/3"),
            (f"{_history(*_FROM_10, (2, 1))} -> (3, 1)@4", "8/21", "2/3"),
            (f"{_history((1, 0), (2, 0), (2, 1))} -> (2, 2)@4", "13/21", "5/6"),
            (f"{_history((1, 0), (2, 0), (2, 1))} -> (3, 1)@4", "8/21", "1/6"),
        ],
        Fraction(-1, 3),
    ),
    "control-exchangeability@4": (
        lambda mp: cylinder_exchangeability_report(
            source_cylinder_law(standard_negative_control(), 4)
        ),
        "exchangeability",
        11,
        [
            ("permutation@(1, 1, 2, 1) vs (1, 1, 1, 2)", "2/27", "1/54"),
            ("permutation@(1, 2, 1, 1) vs (1, 1, 1, 2)", "2/27", "1/54"),
            ("permutation@(2, 1, 1, 1) vs (1, 1, 1, 2)", "2/27", "1/27"),
            ("permutation@(1, 2, 1, 2) vs (1, 1, 2, 2)", "5/54", "1/108"),
            ("permutation@(1, 2, 2, 1) vs (1, 1, 2, 2)", "5/54", "5/216"),
            ("permutation@(2, 1, 1, 2) vs (1, 1, 2, 2)", "5/54", "1/54"),
            ("permutation@(2, 1, 2, 1) vs (1, 1, 2, 2)", "5/54", "1/216"),
            ("permutation@(2, 2, 1, 1) vs (1, 1, 2, 2)", "5/54", "5/108"),
            ("permutation@(2, 1, 2, 2) vs (1, 2, 2, 2)", "25/216", "5/216"),
            ("permutation@(2, 2, 1, 2) vs (1, 2, 2, 2)", "25/216", "5/216"),
            ("permutation@(2, 2, 2, 1) vs (1, 2, 2, 2)", "25/216", "25/432"),
        ],
        Fraction(-1, 18),
    ),
    "uniform-walk-vs-control-counting-chain": (
        lambda mp: cotransition_equality_check(
            uniform_walk(2), counting_chain(standard_negative_control()), 3
        ),
        "cotransition-equality[uniform-walk(d=2) vs counting[markov[d=2]]]",
        12,
        [
            ("cotransition@((1, 1)@2 -> (0, 1)@1)", "1/2", "1/3"),
            ("cotransition@((1, 1)@2 -> (1, 0)@1)", "1/2", "2/3"),
            ("cotransition@((1, 2)@3 -> (0, 2)@2)", "1/3", "5/17"),
            ("cotransition@((1, 2)@3 -> (1, 1)@2)", "2/3", "12/17"),
            ("cotransition@((2, 1)@3 -> (1, 1)@2)", "2/3", "3/7"),
            ("cotransition@((2, 1)@3 -> (2, 0)@2)", "1/3", "4/7"),
        ],
        Fraction(-1, 6),
    ),
    "kernel-transform-swapped-h-d3": (
        lambda mp: _swapped_transform_d3(),
        "kernel-transform[h-transform[K(.,('1/2', '1/3', '1/6'))](uniform-walk(d=3))]",
        73,
        [
            ("K_h@((0, 0, 1)@1; (0, 0, 1)@1)", "3/1", "6/1"),
            ("K_h@((0, 0, 1)@1; (0, 0, 2)@2)", "3/1", "6/1"),
            ("K_h@((0, 0, 1)@1; (0, 1, 1)@2)", "3/2", "3/1"),
            ("K_h@((0, 0, 1)@1; (1, 0, 1)@2)", "3/2", "3/1"),
            ("K_h@((1, 0, 0)@1; (1, 0, 0)@1)", "3/1", "2/1"),
            ("K_h@((1, 0, 0)@1; (1, 0, 1)@2)", "3/2", "1/1"),
            ("K_h@((1, 0, 0)@1; (1, 1, 0)@2)", "3/2", "1/1"),
            ("K_h@((1, 0, 0)@1; (2, 0, 0)@2)", "3/1", "2/1"),
            ("K_h@((0, 0, 2)@2; (0, 0, 2)@2)", "9/1", "36/1"),
            ("K_h@((0, 1, 1)@2; (0, 1, 1)@2)", "9/2", "9/1"),
            ("K_h@((1, 0, 1)@2; (1, 0, 1)@2)", "9/2", "6/1"),
            ("K_h@((1, 1, 0)@2; (1, 1, 0)@2)", "9/2", "3/1"),
            ("K_h@((2, 0, 0)@2; (2, 0, 0)@2)", "9/1", "4/1"),
        ],
        Fraction(3),
    ),
    "projection-mismatched-laws": (
        lambda mp: _mismatched_projection(),
        "projection-consistency",
        3,
        [
            ("digits=(0, 0)", "0/1", "1/2"),
            ("digits=(0, 1)", "1/3", "0/1"),
            ("digits=(1, 0)", "2/3", "1/2"),
        ],
        Fraction(1, 2),
    ),
    "alpha-walk-swapped": (
        _swapped_alpha_walk,
        "alpha-walk-equivalence[d=2]@2",
        4,
        [
            (f"path@{_PATHS[0]}", "1/9", "4/9"),
            (f"path@{_PATHS[3]}", "4/9", "1/9"),
        ],
        Fraction(1, 3),
    ),
}


@pytest.mark.parametrize("case", CONVERTED_ROWS, ids=list(CONVERTED_ROWS))
def test_converted_row_failure_path(case, monkeypatch):
    """Each row written as one stream keeps the count, sites, order and
    residuals its verdict-and-replay form recorded."""
    build, name, checked, violations, residual = CONVERTED_ROWS[case]
    report = build(monkeypatch)
    rendered = [(v.site, format_prob(v.expected), format_prob(v.actual)) for v in report.violations]
    assert (report.name, report.checked, rendered) == (name, checked, violations)
    assert report.violations[0].residual == residual


class TestRowPrimitives:
    @given(
        st.lists(
            st.tuples(st.integers(-6, 6), st.integers(1, 6), st.integers(-6, 6), st.integers(1, 6)),
            max_size=12,
        )
    )
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_record_ratios_is_a_record_ratio_loop(self, quads):
        """``record_ratios`` counts and keeps what ``record_ratio`` does check
        by check, and makes the site of a failing key only, once."""
        checks = [(i, (a, b), (c, d)) for i, (a, b, c, d) in enumerate(quads)]
        made = []

        def site(key) -> str:
            made.append(key)
            return f"site {key}"

        stream, loop = CheckReport("r"), CheckReport("r")
        stream.record_ratios(site, iter(checks))
        for key, expected, actual in checks:
            loop.record_ratio(f"site {key}", expected, actual)
        assert stream == loop
        assert [v.residual for v in stream.violations] == [v.residual for v in loop.violations]
        assert made == [key for key, (a, b), (c, d) in checks if a * d != c * b]

    def test_pairs_walk_the_sorted_union_of_supports(self):
        """A key in either support gives one pair, a missing key mass 0, and
        each side keeps its own denominator."""
        a = DistributionTable(1, {(0,): 1, (2,): 2}, 3)
        b = DistributionTable(1, {(1,): 1, (2,): 3}, 4)
        assert list(a.pairs(b)) == [
            ((0,), (1, 3), (0, 4)),
            ((1,), (0, 3), (1, 4)),
            ((2,), (2, 3), (3, 4)),
        ]
        assert list(b.pairs(a)) == [
            ((0,), (0, 4), (1, 3)),
            ((1,), (1, 4), (0, 3)),
            ((2,), (3, 4), (2, 3)),
        ]

    def test_equal_laws_pass_with_one_check_per_key(self):
        law = uniform_walk(2).cylinder_law(3)
        report = CheckReport("r")
        report.record_ratios(lambda path: f"path@{path}", law.pairs(uniform_walk(2).cylinder_law(3)))
        assert (report.checked, report.violations) == (len(law), [])


def test_record_row_has_one_reader():
    """Only ``kernel_symmetry_report`` writes its rows as a verdict and a
    replay: its verdict skips each x that does not reach y by a counting
    argument, which no stream of checks can do.  Every other row is one
    stream, so an identity is written once."""
    readers = [
        f"{path.stem}.{getattr(top, 'name', '<module>')}"
        for path in MODULES
        for top in ast.parse(path.read_text()).body
        for node in ast.walk(top)
        if isinstance(node, ast.Attribute) and node.attr == "record_row"
    ]
    assert readers == ["suites.kernel_symmetry_report"]
