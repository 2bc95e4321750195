"""The one check rule: every check is counted and kept by ``CheckReport``.

``CheckReport.record`` checks an identity under the one equality rule and
``CheckReport.require`` checks any other condition; both count one check
and keep ``(site, expected, actual)`` only when it fails.  An ``ast`` guard
keeps every other module from counting or keeping checks by hand, and the
failure-path cases pin the sites, expected values and residuals of checks
that only fail on broken inputs, in the order they were recorded before
those checks moved onto ``require``.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from martinwalk import suites
from martinwalk.chain import GradedChain, State
from martinwalk.compositions import uniform_walk
from martinwalk.harmonic import HarmonicFn, is_harmonic
from martinwalk.prob import format_prob
from martinwalk.reports import CheckReport, Violation

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
        assert report.max_residual() == pytest.approx(1 / 6)

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

    def test_record_checks_identities_under_the_equality_rule(self):
        report = CheckReport("r")
        report.record("exact-equal", Fraction(1, 2), Fraction(2, 4))
        report.record("exact-unequal", 1, Fraction(1, 3))
        report.record("float-within-tol", 0.5, 0.5 + 1e-13)
        report.record("float-outside-tol", 0.5, 0.5 + 1e-9)
        assert report.checked == 4
        assert [v.site for v in report.violations] == ["exact-unequal", "float-outside-tol"]


# -- failure paths, recorded before the checks moved onto ``require`` -----------

_A = "alpha=(Fraction(3, 10), Fraction(7, 10))"


def _skip_b_chain() -> GradedChain:
    """Level 1 enumerates (2,), which no step reaches."""
    a, b, c = State(1, (1,)), State(1, (2,)), State(1, (3,))
    return GradedChain(
        State(0, ()),
        lambda n: (a, b, c) if n == 1 else (),
        lambda x: [(a, Fraction(1, 2)), (c, Fraction(1, 2))],
        1,
        name="skip-b",
    )


def _four_times_kernel(monkeypatch):
    """Scale the kernel route the suite reads, its rows, by 4."""
    row = GradedChain.kernel_row

    def scaled(self, x, n):
        return {y: 4 * k for y, k in row(self, x, n).items()}

    monkeypatch.setattr(GradedChain, "kernel_row", scaled)
    return suites.kernel_symmetry_report(2, 1)


def _exchangeable_control(monkeypatch):
    monkeypatch.setattr(suites, "standard_negative_control", lambda: suites.standard_mixture(2))
    return suites.lemma_reports(2, 3)[-1]


def _zero_reconstruction(monkeypatch):
    monkeypatch.setattr(suites, "reconstruct_real", lambda digits: Fraction(0))
    return suites.digit_roundtrip_report(points=4, depth=3)


FAILURES = {
    "weak-irreducibility": (
        lambda mp: _skip_b_chain().check_weak_irreducibility(1),
        "weak-irreducibility[skip-b]",
        4,
        [("P(Y_1=(2,)@1)>0", "1/1", "0/1")],
    ),
    "negative-h": (
        lambda mp: is_harmonic(
            uniform_walk(2, level_budget=2),
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
        "kernel-limit[d=2] (float)",
        30,
        [
            (f"monotone@((0, 1); {_A}; n=3)", "0.0", "0.06666666666666665"),
            (f"monotone@((1, 0); {_A}; n=3)", "0.0", "0.06666666666666665"),
            (f"limit@((0, 2); {_A}; n=30)", "0/1", "0.02896551724137919"),
            (f"monotone@((0, 2); {_A}; n=3)", "0.09333333333333327", "0.6266666666666667"),
            (f"limit@((1, 1); {_A}; n=30)", "0/1", "0.0289655172413793"),
            (f"monotone@((1, 1); {_A}; n=3)", "0.09333333333333338", "0.4933333333333333"),
            (f"limit@((2, 0); {_A}; n=30)", "0/1", "0.0289655172413793"),
            (f"monotone@((2, 0); {_A}; n=3)", "0.09333333333333332", "0.36"),
            (f"limit@((0, 3); {_A}; n=30)", "0/1", "0.12331034482758652"),
            (f"monotone@((0, 3); {_A}; n=3)", "0.41066666666666674", "2.744"),
            (f"limit@((1, 2); {_A}; n=30)", "0/1", "0.06537931034482769"),
            (f"monotone@((1, 2); {_A}; n=3)", "0.22399999999999998", "1.4906666666666666"),
            (f"limit@((2, 1); {_A}; n=30)", "0/1", "0.007448275862068976"),
            (f"monotone@((2, 1); {_A}; n=3)", "0.03733333333333333", "0.504"),
            (f"limit@((3, 0); {_A}; n=30)", "0/1", "0.050482758620689655"),
            (f"monotone@((3, 0); {_A}; n=3)", "0.14933333333333332", "0.216"),
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
