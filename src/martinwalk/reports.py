"""Verification report containers.

Exact checks produce a ``CheckReport``: a list of violations, each carrying
the exact residual at the site where an identity failed.  Monte Carlo
checks produce ``MonteCarloResult`` records carrying estimate, standard
error and z-score against the target.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Callable, Iterable, NamedTuple, Optional, Union

from .prob import Prob, format_prob


class Violation(NamedTuple):
    site: str
    expected: Prob
    actual: Prob

    @property
    def residual(self) -> Fraction:
        return Fraction(self.actual) - Fraction(self.expected)

    def __str__(self) -> str:
        return (
            f"{self.site}: expected {format_prob(self.expected)}, "
            f"got {format_prob(self.actual)} (residual {format_prob(self.residual)})"
        )


#: a check's site: its text, or a zero-argument callable that makes the text,
#: called only when the check fails
Site = Union[str, Callable[[], str]]


class CheckReport:
    __slots__ = ("name", "checked", "violations", "notes")

    def __init__(
        self,
        name: str,
        checked: int = 0,
        violations: Optional[list[Violation]] = None,
        notes: Optional[list[str]] = None,
    ):
        self.name = name
        self.checked = checked
        self.violations = [] if violations is None else violations
        self.notes = [] if notes is None else notes

    def __eq__(self, other):
        if type(other) is not CheckReport:
            return NotImplemented
        return (self.name, self.checked, self.violations, self.notes) == (
            other.name, other.checked, other.violations, other.notes
        )

    @property
    def ok(self) -> bool:
        return not self.violations

    def require(self, site: Site, holds: bool, expected: Prob, actual: Prob) -> None:
        """Count one check; keep ``(site, expected, actual)`` only if it fails."""
        self.checked += 1
        if not holds:
            text = site if isinstance(site, str) else site()
            self.violations.append(Violation(text, expected, actual))

    def record(self, site: Site, expected: Prob, actual: Prob) -> None:
        """Compare one identity instance exactly; a float operand raises ``TypeError``."""
        if isinstance(expected, float) or isinstance(actual, float):
            raise TypeError(f"float operand in an exact check: {expected!r} vs {actual!r}")
        self.require(site, expected == actual, expected, actual)

    def record_ratio(self, site: Site, expected: tuple[int, int], actual: tuple[int, int]) -> None:
        """``record`` for expected a / b and actual c / d, given as int pairs
        with b, d > 0: the check is a * d == c * b, and only a failure builds
        the ``Fraction``s it keeps."""
        (a, b), (c, d) = expected, actual
        if a * d == c * b:
            self.checked += 1
        else:
            self.record(site, Fraction(a, b), Fraction(c, d))

    def record_ratios(self, site: Callable[[Any], str], checks: Iterable[tuple]) -> None:
        """``record_ratio`` at ``site(key)`` for each ``(key, expected, actual)``
        of ``checks``: a row written as one stream, whose passing checks are
        counted at once and whose failing ones alone make their site."""
        passed = 0
        for key, (a, b), (c, d) in checks:
            if a * d == c * b:
                passed += 1
            else:
                self.record(site(key), Fraction(a, b), Fraction(c, d))
        self.checked += passed

    def require_bound(
        self, site: Site, actual: tuple[int, int], bound: tuple[int, int], strict: bool = False
    ) -> None:
        """``require`` that a / b <= c / d, or a / b < c / d if ``strict``, for
        actual a / b and bound c / d given as int pairs with b, d > 0; a failure
        keeps the bound as expected and the actual as ``Fraction``s, and only
        it builds them."""
        (a, b), (c, d) = actual, bound
        if a * d < c * b or (not strict and a * d == c * b):
            self.checked += 1
        else:
            self.require(site, False, Fraction(c, d), Fraction(a, b))

    def record_row(self, checks: int, holds: bool, replay: Callable[[], object]) -> None:
        """Count a row of ``checks`` checks at once when ``holds``, the verdict
        that every check of the row passes; otherwise call ``replay``, which
        records the row check by check on this report, so a failing row keeps
        the sites, order and residuals of the per-check path.  For a verdict
        that is an algorithm, not a restatement of the row's checks."""
        if holds:
            self.checked += checks
        else:
            replay()

    def absorb(self, sub: CheckReport) -> None:
        """Merge another report's checks and violations into this one."""
        self.checked += sub.checked
        self.violations.extend(sub.violations)

    def note(self, message: str) -> None:
        self.notes.append(message)

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return f"{self.name}: {self.checked} checked, {status}"

    def __str__(self) -> str:
        lines = [self.summary()]
        lines.extend(f"  {v}" for v in self.violations[:50])
        if len(self.violations) > 50:
            lines.append(f"  ... {len(self.violations) - 50} more")
        lines.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(lines)


class MonteCarloResult(NamedTuple):
    name: str
    estimate: float
    target: float
    std_error: float
    replicates: int

    @property
    def z_score(self) -> float:
        diff = self.estimate - self.target
        if self.std_error == 0.0:
            return 0.0 if diff == 0.0 else math.inf
        return diff / self.std_error

    def within(self, z: float = 3.0) -> bool:
        return abs(self.z_score) <= z

    def __str__(self) -> str:
        return (
            f"{self.name}: estimate {self.estimate:.6g} vs target {self.target:.6g} "
            f"(se {self.std_error:.3g}, z {self.z_score:+.2f}, n {self.replicates})"
        )
