"""Verification report containers.

Exact checks produce a ``CheckReport``: a list of violations, each carrying
the exact (or float) residual at the site where an identity failed.  Monte
Carlo checks produce ``MonteCarloResult`` records carrying estimate, standard
error and z-score against the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Union

from .prob import Prob, format_prob, probs_equal, residual


@dataclass(frozen=True)
class Violation:
    site: str
    expected: Prob
    actual: Prob

    @property
    def residual(self) -> Prob:
        return residual(self.actual, self.expected)

    def __str__(self) -> str:
        return (
            f"{self.site}: expected {format_prob(self.expected)}, "
            f"got {format_prob(self.actual)} (residual {format_prob(self.residual)})"
        )


#: a check's site: its text, or a zero-argument callable that makes the text,
#: called only when the check fails
Site = Union[str, Callable[[], str]]


@dataclass
class CheckReport:
    name: str
    checked: int = 0
    violations: list[Violation] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

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
        """Compare one identity instance under the one equality rule."""
        self.require(site, probs_equal(expected, actual), expected, actual)

    def record_ratio(self, site: Site, expected: tuple[int, int], actual: tuple[int, int]) -> None:
        """``record`` for expected a / b and actual c / d, given as int pairs
        with b, d > 0: the check is a * d == c * b, and only a failure builds
        the ``Fraction``s it keeps."""
        (a, b), (c, d) = expected, actual
        if a * d == c * b:
            self.checked += 1
        else:
            self.record(site, Fraction(a, b), Fraction(c, d))

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


@dataclass(frozen=True)
class MonteCarloResult:
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
