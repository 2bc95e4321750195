"""Harmonic functions and h-transforms of graded chains.

A function h on states is harmonic when h(x) equals the one-step average
of h under the chain, and normalized when h(root) = 1.  Every such h with
h >= 0 defines a reweighted chain through

    p_h(x, y) = h(y) p(x, y) / h(x),

restricted to the support F_h = {x : h(x) > 0}.  The routines here build
the transform, verify the density and kernel identities it satisfies,
check cotransition invariance, and invert the construction: a chain with
the same cotransitions as a base chain is recovered as an h-transform via
the marginal ratio h(x) = P_observed(Y_n = x) / P_base(Y_n = x).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from .chain import GradedChain, State, kernel_mean, kernel_rows
from .errors import (
    BudgetExceededError,
    CotransitionMismatchError,
    NotHarmonicError,
    UnreachableStateError,
)
from .prob import Prob, format_prob, is_exact
from .reports import CheckReport, MonteCarloResult


class HarmonicFn:
    """A non-negative function on states, normalized to 1 at the root.

    Wraps a plain callable; its support is where the value is positive.  Each
    instance calls it once per state and keeps the value; a call that raises
    keeps nothing, so it raises again on the next call.
    """

    def __init__(self, fn: Callable[[State], Prob], name: str = "h"):
        self._fn = fn
        self.name = name
        self._values: dict[State, Prob] = {}

    def __call__(self, state: State) -> Prob:
        value = self._values.get(state)
        if value is None:
            value = self._values[state] = self._fn(state)
        return value

    def supports(self, state: State) -> bool:
        return self(state) > 0

    def __repr__(self) -> str:
        return f"HarmonicFn({self.name!r})"

    @classmethod
    def mixture(cls, weighted: Sequence[tuple[Prob, "HarmonicFn"]], name: str = "mixture") -> "HarmonicFn":
        """Convex combination of harmonic functions (again harmonic and normalized)."""
        parts = tuple(weighted)

        def value(state: State) -> Prob:
            return sum(w * h(state) for w, h in parts)

        return cls(value, name=name)


def is_harmonic(chain: GradedChain, h: HarmonicFn, max_level: int) -> CheckReport:
    """Report every failure of the mean-value identity below max_level.

    Also checks h(root) = 1 and h >= 0 on all enumerated states.  Failures
    are report content, not errors.
    """
    report = CheckReport(f"harmonicity[{h.name} on {chain.name}]")
    report.record("root-normalization", 1, h(chain.root))
    for n in range(max_level + 1):
        for x in chain.enumerate_level(n):
            hx = h(x)
            report.require(lambda: f"non-negativity@{x}", hx >= 0, 0, hx)
            if n < max_level:
                mean = sum(q * h(y) for y, q in chain.successors(x))
                report.record(lambda: f"mean-value@{x}", hx, mean)
    return report


class HTransformChain(GradedChain):
    """The base chain reweighted by a normalized harmonic function.

    State enumeration shrinks to the support of h; each transition row is
    validated when it is first built: a float step raises the same
    ``ValueError`` as in any ``GradedChain``, and an exact row must sum to 1,
    which is exactly harmonicity at that state.
    """

    def __init__(self, base: GradedChain, h: HarmonicFn):
        root_value = h(base.root)
        if root_value != 1:
            raise NotHarmonicError(
                f"{h.name} has value {format_prob(root_value)} at the root, expected 1"
            )

        def family(n: int) -> tuple[State, ...]:
            return tuple(s for s in base.enumerate_level(n) if h.supports(s))

        def successors(x: State):
            hx = h(x)
            if hx == 0:
                raise UnreachableStateError(f"{x} lies outside the support of {h.name}")
            row = []
            total = 0
            for y, q in base.successors(x):
                hy = h(y)
                if hy == 0 or q == 0:
                    continue
                p = hy * q / hx
                if not is_exact(p):
                    raise ValueError(f"float step probability {p!r} at {x} -> {y}: laws are exact")
                total += p
                row.append((y, p))
            if total != 1:
                raise NotHarmonicError(
                    f"{h.name} is not harmonic at {x}: reweighted row sums to "
                    f"{format_prob(total)}"
                )
            return tuple(row)

        super().__init__(
            root=base.root,
            family=family,
            successors=successors,
            name=f"h-transform[{h.name}]({base.name})",
        )
        self.h = h


def h_transform(chain: GradedChain, h: HarmonicFn) -> HTransformChain:
    """Reweight the chain by h; rows are checked lazily as they are built."""
    return HTransformChain(chain, h)


def density_ratio_check(base: GradedChain, transformed: HTransformChain, n: int) -> CheckReport:
    """Check P_h(path) = h(x_n) P(path) for every positive base path of length n
    by cross-products of the two path laws' numerators."""
    h = transformed.h
    base_law = base.cylinder_law(n)
    transformed_law = transformed.cylinder_law(n)
    report = CheckReport(f"density-ratio[{transformed.name}]@{n}")
    for path, p in base_law.nums.items():
        hx = h(path[-1])
        report.record_ratio(
            lambda: f"path={path}",
            (hx.numerator * p, hx.denominator * base_law.den),
            (transformed_law.nums.get(path, 0), transformed_law.den),
        )
    return report


def kernel_transform_check(
    base: GradedChain, transformed: HTransformChain, max_level: int
) -> CheckReport:
    """Check K_h(x, y) h(x) = K(x, y) on the support, both sides computed
    independently, by cross-products of the two kernel rows' int pairs."""
    report = CheckReport(f"kernel-transform[{transformed.name}]")
    for x, n, lifted in kernel_rows(transformed, max_level):
        hx, original = transformed.h(x), base.kernel_row(x, n)
        h_num, h_den = hx.numerator, hx.denominator
        for y in transformed.enumerate_level(n):
            if y in lifted:
                a, b = lifted[y]
                report.record_ratio(lambda: f"K_h@({x}; {y})", original[y], (a * h_num, b * h_den))
    return report


def cotransition_equality_check(a: GradedChain, b: GradedChain, max_level: int) -> CheckReport:
    """Compare backward one-step laws of two chains over the same family.

    Only conditioning states reachable in both chains are compared, each
    over the union of the two laws' supports, so that missing mass counts as 0.
    """
    report = CheckReport(f"cotransition-equality[{a.name} vs {b.name}]")
    for n in range(1, max_level + 1):
        shared = a.forward_law(n).nums.keys() & b.forward_law(n).nums.keys()
        for y in sorted(shared):
            back_a, back_b = a.cotransition(y), b.cotransition(y)
            for x in sorted(back_a.nums.keys() | back_b.nums.keys()):
                report.record_ratio(
                    lambda: f"cotransition@({y} -> {x})",
                    (back_a.nums.get(x, 0), back_a.den),
                    (back_b.nums.get(x, 0), back_b.den),
                )
    return report


def recover_h(base: GradedChain, observed: GradedChain, max_level: int) -> HarmonicFn:
    """Exhibit an observed chain as an h-transform of the base chain.

    Requires matching cotransitions up to max_level and a weakly
    irreducible base; returns the marginal-ratio function
    h(x) = P_observed(Y_n = x) / P_base(Y_n = x), which the caller can
    verify with ``is_harmonic`` and ``h_transform``.  Checked only up to
    max_level, h raises ``BudgetExceededError`` at any level above it.
    """
    equality = cotransition_equality_check(base, observed, max_level)
    if not equality.ok:
        raise CotransitionMismatchError(str(equality))
    irreducibility = base.check_weak_irreducibility(max_level)
    if not irreducibility.ok:
        raise UnreachableStateError(
            f"base chain {base.name} is not weakly irreducible up to level {max_level}"
        )

    def value(state: State) -> Prob:
        if state.level > max_level:
            raise BudgetExceededError(
                f"recovered h evaluated at level {state.level}, checked up to {max_level}"
            )
        base_law = base.forward_law(state.level)
        if state not in base_law:
            raise UnreachableStateError(
                f"recovered h undefined at {state}: zero base probability"
            )
        return observed.forward_law(state.level).ratio(base_law, state)

    return HarmonicFn(value, name=f"recovered[{observed.name}]")


def representation_check(
    base: GradedChain,
    h: HarmonicFn,
    x: State,
    n: int,
    transformed: HTransformChain,
) -> CheckReport:
    """Exact finite-horizon representation identity: E_{P_h} K(x, Y_n) = h(x),
    with Y_n under ``transformed``, which is ``h_transform(base, h)``.

    K(x, Y_n) is a backwards martingale under the base chain, so the
    identity holds at every horizon n >= level(x); this is the finitely
    checkable form of the boundary representation of h.
    """
    if not h.supports(x):
        raise UnreachableStateError(f"{x} lies outside the support of {h.name}")
    mean = kernel_mean(base.kernel_row(x, n), transformed.forward_law(n))
    hx = h(x)
    report = CheckReport(f"representation[{h.name}]@({x}, n={n})")
    report.record_ratio("expected-kernel", (hx.numerator, hx.denominator), mean)
    return report


def representation_check_mc(
    h: HarmonicFn,
    x: State,
    n: int,
    replicates: int,
    seed: int,
    transformed: GradedChain,
    kernel: Callable[[State, State], Prob],
) -> MonteCarloResult:
    """Monte Carlo form of the representation identity at large horizons.

    Averages K(x, Y_n) over replicates 0..replicates-1 of Y_n drawn by the
    ``CountSampler`` of ``transformed``, a chain equivalent to the h-transform
    of the base chain (such as ``alpha_walk`` for a boundary h on the uniform
    walk; establish that separately).  A chain without a sampler raises
    ``ValueError``.  ``kernel`` evaluates the Martin kernel of the base chain,
    in closed form at horizons too large for the exact DP
    (``closed_form_kernel`` for the uniform walk), so the base chain itself is
    not an argument.
    """
    import numpy as np
    if not h.supports(x):
        raise UnreachableStateError(f"{x} lies outside the support of {h.name}")
    if transformed.sampler is None:
        raise ValueError(f"{transformed.name} has no sampler to draw Y_n from")
    counts = transformed.sampler.sample_final_counts(n, seed, 0, replicates)
    values = np.array([float(kernel(x, State(n, tuple(row)))) for row in counts.tolist()])
    estimate = float(values.mean())
    spread = float(values.std(ddof=1)) if replicates > 1 else 0.0
    return MonteCarloResult(
        name=f"representation-mc[{h.name}]@({x}, n={n})",
        estimate=estimate,
        target=float(h(x)),
        std_error=spread / math.sqrt(replicates),
        replicates=replicates,
    )
