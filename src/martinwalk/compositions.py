"""Weak compositions with d parts: the lattice walk and its simplex boundary.

The level-n states are the vectors of d non-negative integers summing to n.
The uniform walk adds a uniformly chosen unit vector per step; conditioned
walks add e_j with probability alpha_j.  For this family everything has a
closed form:

    K(x, y)      = d^m * prod_i ff(y_i, x_i) / ff(n, m)       (falling factorials)
    K(x, alpha)  = d^m * prod_i alpha_i^{x_i}                  (simplex boundary)
    P(Y_n = y | Y_{n+1} = y + e_j) = (y_j + 1) / (n + 1)       (cotransitions)

with m = |x|, n = |y|.  The boundary kernel carries the d^m factor: it is
forced by the root normalization h(e) = 1, by harmonicity under the uniform
walk, and by the large-n limit of K(x, y) along rays y ~ n * alpha (all three
are enforced by the test suite).  The closed forms are exact rationals at
every level.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Iterable, Sequence

from .chain import GradedChain, IntRatio, State, replicate_rng, replicate_rows
from .prob import Prob, is_exact, validate_simplex

if TYPE_CHECKING:
    import numpy as np
    from .harmonic import HarmonicFn
else:
    from .chain import np


Composition = tuple[int, ...]


@lru_cache(maxsize=None)
def compositions(d: int, n: int) -> tuple[Composition, ...]:
    """All weak compositions of n with d parts, in ascending lexicographic order."""
    if d < 1:
        raise ValueError("need at least one part")
    if d == 1:
        return ((n,),)
    out = []
    for first in range(n + 1):
        out.extend((first,) + rest for rest in compositions(d - 1, n - first))
    return tuple(out)


def comp_state(parts: Iterable[int]) -> State:
    """Wrap a composition as a levelled state (level = coordinate sum)."""
    payload = tuple(int(p) for p in parts)
    if any(p < 0 for p in payload):
        raise ValueError(f"negative part in composition {payload}")
    return State(sum(payload), payload)


def _payload(x) -> Composition:
    return tuple(x.payload) if isinstance(x, State) else tuple(x)


class StepSampler:
    """``CountSampler`` of the walk: i.i.d. unit steps e_j with probability probs[j]."""

    __slots__ = ("probs",)

    def __init__(self, probs: tuple[float, ...]):
        self.probs = probs

    def sample_path_counts(self, n: int, seed: int, replicate: int) -> np.ndarray:
        import numpy as np
        d = len(self.probs)
        steps = replicate_rng(seed, replicate).choice(d, size=n, p=self.probs)
        counts = np.zeros((n + 1, d), dtype=np.int64)
        np.cumsum(steps[:, None] == np.arange(d), axis=0, out=counts[1:])
        return counts

    def sample_final_counts(self, n: int, seed: int, start: int, stop: int) -> np.ndarray:
        return replicate_rows(
            seed, start, stop, len(self.probs), lambda rng: rng.multinomial(n, self.probs)
        )


def _walk(alpha: tuple[Prob, ...], name: str) -> GradedChain:
    d = len(alpha)
    live = tuple(j for j in range(d) if alpha[j] != 0)
    dead = tuple(j for j in range(d) if alpha[j] == 0)

    def family(n: int) -> tuple[State, ...]:
        return tuple(
            State(n, c)
            for c in compositions(d, n)
            if all(c[j] == 0 for j in dead)
        )

    def successors(x: State):
        c, level = x.payload, x.level + 1
        return tuple((State(level, c[:j] + (c[j] + 1,) + c[j + 1 :]), alpha[j]) for j in live)

    return GradedChain(
        root=State(0, (0,) * d),
        family=family,
        successors=successors,
        name=name,
        sampler=StepSampler(tuple(float(a) for a in alpha)),
    )


def uniform_walk(d: int) -> GradedChain:
    """The walk with uniformly distributed unit-vector steps."""
    if d < 1:
        raise ValueError("need at least one part")
    alpha = (Fraction(1, d),) * d
    return _walk(alpha, name=f"uniform-walk(d={d})")


def alpha_walk(alpha: Sequence[Prob]) -> GradedChain:
    """The walk with step distribution alpha; zero-probability parts are pruned."""
    pt = validate_simplex(alpha)
    return _walk(pt, name=f"alpha-walk{tuple(map(str, pt))}")


def closed_form_kernel(x, y) -> Fraction:
    """Martin kernel of the uniform walk between compositions x and y, exact
    at every level: d^m prod_i ff(y_i, x_i) / ff(n, m), with ``math.perm`` for
    the falling factorials, and 0 whenever y does not dominate x."""
    cx, cy = _payload(x), _payload(y)
    if len(cx) != len(cy):
        raise ValueError(f"part counts differ: {cx} vs {cy}")
    m, n = sum(cx), sum(cy)
    if any(yi < xi for xi, yi in zip(cx, cy)):
        return Fraction(0)
    return Fraction(len(cx) ** m * math.prod(map(math.perm, cy, cx)), math.perm(n, m))


def closed_form_kernel_row(x, n: int) -> list[IntRatio]:
    """``closed_form_kernel(x, y)`` as an int pair for each y of
    ``compositions(d, n)`` in order, n >= |x|, with x's factors d^m and
    ff(n, m) taken once per row: a y that does not dominate x has
    ff(y_i, x_i) = 0 for some i, so a zero numerator over ff(n, m), and only
    the y = x + z, z in ``compositions(d, n - m)``, are multiplied out."""
    cx = _payload(x)
    d, m = len(cx), sum(cx)
    if n < m:
        raise ValueError(f"row level {n} below the level of {cx}")
    scale, den = d**m, math.perm(n, m)
    row = [(0, den)] * len(compositions(d, n))
    where = _positions(d, n)
    for z in compositions(d, n - m):
        cy = tuple(map(operator.add, cx, z))
        row[where[cy]] = (scale * math.prod(map(math.perm, cy, cx)), den)
    return row


@lru_cache(maxsize=None)
def _positions(d: int, n: int) -> dict[Composition, int]:
    """The index of each composition in ``compositions(d, n)``."""
    return {c: i for i, c in enumerate(compositions(d, n))}


def product_moment(point: Sequence[Prob], counts: Sequence[int]) -> Prob:
    """prod_j point_j^{c_j}, with 0^0 = 1 (zero counts are skipped).

    Exact points give an exact result and float points a float.  A scalar
    factor can lead the product as an extra coordinate (d with count m, a
    weight with count 1); float rounding then follows the factor-first order.
    """
    powers = [(a, c) for a, c in zip(point, counts) if c]
    if all(is_exact(a) for a, _ in powers):
        return Fraction(
            math.prod(a.numerator**c for a, c in powers),
            math.prod(a.denominator**c for a, c in powers),
        )
    value: Prob = Fraction(1)
    for a, c in powers:
        value *= a**c
    return value


def boundary_kernel(x, alpha: Sequence[Prob]) -> Prob:
    """Extended kernel K(x, alpha) = d^m * prod_i alpha_i^{x_i}, with 0^0 = 1."""
    return _boundary_kernel(_payload(x), validate_simplex(alpha))


def _boundary_kernel(cx: Composition, pt: tuple[Prob, ...]) -> Prob:
    if len(cx) != len(pt):
        raise ValueError(f"composition {cx} does not match a {len(pt)}-part simplex point")
    return product_moment((len(cx), *pt), (sum(cx), *cx))


def boundary_harmonic(alpha: Sequence[Prob]) -> HarmonicFn:
    """K(., alpha) as a normalized harmonic function of the uniform walk;
    alpha is validated once, not at every state, and an exact alpha's
    numerators and denominators are read once, so each value is one
    ``Fraction`` of two int products."""
    from .harmonic import HarmonicFn

    pt = validate_simplex(alpha)
    name = f"K(.,{tuple(map(str, pt))})"
    if not all(map(is_exact, pt)):
        return HarmonicFn(lambda state: _boundary_kernel(_payload(state), pt), name=name)
    d, nums, dens = len(pt), [a.numerator for a in pt], [a.denominator for a in pt]

    def value(state) -> Fraction:
        cx = _payload(state)
        if len(cx) != d:
            raise ValueError(f"composition {cx} does not match a {d}-part simplex point")
        return Fraction(d ** sum(cx) * math.prod(map(pow, nums, cx)), math.prod(map(pow, dens, cx)))

    return HarmonicFn(value, name=name)


def polya_cotransition(y, j: int) -> Fraction:
    """Closed-form backward law P(Y_n = y | Y_{n+1} = y + e_j), j being 1-based."""
    cy = _payload(y)
    if not 1 <= j <= len(cy):
        raise ValueError(f"direction {j} outside 1..{len(cy)}")
    return Fraction(cy[j - 1] + 1, sum(cy) + 1)


def rounded_ray_point(n: int, alpha: Sequence[Prob]) -> Composition:
    """The composition closest to n*alpha (largest-remainder rounding, sums to n)."""
    pt = validate_simplex(alpha)
    scaled = [n * Fraction(a) if isinstance(a, (Fraction, int)) else n * float(a) for a in pt]
    base = [math.floor(s) for s in scaled]
    short = n - sum(base)
    remainders = sorted(
        range(len(pt)), key=lambda i: (-(float(scaled[i]) - base[i]), i)
    )
    for i in remainders[:short]:
        base[i] += 1
    return tuple(base)


# -- work estimates -------------------------------------------------------------

#: estimated serial nanoseconds per unit of exact work, the one unit in which
#: ``verify`` deals out its families and ``verify`` and ``kernel`` are admitted:
#: a kernel pair at level n, counted (20 + n)/20 times as its ints gain a 30-bit
#: digit about every 20 levels; a path or word, per pass; a visit of a state or
#: of a kernel row or column; a value that ``kernel`` computes and writes.  The
#: first three were fitted once, by least squares on relative error, to the
#: best-of-3 serial in-process time of each ``verify`` family at 28 configs from
#: d=1/budget 150 to d=30/budget 2, the last timed on ``kernel`` at 149,000 to
#: 206,000 values (4.0 to 5.1 us each); all on one 2-core x86-64, Python 3.11
PAIR_NS, PATH_NS, STATE_NS, WRITTEN_NS = 230, 1_300, 9_300, 4_300


def kernel_pair_count(d: int, budget: int) -> int:
    """Number of pairs (x, y) of d-part compositions with |x| <= |y| <= budget."""
    sizes = [math.comb(n + d - 1, d - 1) for n in range(budget + 1)]
    return sum(size * sum(sizes[m:]) for m, size in enumerate(sizes))


def kernel_row_count(d: int, budget: int) -> int:
    """Number of kernel rows (x, n) with |x| <= n <= budget."""
    return math.comb(budget + d + 1, d + 1)


def work_ns(pairs: int = 0, paths: int = 0, states: int = 0, written: int = 0) -> int:
    """Estimated serial nanoseconds of work over these many units, as an int
    however large the counts."""
    return pairs * PAIR_NS + paths * PATH_NS + states * STATE_NS + written * WRITTEN_NS
