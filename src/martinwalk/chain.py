"""Level-graded Markov chains with exact forward and backward laws.

A graded chain lives on a combinatorial family F = union of finite levels
F_0, F_1, ..., starts at the unique root e in F_0, and moves one level up
per step.  Because time equals level, every conditional law reduces to
finite dynamic programming, and with rational step probabilities every
quantity here (forward laws, Martin kernel, cotransitions, cylinder atoms)
is computed exactly.

The Martin kernel is

    K(x, y) = P(Y_n = y | Y_m = x) / P(Y_n = y)        (x at level m <= n)

with K(x, y) = 0 when levels are incompatible.  ``backward_conditional``
computes the equivalent form P(Y_m = x | Y_n = y) / P(Y_m = x) through
chained cotransitions, which gives an independent route for testing.  Both
directions are the same DP step over int laws (``DistributionTable``).
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, Iterator, NamedTuple, Optional, Protocol, Sequence

from .errors import (
    BudgetExceededError,
    NonStochasticError,
    UnreachableStateError,
)
from .prob import Prob, format_prob, is_exact
from .reports import CheckReport


class _NumpyOnDemand:
    """``np`` where only annotations name it: reading an attribute imports
    numpy, so ``typing.get_type_hints`` resolves ``np.ndarray`` while
    importing the package still loads no numpy."""

    def __getattr__(self, name: str):
        if name.startswith("__"):
            # introspection, such as hasattr(x, "__wrapped__"), loads nothing
            raise AttributeError(name)
        import numpy

        return getattr(numpy, name)


if TYPE_CHECKING:
    import numpy as np
else:
    np = _NumpyOnDemand()

#: most paths or words one exact enumeration builds: ``cylinder_law`` here,
#: the word laws of ``definetti``
DEFAULT_ATOM_BUDGET = 10_000_000


class State(NamedTuple):
    """A state together with its level (its time coordinate)."""

    level: int
    payload: Any

    def __str__(self) -> str:
        return f"{self.payload}@{self.level}"


Successors = Sequence[tuple[State, Prob]]

#: an exact ratio a / b as the int pair (a, b), b > 0
IntRatio = tuple[int, int]


def replicate_rng(seed: int, replicate: int = 0) -> np.random.Generator:
    """The fixed stream-splitting rule: one independent stream per (seed, replicate)."""
    import numpy as np
    if seed < 0 or replicate < 0:
        raise ValueError("seed and replicate index must be non-negative")
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, replicate)))


def replicate_rows(
    seed: int, start: int, stop: int, width: int, draw: Callable[[np.random.Generator], Any]
) -> np.ndarray:
    """Row i is ``draw(replicate_rng(seed, start + i))``: replicates start..stop-1
    as a (stop - start, width) int64 array, each row from its own stream alone,
    so rows never depend on how the replicate range is split."""
    import numpy as np
    out = np.empty((stop - start, width), dtype=np.int64)
    for i, r in enumerate(range(start, stop)):
        out[i] = draw(replicate_rng(seed, r))
    return out


class CountSampler(Protocol):
    """Array-native sampler of a chain whose payloads are count vectors in N^d.

    Replicate r draws from ``replicate_rng(seed, r)`` only.  Every source
    kind in ``definetti`` meets the ``sample_final_counts`` half.
    """

    def sample_path_counts(self, n: int, seed: int, replicate: int) -> np.ndarray:
        """Payloads of Y_0, ..., Y_n as an int64 array of shape (n + 1, d)."""

    def sample_final_counts(self, n: int, seed: int, start: int, stop: int) -> np.ndarray:
        """Payloads of Y_n for replicates start..stop-1, int64 of shape (stop - start, d)."""


class DistributionTable:
    """An exact law: positive int numerators over one denominator ``den``.

    Keys are the states of Y_n for a level law, or the tuples (Y_1, ..., Y_n)
    of a path law and (X_1, ..., X_n) of a word law, with ``level`` = n.  The
    table is in lowest terms, gcd(den, *nums) == 1, and stores no zero, so
    its keys are its support.  ``ratio`` and ``atoms`` build ``Fraction``s.
    """

    __slots__ = ("level", "nums", "den")

    def __init__(self, level: int, nums: dict[Any, int], den: int = 1):
        self.level = level
        self.nums = nums
        self.den = den

    def __eq__(self, other):
        if type(other) is not DistributionTable:
            return NotImplemented
        return (self.level, self.den, self.nums) == (other.level, other.den, other.nums)

    @classmethod
    def reduced(cls, level: int, nums: dict[Any, int], den: int) -> DistributionTable:
        """The law nums / den in lowest terms; nums holds no zero."""
        g = math.gcd(den, *nums.values())
        if g == 1:
            return cls(level, dict(nums), den)
        return cls(level, {key: num // g for key, num in nums.items()}, den // g)

    def __contains__(self, key) -> bool:
        """Whether the key has positive mass."""
        return key in self.nums

    def ratio(self, other: DistributionTable, state: State) -> Prob:
        """The mass of state here over its mass in other: a single
        ``Fraction`` of numerators and denominators."""
        return Fraction(self.nums.get(state, 0) * other.den, self.den * other.nums.get(state, 0))

    @property
    def atoms(self) -> dict[Any, Prob]:
        """Each key's probability as a ``Fraction``."""
        return {key: Fraction(num, self.den) for key, num in self.nums.items()}

    def total(self) -> Fraction:
        return Fraction(sum(self.nums.values()), self.den)

    def pairs(self, other: DistributionTable) -> Iterator[tuple[Any, IntRatio, IntRatio]]:
        """(key, mass here, mass in other), each mass an int pair over its own
        table's ``den`` and 0 off its support, over the sorted union of the two
        supports: the checks that the two laws are equal."""
        mine, theirs = self.nums, other.nums
        for key in sorted([*mine, *(theirs.keys() - mine.keys())]):
            yield key, (mine.get(key, 0), self.den), (theirs.get(key, 0), other.den)

    def push(self, f: Callable[[Any], Any]) -> DistributionTable:
        """The image law under the key map f, in lowest terms: each image key
        carries the mass of its preimage."""
        nums: dict[Any, int] = defaultdict(int)
        for key, num in self.nums.items():
            nums[f(key)] += num
        return DistributionTable.reduced(self.level, nums, self.den)

    def __len__(self) -> int:
        return len(self.nums)


class GradedChain:
    """A chain specified by its level enumerator and one-step successor law.

    Parameters
    ----------
    root:
        The unique level-0 state.
    family:
        Maps a level n to the complete enumeration of F_n, in a fixed
        deterministic (lexicographic) order.  Any level may be asked for:
        what a level costs is for the caller to admit.
    successors:
        Maps a state at level n to its (state, probability) row at level
        n+1, with exact (``Fraction`` or int) probabilities summing to 1: a
        float step probability raises ``ValueError`` when the row is built,
        so a chain with float steps can only be sampled.
    sampler:
        Optional ``CountSampler`` for chains whose payloads are count
        vectors; a chain without one cannot be sampled.

    Forward and conditional laws share one memo: ``_cond[x]`` maps levels
    to the law of Y_n given Y_m = x, and the forward law is the entry of
    the root, so ``conditional_law(root, n)`` is ``forward_law(n)``.  These
    laws are int numerators over one denominator per table (see
    ``DistributionTable``).  Backward laws are tables too, in one memo:
    ``_back[y]`` maps levels m to the law of Y_m given Y_n = y, and its entry
    one level below y is the cotransition.

    Instances are immutable apart from internal memo tables; sharing across
    threads is safe (a lost cache write just means recomputation).
    """

    def __init__(
        self,
        root: State,
        family: Callable[[int], Sequence[State]],
        successors: Callable[[State], Successors],
        name: str = "chain",
        sampler: Optional[CountSampler] = None,
    ):
        self.root = root
        self.name = name
        self._family = family
        self._successors = successors
        self.sampler = sampler
        self._levels: dict[int, tuple[State, ...]] = {0: (root,)}
        self._exact_rows: dict[State, DistributionTable] = {}
        self._cond: dict[State, dict[int, DistributionTable]] = {
            root: {0: DistributionTable(0, {root: 1})}
        }
        self._back: dict[State, dict[int, DistributionTable]] = {}

    def __repr__(self) -> str:
        return f"GradedChain({self.name!r})"

    # -- enumeration and one-step law ------------------------------------

    def enumerate_level(self, n: int) -> tuple[State, ...]:
        """The complete enumeration of F_n in deterministic order."""
        if n < 0:
            raise ValueError(f"negative level {n}")
        if n not in self._levels:
            states = tuple(self._family(n))
            for s in states:
                if s.level != n:
                    raise ValueError(f"family returned {s} while enumerating level {n}")
            self._levels[n] = states
        return self._levels[n]

    def successors(self, x: State) -> tuple[tuple[State, Prob], ...]:
        """The one-step row out of x, validated to be exact and to sum to 1 in
        ints over the lcm of its denominators; those ints are kept as its
        ``exact_row``, the memo every law is built from."""
        row = tuple(self._successors(x))
        for y, p in row:
            if not is_exact(p):
                raise ValueError(f"float step probability {p!r} at {x} -> {y}: laws are exact")
        den = math.lcm(*(p.denominator for _, p in row))
        nums = [p.numerator * (den // p.denominator) for _, p in row]
        if sum(nums) != den:
            raise NonStochasticError(
                f"row out of {x} sums to {format_prob(Fraction(sum(nums), den))} in {self.name}"
            )
        for (y, _), num in zip(row, nums):
            if num < 0:
                raise NonStochasticError(f"negative step probability at {x} -> {y}")
            if y.level != x.level + 1:
                raise ValueError(f"successor {y} of {x} is not one level up")
        positive = {y: num for (y, _), num in zip(row, nums) if num}
        self._exact_rows[x] = DistributionTable(x.level + 1, positive, den)
        return row

    def exact_row(self, x: State) -> DistributionTable:
        """The row out of x as a law on level(x) + 1: its positive step
        probabilities over the lcm of their denominators, which leaves it in
        lowest terms."""
        table = self._exact_rows.get(x)
        if table is None:
            self.successors(x)
            table = self._exact_rows[x]
        return table

    # -- forward laws ------------------------------------------------------

    @staticmethod
    def _advance(
        table: DistributionTable, row_of: Callable[[State], DistributionTable], level: int
    ) -> DistributionTable:
        """The one DP step: the law on ``level`` of the state that each key z
        of ``table`` moves to by the law ``row_of(z)``, in lowest terms.

        Forward rows step up a level and cotransitions step down one."""
        rows = [row_of(z) for z in table.nums]
        scale = math.lcm(*(row.den for row in rows))
        nxt: dict[State, int] = defaultdict(int)
        for p, row in zip(table.nums.values(), rows):
            p *= scale // row.den
            for y, q in row.nums.items():
                nxt[y] += p * q
        return DistributionTable.reduced(level, nxt, table.den * scale)

    def _propagate(self, memo: dict[int, DistributionTable], n: int) -> DistributionTable:
        """Extend a {level: law} memo, which lacks level n, level by level up to n.

        The one forward DP: forward and conditional laws both come from here.
        """
        table = memo[max(k for k in memo if k <= n)]
        for k in range(table.level, n):
            table = memo[k + 1] = self._advance(table, self.exact_row, k + 1)
        return table

    def forward_law(self, n: int) -> DistributionTable:
        """P(Y_n = .) by level-by-level dynamic programming from the root."""
        memo = self._cond[self.root]
        return memo[n] if n in memo else self._propagate(memo, n)

    def conditional_law(self, x: State, n: int) -> DistributionTable:
        """P(Y_n = . | Y_m = x) for x at level m <= n."""
        if x.level > n:
            raise ValueError(f"conditional horizon {n} below level of {x}")
        per_state = self._cond.get(x)
        if per_state is None:
            if x not in self.forward_law(x.level):
                raise UnreachableStateError(f"conditioning on unreachable state {x}")
            per_state = self._cond[x] = {x.level: DistributionTable(x.level, {x: 1})}
        return per_state[n] if n in per_state else self._propagate(per_state, n)

    # -- kernel and cotransitions -----------------------------------------

    def martin_kernel(self, x: State, y: State) -> Prob:
        """K(x, y); raises on conditioning or targeting an unreachable state."""
        if x.level > y.level:
            return 0
        if x not in self.forward_law(x.level):
            raise UnreachableStateError(f"unreachable conditioning state {x}")
        law = self.forward_law(y.level)
        if y not in law:
            raise UnreachableStateError(f"unreachable target state {y}")
        return self.conditional_law(x, y.level).ratio(law, y)

    def kernel_row(self, x: State, n: int) -> dict[State, IntRatio]:
        """K(x, .) on level n >= level(x): for every y with P(Y_n = y) > 0, the
        int pair (N_cond * D_fwd, D_cond * N_fwd) of the ``martin_kernel``
        ratio, and (0, 1) where y cannot follow x, so only the support of the
        conditional law is multiplied out.  The one place the kernel formula is
        written out."""
        law = self.forward_law(n)
        cond = self.conditional_law(x, n)
        row = dict.fromkeys(law.nums, (0, 1))
        for y, num in cond.nums.items():
            row[y] = (num * law.den, cond.den * law.nums[y])
        return row

    def _backward_memo(self, y: State) -> dict[int, DistributionTable]:
        """{m: P(Y_m = . | Y_n = y)} for a reachable y at level n, from the point
        mass at y; only a reachable y gets one."""
        memo = self._back.get(y)
        if memo is None:
            memo = self._back[y] = {y.level: DistributionTable(y.level, {y: 1})}
        return memo

    def cotransition(self, y: State) -> DistributionTable:
        """P(Y_{n-1} = . | Y_n = y), the backward one-step law: the entry one
        level below y of its backward memo.

        The first call on level n fills that entry for every reachable state
        there at once: the joint masses P(Y_{n-1} = x, Y_n = y), as numerators
        over one denominator, divided by their sum."""
        memo = self._back.get(y)
        if memo is not None and y.level - 1 in memo:
            return memo[y.level - 1]
        if y.level == 0:
            raise ValueError(f"no level below {y}")
        if y not in self.forward_law(y.level):
            raise UnreachableStateError(f"unreachable conditioning state {y}")
        memo = self._backward_memo(y)
        if y.level - 1 not in memo:
            below = self.forward_law(y.level - 1)
            rows = [self.exact_row(x) for x in below.nums]
            scale = math.lcm(*(row.den for row in rows))
            joint: dict[State, dict[State, int]] = defaultdict(dict)
            for (x, p), row in zip(below.nums.items(), rows):
                p *= scale // row.den
                for z, q in row.nums.items():
                    joint[z][x] = p * q
            for z, masses in joint.items():
                back = DistributionTable.reduced(z.level - 1, masses, sum(masses.values()))
                self._backward_memo(z)[z.level - 1] = back
        return memo[y.level - 1]

    def backward_conditional(self, y: State, m: int) -> DistributionTable:
        """P(Y_m = . | Y_n = y) for y at level n >= m: the one DP step run
        downward over cotransitions.

        Deliberately does not reuse the forward conditional law, so the two
        expressions for the Martin kernel can be compared as independent
        computations.
        """
        if m > y.level:
            raise ValueError(f"backward horizon {m} above level of {y}")
        memo = self._back.get(y)
        if memo is not None and m in memo:
            return memo[m]
        if y not in self.forward_law(y.level):
            raise UnreachableStateError(f"unreachable conditioning state {y}")
        memo = self._backward_memo(y)
        table = memo[min(k for k in memo if k >= m)]
        for k in range(table.level, m, -1):
            table = memo[k - 1] = self._advance(table, self.cotransition, k - 1)
        return table

    # -- path space ---------------------------------------------------------

    def cylinder_law(self, n: int) -> DistributionTable:
        """Exact probability of every root-anchored path (Y_1, ..., Y_n), keyed
        by the path tuple (the root is implicit) in sorted order.

        Exponential by design: the brute-force oracle that the dynamic-programming
        routes are tested against.  Paths grow level by level by the int rows of
        ``exact_row``.  Raises ``BudgetExceededError`` before building any path
        when there are more than ``DEFAULT_ATOM_BUDGET`` paths, counted level by level.
        """
        counts: dict[State, int] = {self.root: 1}
        for _ in range(n):
            nxt: dict[State, int] = defaultdict(int)
            for z, c in counts.items():
                for y in self.exact_row(z).nums:
                    nxt[y] += c
            counts = nxt
        if sum(counts.values()) > DEFAULT_ATOM_BUDGET:
            raise BudgetExceededError(
                f"cylinder law at horizon {n} exceeds atom budget {DEFAULT_ATOM_BUDGET}"
            )
        # sorted prefixes, each extended by its sorted row, stay sorted
        paths: dict[tuple[State, ...], int] = {(): 1}
        den = 1
        for _ in range(n):
            ends = dict.fromkeys(path[-1] if path else self.root for path in paths)
            rows = {z: self.exact_row(z) for z in ends}
            scale = math.lcm(*(row.den for row in rows.values()))
            steps = {z: sorted(row.nums.items()) for z, row in rows.items()}
            nxt_paths: dict[tuple[State, ...], int] = {}
            for path, num in paths.items():
                end = path[-1] if path else self.root
                num *= scale // rows[end].den
                for y, q in steps[end]:
                    nxt_paths[path + (y,)] = num * q
            paths, den = nxt_paths, den * scale
        g = math.gcd(den, *paths.values())
        if g > 1:
            for path in paths:
                paths[path] //= g
        return DistributionTable(n, paths, den // g)

    # -- sampling ------------------------------------------------------------

    def sample_path(self, n: int, seed: int, replicate: int = 0) -> np.ndarray:
        """One trajectory (Y_0, ..., Y_n) as the sampler's (n + 1, d) int64
        count array; same (seed, replicate) gives the same path."""
        if self.sampler is None:
            raise ValueError(f"{self.name} has no sampler")
        return self.sampler.sample_path_counts(n, seed, replicate)

    # -- on-demand structural checks -----------------------------------------

    def check_row_stochastic(self, max_level: int) -> CheckReport:
        report = CheckReport(f"row-stochasticity[{self.name}]")
        for n in range(max_level):
            for x in self.enumerate_level(n):
                row = self.exact_row(x)  # raises NonStochasticError on failure
                total = (sum(row.nums.values()), row.den)
                report.record_ratio(lambda: f"row-sum@{x}", (1, 1), total)
        return report

    def check_weak_irreducibility(self, max_level: int) -> CheckReport:
        """P(Y_n = x) > 0 for every enumerated state up to max_level."""
        report = CheckReport(f"weak-irreducibility[{self.name}]")
        for n in range(max_level + 1):
            law = self.forward_law(n)
            for x in self.enumerate_level(n):
                report.require(lambda: f"P(Y_{n}={x})>0", x in law, 1, 0)
        return report


def kernel_rows(
    chain: GradedChain, max_level: int
) -> Iterator[tuple[State, int, dict[State, IntRatio]]]:
    """(x, n, K(x, .) on level n) for every reachable x and every n from
    level(x) to max_level: by level of x, then x, then n, each level in
    enumeration order.  The one walk over kernel rows."""
    for m in range(max_level + 1):
        law = chain.forward_law(m)
        for x in chain.enumerate_level(m):
            if x in law:
                for n in range(m, max_level + 1):
                    yield x, n, chain.kernel_row(x, n)


def kernel_mean(row: dict[State, IntRatio], table: DistributionTable) -> IntRatio:
    """sum_y K(x, y) table(y) for a kernel row of x and a law on the row's
    level, as one int pair over the lcm of the terms' denominators, which
    grows term by term."""
    num, den = 0, 1
    for y, q in table.nums.items():
        a, b = row[y]
        if a:
            scale = math.lcm(den, b)
            num, den = num * (scale // den) + a * q * (scale // b), scale
    return num, den * table.den


def markov_property_check(law: DistributionTable) -> CheckReport:
    """Compare next-step conditionals given the full history and given the state.

    ``law`` is a path law.  Lists every triple (history, x_k, x_{k+1}) where
    the two conditionals disagree; an empty report is equivalent to the Markov
    property for the given horizon.  Each conditional is a ratio of two ``push``
    tables, each in its own lowest terms, so the check compares cross-products.
    Each prefix law is pushed from the next longer one, and the state and pair
    laws at step k from the prefixes of lengths k and k + 1.  The checks of
    one step k form one stream.
    """
    if law.level < 2:
        raise ValueError(f"need horizon >= 2 to test the Markov property, got {law.level}")
    if sum(law.nums.values()) != law.den:
        raise NonStochasticError(f"cylinder atoms sum to {format_prob(law.total())}")
    report = CheckReport("markov-property")
    # prefixes[k] is the law of (Y_1, ..., Y_{k+1})
    prefixes = [law]
    for k in range(law.level - 1, 0, -1):
        prefixes.append(prefixes[-1].push(lambda path: path[:k]))
    prefixes.reverse()
    for k in range(1, law.level):
        prefix, extended = prefixes[k - 1], prefixes[k]
        state = prefix.push(lambda path: path[-1])
        pair = extended.push(lambda path: path[-2:])
        report.record_ratios(
            lambda ext: f"history={ext[:k]} -> {ext[k]}",
            (
                (
                    ext,
                    (pair.nums[ext[k - 1 :]] * state.den, pair.den * state.nums[ext[k - 1]]),
                    (num * prefix.den, extended.den * prefix.nums[ext[:k]]),
                )
                for ext, num in sorted(extended.nums.items())
            ),
        )
    return report
