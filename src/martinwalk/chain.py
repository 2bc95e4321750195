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
chained cotransitions, which gives an independent route for testing.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterator, NamedTuple, Optional, Protocol, Sequence

import numpy as np

from .errors import (
    BudgetExceededError,
    NonStochasticError,
    UnreachableStateError,
)
from .prob import Prob, format_prob, is_exact, probs_equal
from .reports import CheckReport

#: most paths or words one exact enumeration builds: ``cylinder_law`` here,
#: the word laws of ``definetti``
DEFAULT_ATOM_BUDGET = 10_000_000

#: the kernel value of every pair that no path joins
_ZERO = Fraction(0)


class State(NamedTuple):
    """A state together with its level (its time coordinate)."""

    level: int
    payload: Any

    def __str__(self) -> str:
        return f"{self.payload}@{self.level}"


Successors = Sequence[tuple[State, Prob]]


def replicate_rng(seed: int, replicate: int = 0) -> np.random.Generator:
    """The fixed stream-splitting rule: one independent stream per (seed, replicate)."""
    if seed < 0 or replicate < 0:
        raise ValueError("seed and replicate index must be non-negative")
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, replicate)))


def replicate_rows(
    seed: int, start: int, stop: int, width: int, draw: Callable[[np.random.Generator], Any]
) -> np.ndarray:
    """Row i is ``draw(replicate_rng(seed, start + i))``: replicates start..stop-1
    as a (stop - start, width) int64 array, each row from its own stream alone,
    so rows never depend on how the replicate range is split."""
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


class CountPath(Sequence[State]):
    """A sampled path Y_0, ..., Y_n read as states from its (n + 1, d) count
    array: a state is built only when it is read, so ``path[-1]`` costs one."""

    def __init__(self, counts: np.ndarray):
        self._counts = counts

    def __len__(self) -> int:
        return len(self._counts)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(len(self)))]
        k = range(len(self))[index]
        return State(k, tuple(self._counts[k].tolist()))

    def __iter__(self) -> Iterator[State]:
        return map(State, range(len(self)), map(tuple, self._counts.tolist()))

    def __eq__(self, other) -> bool:
        """Equal to a path with the same counts, or to a list of the same states."""
        if isinstance(other, CountPath):
            return np.array_equal(self._counts, other._counts)
        return list(self) == other


@dataclass(frozen=True)
class DistributionTable:
    """Law of Y_n on its positive-probability states, unless zeros were requested.

    An exact table holds int numerators over one denominator ``den``, in lowest
    terms across the table: gcd(den, *nums) == 1.  A table reached through a
    float step probability holds the probabilities themselves, and ``den`` is
    None.  ``prob`` and ``probs`` build the ``Fraction`` of an exact entry.
    """

    level: int
    nums: dict[State, Prob]
    den: Optional[int] = 1

    def prob(self, state: State) -> Prob:
        if state.level != self.level:
            return 0
        num = self.nums.get(state, 0)
        return num if self.den is None or not num else Fraction(num, self.den)

    def __contains__(self, state: State) -> bool:
        """Whether the state has positive mass."""
        return bool(self.nums.get(state))

    def ratio(
        self, other: DistributionTable, state: State, other_state: Optional[State] = None
    ) -> Prob:
        """self.prob(state) / other.prob(other_state), other_state defaulting to
        state: a single ``Fraction`` of numerators and denominators when both
        tables are exact."""
        other_state = state if other_state is None else other_state
        if self.den is None or other.den is None:
            return self.prob(state) / other.prob(other_state)
        return Fraction(
            self.nums.get(state, 0) * other.den, self.den * other.nums.get(other_state, 0)
        )

    @property
    def probs(self) -> dict[State, Prob]:
        return {s: self.prob(s) for s in self.nums}

    def items(self):
        return self.probs.items()

    def total(self) -> Prob:
        total = sum(self.nums.values())
        return total if self.den is None else Fraction(total, self.den)

    @property
    def support(self) -> tuple[State, ...]:
        return tuple(s for s, p in self.nums.items() if p != 0)

    def __len__(self) -> int:
        return len(self.nums)


@dataclass(frozen=True)
class CylinderLaw:
    """Exact law of the root-anchored path (Y_1, ..., Y_n).

    Atoms are keyed by the path tuple; the root (level 0) is implicit.  The
    same container doubles as the joint law of a symbol sequence, in which
    case the keys are tuples of symbols rather than of states.
    """

    horizon: int
    atoms: dict[tuple, Prob]

    def total(self) -> Prob:
        return sum(self.atoms.values())

    def marginal(self, k: int) -> dict:
        """Distribution of the k-th path entry, 1-indexed (k=0 gives the root mass)."""
        if not 0 <= k <= self.horizon:
            raise ValueError(f"marginal index {k} outside horizon {self.horizon}")
        out: dict[Any, Prob] = defaultdict(int)
        for path, p in self.atoms.items():
            key = path[k - 1] if k >= 1 else None
            out[key] += p
        return dict(out)

    def pair_marginal(self, k: int) -> dict[tuple, Prob]:
        """Joint law of entries k and k+1 (1-indexed)."""
        if not 1 <= k < self.horizon:
            raise ValueError(f"pair index {k} outside horizon {self.horizon}")
        out: dict[tuple, Prob] = defaultdict(int)
        for path, p in self.atoms.items():
            out[(path[k - 1], path[k])] += p
        return dict(out)

    def prefix_masses(self, k: int) -> dict[tuple, Prob]:
        """Total mass of each length-k prefix."""
        out: dict[tuple, Prob] = defaultdict(int)
        for path, p in self.atoms.items():
            out[path[:k]] += p
        return dict(out)


class GradedChain:
    """A chain specified by its level enumerator and one-step successor law.

    Parameters
    ----------
    root:
        The unique level-0 state.
    family:
        Maps a level n to the complete enumeration of F_n, in a fixed
        deterministic (lexicographic) order.  Only consulted for levels
        up to ``level_budget``.
    successors:
        Maps a state at level n to its (state, probability) row at level
        n+1.  This is the only thing samplers need, so paths may extend
        past ``level_budget`` when states can be built lazily.
    level_budget:
        Maximum level for exact enumeration (family calls, forward laws,
        kernels).
    sampler:
        Optional ``CountSampler`` for chains whose payloads are count
        vectors; ``sample_path`` and ``sample_final`` then read its arrays
        as states instead of stepping through ``successors``.

    Forward and conditional laws share one memo: ``_cond[x]`` maps levels
    to the law of Y_n given Y_m = x, and the forward law is the entry of
    the root, so ``conditional_law(root, n)`` is ``forward_law(n)``.  While
    every step probability is exact, these laws are int numerators over one
    denominator per table (see ``DistributionTable``).

    Instances are immutable apart from internal memo tables; sharing across
    threads is safe (a lost cache write just means recomputation).
    """

    def __init__(
        self,
        root: State,
        family: Callable[[int], Sequence[State]],
        successors: Callable[[State], Successors],
        level_budget: int,
        name: str = "chain",
        sampler: Optional[CountSampler] = None,
    ):
        self.root = root
        self.level_budget = level_budget
        self.name = name
        self._family = family
        self._successors = successors
        self.sampler = sampler
        self._levels: dict[int, tuple[State, ...]] = {0: (root,)}
        self._rows: dict[State, tuple[tuple[State, Prob], ...]] = {}
        self._exact_rows: dict[State, Optional[tuple[int, tuple[tuple[State, int], ...]]]] = {}
        self._preds: dict[int, dict[State, tuple[tuple[State, Prob], ...]]] = {}
        self._cond: dict[State, dict[int, DistributionTable]] = {
            root: {0: DistributionTable(0, {root: 1})}
        }
        self._back: dict[State, dict[int, dict[State, Prob]]] = {}
        self._cotransitions: dict[tuple[State, State], Prob] = {}

    def __repr__(self) -> str:
        return f"GradedChain({self.name!r}, budget={self.level_budget})"

    # -- enumeration and one-step law ------------------------------------

    def enumerate_level(self, n: int) -> tuple[State, ...]:
        """The complete enumeration of F_n in deterministic order."""
        if n < 0:
            raise ValueError(f"negative level {n}")
        if n > self.level_budget:
            raise BudgetExceededError(
                f"level {n} exceeds enumeration budget {self.level_budget} for {self.name}"
            )
        if n not in self._levels:
            states = tuple(self._family(n))
            for s in states:
                if s.level != n:
                    raise ValueError(f"family returned {s} while enumerating level {n}")
            self._levels[n] = states
        return self._levels[n]

    def successors(self, x: State) -> tuple[tuple[State, Prob], ...]:
        """The one-step row out of x; validated to sum to 1."""
        cached = self._rows.get(x)
        if cached is not None:
            return cached
        row = tuple(self._successors(x))
        total = sum(p for _, p in row)
        if not probs_equal(total, 1):
            raise NonStochasticError(
                f"row out of {x} sums to {format_prob(total)} in {self.name}"
            )
        for y, p in row:
            if p < 0:
                raise NonStochasticError(f"negative step probability at {x} -> {y}")
            if y.level != x.level + 1:
                raise ValueError(f"successor {y} of {x} is not one level up")
        if x.level < self.level_budget:
            self._rows[x] = row
        return row

    def _exact_row(self, x: State) -> Optional[tuple[int, tuple[tuple[State, int], ...]]]:
        """The row out of x as (den, ((y, num), ...)), its positive step
        probabilities num / den over the lcm of their denominators; None when
        a step probability is a float."""
        if x in self._exact_rows:
            return self._exact_rows[x]
        row = [(y, q) for y, q in self.successors(x) if q != 0]
        exact = None
        if all(is_exact(q) for _, q in row):
            den = math.lcm(*(q.denominator for _, q in row))
            exact = den, tuple((y, q.numerator * (den // q.denominator)) for y, q in row)
        self._exact_rows[x] = exact
        return exact

    def step(self, x: State, y: State) -> Prob:
        """One-step transition probability, 0 unless level(y) = level(x) + 1."""
        if y.level != x.level + 1:
            return 0
        for z, p in self.successors(x):
            if z == y:
                return p
        return 0

    def predecessors(self, y: State) -> tuple[tuple[State, Prob], ...]:
        """Enumerated states one level below y with a positive step into y."""
        if y.level == 0:
            return ()
        table = self._preds.get(y.level)
        if table is None:
            grouped: dict[State, list[tuple[State, Prob]]] = defaultdict(list)
            for w in self.enumerate_level(y.level - 1):
                for z, q in self.successors(w):
                    if q != 0:
                        grouped[z].append((w, q))
            table = {z: tuple(rows) for z, rows in grouped.items()}
            self._preds[y.level] = table
        return table.get(y, ())

    # -- forward laws ------------------------------------------------------

    def _propagate(self, memo: dict[int, DistributionTable], n: int) -> DistributionTable:
        """Extend a {level: law} memo, which lacks level n, level by level up to n.

        The one forward DP: forward and conditional laws both come from here.
        """
        table = memo[max(k for k in memo if k <= n)]
        for k in range(table.level, n):
            nxt: dict[State, Prob] = defaultdict(int)
            rows = None if table.den is None else [self._exact_row(z) for z in table.nums]
            if rows is not None and None not in rows:
                # exact: one int denominator for the level, reduced by the gcd
                scale = math.lcm(*(row_den for row_den, _ in rows))
                for p, (row_den, row) in zip(table.nums.values(), rows):
                    p *= scale // row_den
                    for y, q in row:
                        nxt[y] += p * q
                den = table.den * scale
                g = math.gcd(den, *nxt.values())
                table = DistributionTable(k + 1, {y: v // g for y, v in nxt.items()}, den // g)
            else:
                # a float step probability: float laws from this level on
                for z, p in table.probs.items():
                    for y, q in self.successors(z):
                        if q != 0:
                            nxt[y] += p * q
                table = DistributionTable(k + 1, dict(nxt), None)
            memo[k + 1] = table
        return memo[n]

    def forward_law(self, n: int, include_zeros: bool = False) -> DistributionTable:
        """P(Y_n = .) by level-by-level dynamic programming from the root."""
        if n > self.level_budget:
            raise BudgetExceededError(
                f"forward law at level {n} exceeds budget {self.level_budget}"
            )
        memo = self._cond[self.root]
        table = memo[n] if n in memo else self._propagate(memo, n)
        if include_zeros:
            padded = {s: table.nums.get(s, 0) for s in self.enumerate_level(n)}
            return DistributionTable(n, padded, table.den)
        return table

    def conditional_law(self, x: State, n: int) -> DistributionTable:
        """P(Y_n = . | Y_m = x) for x at level m <= n."""
        if n > self.level_budget:
            raise BudgetExceededError(
                f"conditional law at level {n} exceeds budget {self.level_budget}"
            )
        if x.level > n:
            raise ValueError(f"conditional horizon {n} below level of {x}")
        if x not in self.forward_law(x.level):
            raise UnreachableStateError(f"conditioning on unreachable state {x}")
        per_state = self._cond.setdefault(x, {x.level: DistributionTable(x.level, {x: 1})})
        return per_state[n] if n in per_state else self._propagate(per_state, n)

    def conditional_forward(self, x: State, y: State) -> Prob:
        """P(Y_n = y | Y_m = x); 1 when x == y, 0 when y is below x."""
        if y.level < x.level:
            return 0
        return self.conditional_law(x, y.level).prob(y)

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

    def kernel_row(self, x: State, n: int) -> dict[State, Prob]:
        """K(x, .) on level n >= level(x): every y with P(Y_n = y) > 0, at 0
        where y cannot follow x.  Each entry is the ``martin_kernel`` formula,
        one ``Fraction`` N_cond * D_fwd / (D_cond * N_fwd) on exact laws, built
        only for the y that x reaches."""
        law = self.forward_law(n)
        cond = self.conditional_law(x, n)
        if law.den is None or cond.den is None:
            return {y: cond.ratio(law, y) for y in law.nums}
        row = dict.fromkeys(law.nums, _ZERO)
        for y, num in cond.nums.items():
            row[y] = Fraction(num * law.den, cond.den * law.nums[y])
        return row

    def cotransition(self, y: State, x: State) -> Prob:
        """P(Y_n = x | Y_{n+1} = y), the backward one-step law; one memo entry per edge."""
        value = self._cotransitions.get((y, x))
        if value is not None:
            return value
        if x.level != y.level - 1:
            raise ValueError(f"{x} is not one level below {y}")
        law_y, law_x = self.forward_law(y.level), self.forward_law(x.level)
        if y not in law_y:
            raise UnreachableStateError(f"unreachable conditioning state {y}")
        value = self.step(x, y) * law_x.ratio(law_y, x, y) if x in law_x else 0
        self._cotransitions[(y, x)] = value
        return value

    def backward_conditional(self, y: State, x: State) -> Prob:
        """P(Y_m = x | Y_n = y) built by chaining cotransitions downward.

        Deliberately does not reuse the forward conditional law, so the two
        expressions for the Martin kernel can be compared as independent
        computations.
        """
        if x.level > y.level:
            return 0
        if y not in self.forward_law(y.level):
            raise UnreachableStateError(f"unreachable conditioning state {y}")
        per_state = self._back.setdefault(y, {y.level: {y: 1}})
        level = min(per_state)
        while level > x.level:
            prev: dict[State, Prob] = defaultdict(int)
            for z, mass in per_state[level].items():
                if mass == 0:
                    continue
                for w, _ in self.predecessors(z):
                    back = self.cotransition(z, w)
                    if back != 0:
                        prev[w] += mass * back
            level -= 1
            per_state[level] = dict(prev)
        return per_state[x.level].get(x, 0)

    # -- path space ---------------------------------------------------------

    def cylinder_law(self, n: int) -> CylinderLaw:
        """Exact probability of every root-anchored path (Y_1, ..., Y_n).

        Exponential by design; this is the brute-force oracle that the
        dynamic-programming routes are tested against.  Raises
        ``BudgetExceededError`` before building any path when there are more
        than ``DEFAULT_ATOM_BUDGET`` paths, counted level by level.
        """
        counts: dict[State, int] = {self.root: 1}
        for _ in range(n):
            nxt: dict[State, int] = defaultdict(int)
            for z, c in counts.items():
                for y, q in self.successors(z):
                    if q != 0:
                        nxt[y] += c
            counts = nxt
        if sum(counts.values()) > DEFAULT_ATOM_BUDGET:
            raise BudgetExceededError(
                f"cylinder law at horizon {n} exceeds atom budget {DEFAULT_ATOM_BUDGET}"
            )
        atoms: dict[tuple, Prob] = {}
        stack: list[tuple[tuple, Prob]] = [((self.root,), 1)]
        while stack:
            path, p = stack.pop()
            if len(path) == n + 1:
                atoms[path[1:]] = p
                continue
            for y, q in self.successors(path[-1]):
                if q != 0:
                    stack.append((path + (y,), p * q))
        ordered = dict(sorted(atoms.items()))
        return CylinderLaw(n, ordered)

    # -- sampling ------------------------------------------------------------

    def sample_path(self, n: int, seed: int, replicate: int = 0) -> Sequence[State]:
        """One trajectory (Y_0, ..., Y_n); same (seed, replicate) gives the same path."""
        if self.sampler is not None:
            return CountPath(self.sampler.sample_path_counts(n, seed, replicate))
        rng = replicate_rng(seed, replicate)
        path = [self.root]
        x = self.root
        for _ in range(n):
            row = self.successors(x)
            u = rng.random()
            acc = 0.0
            x = row[-1][0]
            for y, q in row:
                acc += float(q)
                if u < acc:
                    x = y
                    break
            path.append(x)
        return path

    def sample_final(self, n: int, seed: int, replicates: int) -> list[State]:
        """Y_n for replicate indices 0..replicates-1, one stream per replicate."""
        if self.sampler is not None:
            counts = self.sampler.sample_final_counts(n, seed, 0, replicates)
            return [State(n, tuple(row)) for row in counts.tolist()]
        return [self.sample_path(n, seed, r)[-1] for r in range(replicates)]

    # -- on-demand structural checks -----------------------------------------

    def check_row_stochastic(self, max_level: int) -> CheckReport:
        report = CheckReport(f"row-stochasticity[{self.name}]")
        for n in range(max_level):
            for x in self.enumerate_level(n):
                row = self.successors(x)  # raises NonStochasticError on failure
                report.record(lambda: f"row-sum@{x}", 1, sum(p for _, p in row))
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
) -> Iterator[tuple[State, int, dict[State, Prob]]]:
    """(x, n, K(x, .) on level n) for every reachable x and every n from
    level(x) to max_level: by level of x, then x, then n, each level in
    enumeration order.  The one walk over kernel rows."""
    for m in range(max_level + 1):
        law = chain.forward_law(m)
        for x in chain.enumerate_level(m):
            if x in law:
                for n in range(m, max_level + 1):
                    yield x, n, chain.kernel_row(x, n)


def markov_property_check(law: CylinderLaw) -> CheckReport:
    """Compare next-step conditionals given the full history and given the state.

    Lists every triple (history, x_k, x_{k+1}) where the two conditionals
    disagree; an empty report is equivalent to the Markov property for the
    given horizon.
    """
    if law.horizon < 2:
        raise ValueError(f"need horizon >= 2 to test the Markov property, got {law.horizon}")
    report = CheckReport("markov-property")
    total = law.total()
    if not probs_equal(total, 1):
        raise NonStochasticError(f"cylinder atoms sum to {format_prob(total)}")
    for k in range(1, law.horizon):
        prefix_mass = law.prefix_masses(k)
        extended_mass = law.prefix_masses(k + 1)
        state_mass = law.marginal(k)
        pair_mass = law.pair_marginal(k)
        for ext, pm in sorted(extended_mass.items()):
            if pm == 0:
                continue
            history, nxt = ext[:k], ext[k]
            cond_history = pm / prefix_mass[history]
            cond_state = pair_mass[(history[-1], nxt)] / state_mass[history[-1]]
            report.record(lambda: f"history={history} -> {nxt}", cond_state, cond_history)
    return report
