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

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    BudgetExceededError,
    NonStochasticError,
    UnreachableStateError,
)
from .prob import FLOAT_TOL, Prob, format_prob, is_exact, probs_equal
from .reports import CheckReport, Violation

DEFAULT_ATOM_BUDGET = 10_000_000


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


@dataclass(frozen=True)
class DistributionTable:
    """Law of Y_n: positive-probability states only, unless zeros were requested."""

    level: int
    probs: dict[State, Prob]

    def prob(self, state: State) -> Prob:
        if state.level != self.level:
            return 0
        return self.probs.get(state, 0)

    def items(self):
        return self.probs.items()

    def total(self) -> Prob:
        return sum(self.probs.values())

    @property
    def support(self) -> tuple[State, ...]:
        return tuple(s for s, p in self.probs.items() if p != 0)

    def __len__(self) -> int:
        return len(self.probs)


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
    path_sampler:
        Optional fast replacement for the generic step-by-step sampler;
        called as ``path_sampler(n, rng)`` and expected to return the list
        [Y_0, ..., Y_n].
    final_sampler:
        Optional vectorized sampler of Y_n alone; called as
        ``final_sampler(n, seed, replicates)``.

    Forward and conditional laws share one memo: ``_cond[x]`` maps levels
    to the law of Y_n given Y_m = x, and the forward law is the entry of
    the root, so ``conditional_law(root, n)`` is ``forward_law(n)``.

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
        path_sampler: Optional[Callable[[int, np.random.Generator], list[State]]] = None,
        final_sampler: Optional[Callable[[int, int, int], list[State]]] = None,
    ):
        self.root = root
        self.level_budget = level_budget
        self.name = name
        self._family = family
        self._successors = successors
        self._path_sampler = path_sampler
        self._final_sampler = final_sampler
        self._levels: dict[int, tuple[State, ...]] = {0: (root,)}
        self._rows: dict[State, tuple[tuple[State, Prob], ...]] = {}
        self._preds: dict[int, dict[State, tuple[tuple[State, Prob], ...]]] = {}
        self._cond: dict[State, dict[int, DistributionTable]] = {
            root: {0: DistributionTable(0, {root: Fraction(1)})}
        }
        self._back: dict[State, dict[int, dict[State, Prob]]] = {}

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
        if is_exact(total):
            stochastic = total == 1
        else:
            stochastic = abs(float(total) - 1.0) <= FLOAT_TOL
        if not stochastic:
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
        start = max(k for k in memo if k <= n)
        current = memo[start].probs
        for k in range(start, n):
            nxt: dict[State, Prob] = defaultdict(int)
            for z, p in current.items():
                for y, q in self.successors(z):
                    if q != 0:
                        nxt[y] += p * q
            current = dict(nxt)
            memo[k + 1] = DistributionTable(k + 1, current)
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
            padded = {s: table.prob(s) for s in self.enumerate_level(n)}
            return DistributionTable(n, padded)
        return table

    def conditional_law(self, x: State, n: int) -> DistributionTable:
        """P(Y_n = . | Y_m = x) for x at level m <= n."""
        if n > self.level_budget:
            raise BudgetExceededError(
                f"conditional law at level {n} exceeds budget {self.level_budget}"
            )
        if x.level > n:
            raise ValueError(f"conditional horizon {n} below level of {x}")
        if self.forward_law(x.level).prob(x) == 0:
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
        px = self.forward_law(x.level).prob(x)
        if px == 0:
            raise UnreachableStateError(f"unreachable conditioning state {x}")
        py = self.forward_law(y.level).prob(y)
        if py == 0:
            raise UnreachableStateError(f"unreachable target state {y}")
        return self.conditional_forward(x, y) / py

    def cotransition(self, y: State, x: State) -> Prob:
        """P(Y_n = x | Y_{n+1} = y), the backward one-step law."""
        if x.level != y.level - 1:
            raise ValueError(f"{x} is not one level below {y}")
        py = self.forward_law(y.level).prob(y)
        if py == 0:
            raise UnreachableStateError(f"unreachable conditioning state {y}")
        px = self.forward_law(x.level).prob(x)
        if px == 0:
            return 0
        return px * self.step(x, y) / py

    def backward_conditional(self, y: State, x: State) -> Prob:
        """P(Y_m = x | Y_n = y) built by chaining cotransitions downward.

        Deliberately does not reuse the forward conditional law, so the two
        expressions for the Martin kernel can be compared as independent
        computations.
        """
        if x.level > y.level:
            return 0
        if self.forward_law(y.level).prob(y) == 0:
            raise UnreachableStateError(f"unreachable conditioning state {y}")
        per_state = self._back.setdefault(y, {y.level: {y: 1}})
        level = min(per_state)
        while level > x.level:
            current = per_state[level]
            law_cur = self.forward_law(level)
            law_prev = self.forward_law(level - 1)
            prev: dict[State, Prob] = defaultdict(int)
            for z, mass in current.items():
                if mass == 0:
                    continue
                pz = law_cur.prob(z)
                for w, q in self.predecessors(z):
                    pw = law_prev.prob(w)
                    if pw != 0:
                        prev[w] += mass * pw * q / pz
            level -= 1
            per_state[level] = dict(prev)
        return per_state[x.level].get(x, 0)

    # -- path space ---------------------------------------------------------

    def cylinder_law(self, n: int, atom_budget: int = DEFAULT_ATOM_BUDGET) -> CylinderLaw:
        """Exact probability of every root-anchored path (Y_1, ..., Y_n).

        Exponential by design; this is the brute-force oracle that the
        dynamic-programming routes are tested against.
        """
        atoms: dict[tuple, Prob] = {}
        stack: list[tuple[tuple, Prob]] = [((self.root,), 1)]
        while stack:
            path, p = stack.pop()
            if len(path) == n + 1:
                atoms[path[1:]] = p
                if len(atoms) > atom_budget:
                    raise BudgetExceededError(
                        f"cylinder law at horizon {n} exceeds atom budget {atom_budget}"
                    )
                continue
            for y, q in self.successors(path[-1]):
                if q != 0:
                    stack.append((path + (y,), p * q))
        ordered = dict(sorted(atoms.items()))
        return CylinderLaw(n, ordered)

    # -- sampling ------------------------------------------------------------

    def sample_path(self, n: int, seed: int, replicate: int = 0) -> list[State]:
        """One trajectory (Y_0, ..., Y_n); same (seed, replicate) gives the same path."""
        rng = replicate_rng(seed, replicate)
        if self._path_sampler is not None:
            return self._path_sampler(n, rng)
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
        if self._final_sampler is not None:
            return self._final_sampler(n, seed, replicates)
        return [self.sample_path(n, seed, r)[-1] for r in range(replicates)]

    # -- on-demand structural checks -----------------------------------------

    def check_row_stochastic(self, max_level: int) -> CheckReport:
        report = CheckReport(f"row-stochasticity[{self.name}]")
        for n in range(max_level):
            for x in self.enumerate_level(n):
                row = self.successors(x)  # raises NonStochasticError on failure
                report.record(f"row-sum@{x}", 1, sum(p for _, p in row))
        return report

    def check_weak_irreducibility(self, max_level: int) -> CheckReport:
        """P(Y_n = x) > 0 for every enumerated state up to max_level."""
        report = CheckReport(f"weak-irreducibility[{self.name}]")
        for n in range(max_level + 1):
            law = self.forward_law(n)
            for x in self.enumerate_level(n):
                report.checked += 1
                if law.prob(x) == 0:
                    report.violations.append(Violation(f"P(Y_{n}={x})>0", 1, 0))
        return report


def kernel_pairs(chain: GradedChain, max_level: int) -> Iterator[tuple[State, State]]:
    """Every (x, y) with level(x) <= level(y) <= max_level: by level of x, then
    x, then level of y, then y, each level in enumeration order."""
    for m in range(max_level + 1):
        for x in chain.enumerate_level(m):
            for n in range(m, max_level + 1):
                for y in chain.enumerate_level(n):
                    yield x, y


def markov_property_check(law: CylinderLaw, tol: float = FLOAT_TOL) -> CheckReport:
    """Compare next-step conditionals given the full history and given the state.

    Lists every triple (history, x_k, x_{k+1}) where the two conditionals
    disagree; an empty report is equivalent to the Markov property for the
    given horizon.
    """
    if law.horizon < 2:
        raise ValueError(f"need horizon >= 2 to test the Markov property, got {law.horizon}")
    report = CheckReport("markov-property")
    total = law.total()
    if not probs_equal(total, 1, tol):
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
            report.record(
                f"history={history} -> {nxt}", cond_state, cond_history, tol
            )
    return report
