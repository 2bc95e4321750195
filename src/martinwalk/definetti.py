"""Exchangeable sequences over a finite alphabet and their counting chains.

Sources produce exact joint laws of (X_1, ..., X_n) with symbols in
{1, ..., d}: finite mixtures of i.i.d. product laws, reinforced urns, and a
deliberately non-exchangeable Markov source used as a negative control.

Counting the symbol occurrences turns a sequence law into a law on
composition paths.  For exchangeable sources that path process is a Markov
chain whose cotransitions are the universal (y_j + 1) / (n + 1) law, which
identifies it as an h-transform of the uniform composition walk; recovering
h and reading off the normalized final counts Y_n / n then recovers the
directing measure.  The binary-expansion helpers lift these finite-alphabet
facts to sequences with values in [0, 1).
"""

from __future__ import annotations

import itertools
import math
import operator
from functools import cached_property
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional, Protocol, Sequence

from .chain import (
    DEFAULT_ATOM_BUDGET,
    DistributionTable,
    GradedChain,
    State,
    markov_property_check,
    replicate_rows,
)
from .compositions import product_moment, uniform_walk
from .errors import BudgetExceededError, MartinWalkError, NonStochasticError, UnreachableStateError
from .parallel import fork_map
from .prob import Prob, format_prob, is_exact, validate_simplex
from .reports import CheckReport

if TYPE_CHECKING:
    import numpy as np
    from .harmonic import HarmonicFn
else:
    from .chain import np

#: Markov sampling draws at most this many step-map entries (steps x d) at once
_MARKOV_CHUNK_CELLS = 1 << 20


# -- sources -----------------------------------------------------------------


class Source(Protocol):
    """What every source kind provides: alphabet size, a name, the exact law
    of each word, and final counts Y_n drawn per replicate stream."""

    @property
    def d(self) -> int: ...

    @property
    def name(self) -> str: ...

    def word_probability(self, word: Sequence[int]) -> Prob: ...

    def next_symbol_law(self, counts: Sequence[int], last: Optional[int]) -> tuple[Prob, ...]:
        """P(X_{n+1} = j | Y_n = counts, X_n = last), j = 1..d; last is None at n = 0."""

    def sample_final_counts(self, n: int, seed: int, start: int, stop: int) -> np.ndarray:
        """Y_n for replicates start..stop-1 as (stop - start, d) int64; see
        ``chain.CountSampler``."""


class MixtureSource:
    """Finite mixture of i.i.d. product laws: pick an atom, then draw i.i.d."""

    def __init__(self, atoms: Sequence[Sequence[Prob]], weights: Sequence[Prob]):
        self.atoms = tuple(validate_simplex(a) for a in atoms)
        self.weights = validate_simplex(weights)
        if len(self.atoms) != len(self.weights):
            raise ValueError("one weight per atom required")
        if len({len(a) for a in self.atoms}) != 1:
            raise ValueError("all atoms must share the alphabet size")

    @property
    def d(self) -> int:
        return len(self.atoms[0])

    @property
    def name(self) -> str:
        return f"mixture[{len(self.atoms)} atoms, d={self.d}]"

    @cached_property
    def _int_terms(self) -> tuple:
        """Per atom: the weight's numerator and denominator, then the atom's
        numerators and denominators; a float among them raises ``ValueError``."""
        if not all(map(is_exact, itertools.chain(self.weights, *self.atoms))):
            raise ValueError(f"float atoms or weights in {self.name}: word laws are exact")
        return tuple(
            (
                w.numerator,
                w.denominator,
                tuple(a.numerator for a in atom),
                tuple(a.denominator for a in atom),
            )
            for w, atom in zip(self.weights, self.atoms)
        )

    def word_probability(self, word: Sequence[int]) -> Fraction:
        """sum_i w_i prod_k mu_i(x_k), multiplied along the word as int
        numerators and denominators, with one ``Fraction`` per word; float
        atoms or weights raise ``ValueError``, though they still sample."""
        _check_word(word, self.d)
        total_num, total_den = 0, 1
        for num, den, nums, dens in self._int_terms:
            for s in word:
                num *= nums[s - 1]
                den *= dens[s - 1]
            total_num, total_den = total_num * den + num * total_den, total_den * den
        return Fraction(total_num, total_den)

    def directing_moment(self, counts: Sequence[int]) -> Prob:
        """Mixture moment of the directing law: sum_i w_i prod_j mu_i(j)^c_j."""
        return sum(
            product_moment((w, *atom), (1, *counts))
            for w, atom in zip(self.weights, self.atoms)
        )

    def next_symbol_law(self, counts: Sequence[int], last: Optional[int]) -> tuple[Prob, ...]:
        """M(counts + e_j) / M(counts) for the directing moment M, j = 1..d: each
        atom's term w_i prod_j mu_i(j)^c_j as an int over one denominator, then
        one ``Fraction`` per entry.  Float atoms or weights give the float ratios
        of ``directing_moment``, which a counting chain refuses as float steps."""
        try:
            int_terms = self._int_terms
        except ValueError:
            moment = self.directing_moment(counts)
            steps = (_add_symbol(counts, j) for j in range(self.d))
            return tuple(self.directing_moment(step) / moment for step in steps)
        terms = []
        for num, den, nums, dens in int_terms:
            for c, a, b in zip(counts, nums, dens):
                num *= a**c
                den *= b**c
            terms.append((num, den))
        scale = math.lcm(*(den for _, den in terms))
        weights = [num * (scale // den) for num, den in terms]
        common = math.lcm(*itertools.chain.from_iterable(dens for *_, dens in int_terms))
        atoms = [(nums, dens) for *_, nums, dens in int_terms]
        total = sum(weights) * common
        return tuple(
            Fraction(sum(w * a[j] * (common // b[j]) for w, (a, b) in zip(weights, atoms)), total)
            for j in range(self.d)
        )

    def directing_atoms(self) -> tuple[tuple[Prob, tuple[Prob, ...]], ...]:
        return tuple(zip(self.weights, self.atoms))

    def sample_final_counts(self, n: int, seed: int, start: int, stop: int) -> np.ndarray:
        import numpy as np
        weights = np.array([float(w) for w in self.weights])
        atoms = np.array([[float(a) for a in atom] for atom in self.atoms])
        return replicate_rows(
            seed,
            start,
            stop,
            self.d,
            lambda rng: rng.multinomial(n, atoms[rng.choice(len(weights), p=weights)]),
        )


class PolyaUrnSource:
    """Reinforced urn: draw a symbol with probability proportional to its count,
    then return the ball together with one more of the same colour."""

    __slots__ = ("initial",)

    def __init__(self, initial: Sequence[int]):
        if any(isinstance(c, bool) for c in initial):
            raise TypeError("urn counts must be integers, not booleans")
        self.initial = tuple(operator.index(c) for c in initial)
        if not self.initial or any(c <= 0 for c in self.initial):
            raise ValueError("urn needs a positive initial count per symbol")

    @property
    def d(self) -> int:
        return len(self.initial)

    @property
    def name(self) -> str:
        return f"polya{self.initial}"

    def word_probability(self, word: Sequence[int]) -> Fraction:
        _check_word(word, self.d)
        counts = list(self.initial)
        total = sum(counts)
        num = den = 1
        for k, s in enumerate(word):
            num *= counts[s - 1]
            den *= total + k
            counts[s - 1] += 1
        return Fraction(num, den)

    def directing_moment(self, counts: Sequence[int]) -> Fraction:
        return dirichlet_moment(self.initial, counts)

    def next_symbol_law(self, counts: Sequence[int], last: Optional[int]) -> tuple[Fraction, ...]:
        total = sum(self.initial) + sum(counts)
        return tuple(Fraction(a + c, total) for a, c in zip(self.initial, counts))

    def sample_final_counts(self, n: int, seed: int, start: int, stop: int) -> np.ndarray:
        """Y_n drawn as Multinomial(n, p) with p ~ Dirichlet(initial): the urn's
        limit frequency is Dirichlet(initial) and, given it, the draws are
        i.i.d. (Blackwell & MacQueen 1973), so each replicate costs O(d)."""
        import numpy as np
        initial = np.array(self.initial, dtype=np.float64)
        return replicate_rows(
            seed, start, stop, self.d, lambda rng: rng.multinomial(n, rng.dirichlet(initial))
        )


class MarkovSource:
    """Symbol chain with state-dependent rows; non-exchangeable negative control."""

    __slots__ = ("initial", "rows")

    def __init__(self, initial: Sequence[Prob], rows: Sequence[Sequence[Prob]]):
        self.initial = validate_simplex(initial)
        self.rows = tuple(validate_simplex(r) for r in rows)
        d = len(self.initial)
        if len(self.rows) != d or any(len(r) != d for r in self.rows):
            raise ValueError("need one stochastic row per symbol")

    @property
    def d(self) -> int:
        return len(self.initial)

    @property
    def name(self) -> str:
        return f"markov[d={self.d}]"

    def word_probability(self, word: Sequence[int]) -> Prob:
        _check_word(word, self.d)
        if not word:
            return Fraction(1)
        p = self.initial[word[0] - 1]
        for prev, cur in zip(word, word[1:]):
            p *= self.rows[prev - 1][cur - 1]
        return p

    def next_symbol_law(self, counts: Sequence[int], last: Optional[int]) -> tuple[Prob, ...]:
        return self.initial if last is None else self.rows[last - 1]

    def sample_final_counts(self, n: int, seed: int, start: int, stop: int) -> np.ndarray:
        initial = _cdf(self.initial)
        rows = [_cdf(row) for row in self.rows]
        return replicate_rows(
            seed, start, stop, self.d, lambda rng: _markov_counts(n, initial, rows, rng)
        )


def _cdf(probs: Sequence[Prob]) -> np.ndarray:
    import numpy as np
    cdf = np.cumsum([float(p) for p in probs])
    # the last entry is exactly 1, so a uniform in [0, 1) never falls past it
    return cdf / cdf[-1]


def _markov_counts(n: int, initial: np.ndarray, rows: Sequence[np.ndarray], rng) -> np.ndarray:
    """Symbol counts of one n-step path, by inverse CDF from n uniforms.

    Uniform k turns step k into a map of the alphabet (symbol i goes to the
    symbol u_k selects from row i; step 1 selects from ``initial`` whatever
    i is).  Composing the maps by prefix doubling yields the whole path in
    log2(n) array passes instead of n Python steps.
    """
    import numpy as np
    d = len(initial)
    chunk = max(1, _MARKOV_CHUNK_CELLS // d)
    counts = np.zeros(d, dtype=np.int64)
    symbol = 0
    for lo in range(0, n, chunk):
        u = rng.random(min(chunk, n - lo))
        maps = np.stack([np.searchsorted(row, u, side="right") for row in rows], axis=1)
        if lo == 0:
            maps[0] = np.searchsorted(initial, u[0], side="right")
        shift = 1
        while shift < len(maps):
            # maps[k] becomes maps[k] after maps[k - shift]
            maps[shift:] = np.take_along_axis(maps[shift:], maps[:-shift], axis=1)
            shift *= 2
        path = maps[:, symbol]
        counts += np.bincount(path, minlength=d)
        symbol = path[-1]
    return counts


def _check_word(word: Sequence[int], d: int) -> None:
    for s in word:
        if not 1 <= s <= d:
            raise ValueError(f"out-of-alphabet symbol {s!r} (alphabet is 1..{d})")


# -- exact sequence and counting laws -----------------------------------------


def _words(d: int, n: int) -> Iterator[tuple[int, ...]]:
    """Every word of length n over 1..d in lexicographic order.

    Raises ``BudgetExceededError`` before building any word when the d^n
    words exceed ``DEFAULT_ATOM_BUDGET``.
    """
    if d**n > DEFAULT_ATOM_BUDGET:
        raise BudgetExceededError(f"{d}^{n} words exceed the atom budget {DEFAULT_ATOM_BUDGET}")
    return itertools.product(range(1, d + 1), repeat=n)


def source_cylinder_law(source, n: int) -> DistributionTable:
    """Exact joint law of (X_1, ..., X_n), keyed by word in lexicographic
    order, over the lcm of the word probabilities' denominators (which leaves
    it in lowest terms); a float word probability raises ``ValueError``."""
    probs = {}
    for word in _words(source.d, n):
        p = source.word_probability(word)
        if not is_exact(p):
            raise ValueError(f"float word probability {p!r} of {word}: laws are exact")
        if p:
            probs[word] = p
    den = math.lcm(*(p.denominator for p in probs.values()))
    nums = {word: p.numerator * (den // p.denominator) for word, p in probs.items()}
    law = DistributionTable(n, nums, den)
    if sum(law.nums.values()) != den:
        raise NonStochasticError(
            f"word probabilities of {source.name} sum to {format_prob(law.total())}"
        )
    return law


def _count_paths(words: DistributionTable, d: int) -> DistributionTable:
    """Re-key a word law onto composition paths, a word going to its occurrence
    counts Y_k = (#{i <= k : X_i = j})_j, k = 1..n.  The map is a bijection,
    since each step of the count path increments one coordinate, so the law
    keeps its numerators and denominator; the path of each word prefix is
    built once, from that of the prefix one symbol shorter."""
    paths: dict[tuple[int, ...], tuple[State, ...]] = {(): ()}
    nums = {_count_path(word, d, paths): p for word, p in words.nums.items()}
    return DistributionTable(words.level, nums, words.den)


def _count_path(
    word: tuple[int, ...], d: int, paths: dict[tuple[int, ...], tuple[State, ...]]
) -> tuple[State, ...]:
    """The count path of word, kept in ``paths`` with those of its prefixes."""
    path = paths.get(word)
    if path is None:
        head = _count_path(word[:-1], d, paths)
        counts = list(head[-1].payload if head else (0,) * d)
        counts[word[-1] - 1] += 1
        path = paths[word] = head + (State(len(word), tuple(counts)),)
    return path


def counting_chain_law(source, n: int) -> DistributionTable:
    """Exact law of the count path (Y_1, ..., Y_n), pushed from the word law."""
    return _count_paths(source_cylinder_law(source, n), source.d)


def dead_symbols(source) -> tuple[int, ...]:
    """Symbols with zero one-step probability; their states are pruned, not errors."""
    return tuple(j for j, p in enumerate(source.next_symbol_law((0,) * source.d, None), 1) if not p)


def _add_symbol(counts: Sequence[int], j: int) -> tuple[int, ...]:
    """counts + e_j for a 0-based symbol index j."""
    return (*counts[:j], counts[j] + 1, *counts[j + 1 :])


def counting_chain(source) -> GradedChain:
    """The counting process as a graded chain, lumped by counts (Kemeny & Snell) from the
    chain on (Y_n, X_n) that ``source.next_symbol_law`` drives: the lifted mass at
    (y + e_j, j) is P(Y_n = y, X_{n+1} = j), so the row out of y is that mass over its
    sum.  No word is enumerated, and the rows of a level are built on first demand."""
    root = (0,) * source.d

    def lifted_successors(x: State):
        law = enumerate(source.next_symbol_law(*x.payload))
        return [(State(x.level + 1, (_add_symbol(x.payload[0], j), j + 1)), p) for j, p in law]

    lifted = GradedChain(State(0, (root, None)), None, lifted_successors, "lifted")

    def family(n: int) -> tuple[State, ...]:
        return tuple(sorted({State(n, x.payload[0]) for x in lifted.forward_law(n).nums}))

    def successors(y: State):
        law = lifted.forward_law(y.level + 1)
        steps = [State(y.level + 1, _add_symbol(y.payload, j)) for j in range(source.d)]
        joint = [law.nums.get(State(z.level, (z.payload, j)), 0) for j, z in enumerate(steps, 1)]
        mass = sum(joint)
        if mass == 0:
            raise UnreachableStateError(f"{y} has zero probability under {source.name}")
        # the law's one denominator cancels, so a row is one Fraction per entry
        return sorted((z, Fraction(p, mass)) for z, p in zip(steps, joint) if p != 0)

    return GradedChain(State(0, root), family, successors, f"counting[{source.name}]")


# -- exchangeability and the two decisive counting-chain facts ----------------


def cylinder_exchangeability_report(law: DistributionTable) -> CheckReport:
    """Permutation invariance of a sequence law, checked class by class.

    Within each multiset of symbols all orderings must carry equal mass
    (orderings absent from the table count as mass 0).  The words of a class
    are read off the table in sorted order; only a class with an ordering
    absent from the table enumerates its permutations.
    """
    report = CheckReport("exchangeability")
    classes: dict[tuple, list[tuple]] = {}
    for word in sorted(law.nums):
        classes.setdefault(tuple(sorted(word)), []).append(word)
    for key, orderings in classes.items():
        count = math.factorial(len(key)) // math.prod(map(math.factorial, map(key.count, set(key))))
        if len(orderings) < count:
            orderings = sorted(set(itertools.permutations(key)))
        head, *rest = orderings
        expected = law.nums.get(head, 0), law.den
        report.record_ratios(
            lambda other: f"permutation@{other} vs {head}",
            ((other, expected, (law.nums.get(other, 0), law.den)) for other in rest),
        )
    return report


def _counting_report(report: CheckReport, identity: str, source, n: int) -> CheckReport:
    """Name a counting-chain report and note the symbols the source never draws."""
    report.name = f"counting-{identity}[{source.name}]@{n}"
    dead = dead_symbols(source)
    if dead:
        report.note(f"symbols {dead} never occur; their states are pruned")
    return report


def verify_counting_markov(source, words: DistributionTable) -> CheckReport:
    """Markov property of the counting process, from the exact path law that
    ``words``, the source's ``source_cylinder_law``, pushes onto count paths."""
    report = markov_property_check(_count_paths(words, source.d))
    return _counting_report(report, "markov", source, words.level)


def verify_counting_cotransitions(
    source, n: int, base: Optional[GradedChain] = None, observed: Optional[GradedChain] = None
) -> CheckReport:
    """Cotransitions of the counting chain against those of the uniform walk.

    This is the decisive identity: together with the Markov property it
    exhibits the counting chain as an h-transform of the uniform walk.
    ``base`` and ``observed`` default to a new uniform walk and counting chain.
    """
    from .harmonic import cotransition_equality_check

    base = uniform_walk(source.d) if base is None else base
    observed = counting_chain(source) if observed is None else observed
    report = cotransition_equality_check(base, observed, n)
    return _counting_report(report, "cotransitions", source, n)


def counting_h_recovery(
    source, n: int, base: Optional[GradedChain] = None, observed: Optional[GradedChain] = None
) -> HarmonicFn:
    """Recover the harmonic function for which the counting chain is the
    h-transform of the uniform walk, and verify the identification exactly:
    equal rows at every reachable state below n, hence equal path laws.
    ``base`` and ``observed`` default to a new uniform walk and counting chain;
    chains that ``verify_counting_cotransitions`` has run on keep their laws,
    so the cotransition check that ``recover_h`` repeats only compares them."""
    from .harmonic import h_transform, is_harmonic, recover_h

    base = uniform_walk(source.d) if base is None else base
    observed = counting_chain(source) if observed is None else observed
    h = recover_h(base, observed, max_level=n)
    harmonicity = is_harmonic(base, h, n)
    if not harmonicity.ok:
        raise MartinWalkError(f"recovered function is not harmonic:\n{harmonicity}")
    transformed = h_transform(base, h)
    for m in range(n):
        for x in observed.forward_law(m).nums:
            if observed.exact_row(x) != transformed.exact_row(x):
                raise MartinWalkError(
                    f"h-transform of the uniform walk misses the row of {x} in {observed.name}"
                )
    return h


# -- directing measure ---------------------------------------------------------


class ClusterSummary(NamedTuple):
    atom: tuple[float, ...]
    count: int
    weight: float
    mean: tuple[float, ...]


class DirectingEstimate:
    """Per-replicate boundary points Y_n / n approximating the directing measure."""

    __slots__ = ("samples",)
    samples: np.ndarray

    def __init__(self, samples: np.ndarray):
        self.samples = samples

    @property
    def replicates(self) -> int:
        return self.samples.shape[0]

    def cluster_summary(self, atoms: Sequence[Sequence[Prob]]) -> list[ClusterSummary]:
        """Nearest-atom assignment, for verification against a known mixing law."""
        import numpy as np
        pts = np.array([[float(a) for a in atom] for atom in atoms])
        distances = ((self.samples[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
        labels = distances.argmin(axis=1)
        out = []
        for i, atom in enumerate(pts):
            rows = self.samples[labels == i]
            mean = tuple(map(float, rows.mean(axis=0))) if len(rows) else tuple(atom)
            out.append(
                ClusterSummary(tuple(atom), len(rows), len(rows) / self.replicates, mean)
            )
        return out

    def coordinate_moments(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        means = tuple(map(float, self.samples.mean(axis=0)))
        seconds = tuple(map(float, (self.samples**2).mean(axis=0)))
        return means, seconds


#: replicates per task of ``estimate_directing_measure``; its rows do not depend on it
BLOCK_SIZE = 256


def _sample_block(args) -> np.ndarray:
    source, horizon, seed, lo, hi = args
    return source.sample_final_counts(horizon, seed, lo, hi)


def estimate_directing_measure(
    source: Source,
    horizon: int,
    replicates: int,
    seed: int,
    workers: int = 1,
) -> DirectingEstimate:
    """Sample the counting process to the horizon and return Y_n / n per replicate.

    Replicate r always uses the stream (seed, r), so the result is independent
    of the ``BLOCK_SIZE`` partition and of the worker count.  Multi-worker runs
    fan the blocks out to forked processes with ``fork_map`` (per-replicate
    sampling holds the GIL), and this process only collects them.  Each block
    is copied into one float array, which is then divided in place; a serial
    run draws each block as it is copied, so it never holds another copy of
    the samples.
    """
    import numpy as np  # loaded here, before any worker forks, so no worker imports it
    tasks = [
        (source, horizon, seed, lo, min(lo + BLOCK_SIZE, replicates))
        for lo in range(0, replicates, BLOCK_SIZE)
    ]
    samples = np.empty((replicates, source.d), dtype=np.float64)
    for (*_, lo, hi), block in zip(tasks, fork_map(_sample_block, tasks, workers)):
        samples[lo:hi] = block
    samples /= horizon
    return DirectingEstimate(samples)


def dirichlet_moment(initial: Sequence[int], counts: Sequence[int]) -> Fraction:
    """Mixed moment E prod_j p_j^{c_j} of a Dirichlet law with the given parameters."""
    if len(initial) != len(counts):
        raise ValueError("parameter and count lengths differ")
    num = 1
    for a, c in zip(initial, counts):
        for t in range(c):
            num *= a + t
    den = 1
    total = sum(initial)
    for t in range(sum(counts)):
        den *= total + t
    return Fraction(num, den)


def definetti_identity_check(source, k: int) -> CheckReport:
    """Cylinder probabilities against the mixture integral of the source's
    directing law, read from its closed-form ``directing_moment`` (the
    Dirichlet moment for urns).  A source without one, such as the Markov
    control, raises ``MartinWalkError``.
    """
    if not hasattr(source, "directing_moment"):
        raise MartinWalkError(f"{source.name} has no directing law")
    moment = source.directing_moment

    report = CheckReport(f"definetti-identity[{source.name}]@{k}")
    for word in _words(source.d, k):
        counts = [0] * source.d
        for s in word:
            counts[s - 1] += 1
        report.record(lambda: f"cylinder@{word}", moment(counts), source.word_probability(word))
    return report


# -- binary expansion lift ------------------------------------------------------


#: the bytes b"0" and b"1" of a binary numeral to the digit values 0 and 1
_BIT_VALUES = bytes.maketrans(b"01", bytes((0, 1)))


def binary_digits(x, count: int) -> tuple[int, ...]:
    """First ``count`` binary digits of x in [0, 1) via floor(2^k x) - 2 floor(2^(k-1) x).

    Exact for floats and rationals alike; dyadic values get the terminating
    expansion, which is what the floor formula produces.  Digit k is the bit
    of floor(2^k x) = floor(2^count x) >> (count - k) that the formula leaves,
    so one shift and division give them all: floor(2^count x) < 2^count, and
    its count-digit binary numeral lists them in order.
    """
    if count < 1:
        raise ValueError("need at least one digit")
    value = x if isinstance(x, Fraction) else Fraction(x)
    if not 0 <= value.numerator < value.denominator:
        raise ValueError(f"expected a value in [0, 1), got {x!r}")
    scaled = (value.numerator << count) // value.denominator
    return tuple(format(scaled, f"0{count}b").encode().translate(_BIT_VALUES))


def reconstruct_real(digits: Sequence[int]) -> Fraction:
    """Partial sum sum_k digits_k 2^{-k}; inverts binary_digits up to 2^{-K}."""
    if not set(digits) <= {0, 1}:
        bad = next(digit for digit in digits if digit not in (0, 1))
        raise ValueError(f"digit {bad!r} is not binary")
    total = 0
    for digit in digits:
        total = 2 * total + digit
    return Fraction(total, 1 << len(digits))


def lift_source_law(source, points: Sequence, depth: int, n: int) -> DistributionTable:
    """Law of the digit-truncated sequence when symbol s stands for points[s-1]."""
    if len(points) != source.d:
        raise ValueError("need one point per symbol")
    digit_of = {s: binary_digits(points[s - 1], depth) for s in range(1, source.d + 1)}
    return source_cylinder_law(source, n).push(lambda word: tuple(digit_of[s] for s in word))


def projection_consistency_check(
    deeper: DistributionTable, shallower: DistributionTable
) -> CheckReport:
    """Dropping the last digit must push the deeper digit law onto the shallower
    one, compared key by key over the sorted union of their keys."""
    for label, law in (("deeper", deeper), ("shallower", shallower)):
        if sum(law.nums.values()) != law.den:
            raise NonStochasticError(f"{label} law sums to {format_prob(law.total())}")
    depths = {len(k) for k in deeper.nums} | {len(k) + 1 for k in shallower.nums}
    if len(depths) != 1:
        raise ValueError("expected digit depths k+1 and k")
    pushed = deeper.push(lambda digits: digits[:-1])
    report = CheckReport("projection-consistency")
    report.record_ratios(lambda key: f"digits={key}", shallower.pairs(pushed))
    return report


def ks_distance_uniform(values: Sequence[float]) -> float:
    """Kolmogorov-Smirnov distance of a sample to the uniform law on [0, 1]."""
    import numpy as np
    xs = np.sort(np.asarray(values, dtype=np.float64))
    n = len(xs)
    if n == 0:
        raise ValueError("empty sample")
    below = np.arange(n) / n
    above = np.arange(1, n + 1) / n
    return float(max((xs - below).max(), (above - xs).max()))
