"""The array sampler contract and the exact laws of the samplers."""

import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from martinwalk import (
    GradedChain,
    MarkovSource,
    MixtureSource,
    PolyaUrnSource,
    State,
    alpha_walk,
    compositions,
    counting_chain_law,
    estimate_directing_measure,
    uniform_walk,
)

MIX = MixtureSource(
    atoms=((Fraction(1, 5), Fraction(4, 5)), (Fraction(3, 5), Fraction(2, 5))),
    weights=(Fraction(1, 2), Fraction(1, 2)),
)
CONTROL = MarkovSource(
    initial=(Fraction(1, 2), Fraction(1, 2)),
    rows=((Fraction(2, 3), Fraction(1, 3)), (Fraction(1, 6), Fraction(5, 6))),
)
# zero entries: symbol 2 never starts a path and never follows symbol 3
SPARSE_CONTROL = MarkovSource(
    initial=(Fraction(1, 4), Fraction(0), Fraction(3, 4)),
    rows=(
        (Fraction(0), Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
        (Fraction(1), Fraction(0), Fraction(0)),
    ),
)
SOURCES = [MIX, PolyaUrnSource((2, 1, 1)), CONTROL, SPARSE_CONTROL]
SAMPLERS = [
    uniform_walk(3).sampler,
    alpha_walk((Fraction(1, 4), Fraction(0), Fraction(3, 4))).sampler,
    *SOURCES,
]

#: draws per goodness-of-fit check
GOF_DRAWS = 4000


def rising(a: int, k: int) -> int:
    return math.prod(range(a, a + k))


def dirichlet_multinomial_pmf(initial, counts) -> Fraction:
    """P(Y_n = counts) for Y_n ~ Multinomial(n, p), p ~ Dirichlet(initial)."""
    n = sum(counts)
    coefficient = math.factorial(n) // math.prod(math.factorial(c) for c in counts)
    numerator = coefficient * math.prod(rising(a, c) for a, c in zip(initial, counts))
    return Fraction(numerator, rising(sum(initial), n))


def exact_final_law(source, n: int) -> dict[tuple, Fraction]:
    return {s.payload: p for s, p in counting_chain_law(source, n).marginal(n).items()}


def chi_square(draws: np.ndarray, pmf: dict[tuple, Fraction]) -> float:
    """Pearson statistic of the rows of ``draws`` against ``pmf``; rows outside
    the support of ``pmf`` make it infinite."""
    observed = Counter(map(tuple, draws.tolist()))
    if not set(observed) <= set(pmf):
        return math.inf
    total = len(draws)
    return sum(
        (observed.get(y, 0) - total * float(p)) ** 2 / (total * float(p))
        for y, p in pmf.items()
        if p != 0
    )


def chi_square_bound(pmf: dict[tuple, Fraction]) -> float:
    """Mean plus six standard deviations of chi^2 with (support - 1) degrees
    of freedom: a correct sampler exceeds it with probability below 1e-5."""
    df = sum(1 for p in pmf.values() if p != 0) - 1
    return df + 6 * math.sqrt(2 * df)


class TestDirichletMultinomialLaw:
    @pytest.mark.parametrize("initial", [(1, 1), (1, 3), (2, 1, 1)])
    def test_pmf_equals_counting_chain_marginals(self, initial):
        law = counting_chain_law(PolyaUrnSource(initial), 8)
        for n in range(1, 9):
            marginal = {s.payload: p for s, p in law.marginal(n).items()}
            assert set(marginal) == set(compositions(len(initial), n))
            residuals = [p - dirichlet_multinomial_pmf(initial, y) for y, p in marginal.items()]
            assert all(r == 0 for r in residuals)


class TestSampledLaws:
    @pytest.mark.parametrize("initial", [(1, 1), (1, 3), (2, 1, 1)])
    def test_polya_frequencies_fit_the_exact_pmf(self, initial):
        pmf = {y: dirichlet_multinomial_pmf(initial, y) for y in compositions(len(initial), 6)}
        draws = PolyaUrnSource(initial).sample_final_counts(6, 17, 0, GOF_DRAWS)
        assert chi_square(draws, pmf) <= chi_square_bound(pmf)

    @pytest.mark.parametrize("source", [CONTROL, SPARSE_CONTROL], ids=["control", "sparse"])
    def test_markov_frequencies_fit_the_exact_law(self, source):
        pmf = exact_final_law(source, 6)
        draws = source.sample_final_counts(6, 23, 0, GOF_DRAWS)
        assert chi_square(draws, pmf) <= chi_square_bound(pmf)

    def test_bound_rejects_a_neighbouring_law(self):
        pmf = {y: dirichlet_multinomial_pmf((1, 1), y) for y in compositions(2, 6)}
        draws = PolyaUrnSource((1, 2)).sample_final_counts(6, 17, 0, GOF_DRAWS)
        assert chi_square(draws, pmf) > chi_square_bound(pmf)
        pmf = exact_final_law(CONTROL, 6)
        swapped = MarkovSource(initial=CONTROL.initial, rows=CONTROL.rows[::-1])
        draws = swapped.sample_final_counts(6, 23, 0, GOF_DRAWS)
        assert chi_square(draws, pmf) > chi_square_bound(pmf)

    def test_polya_cost_does_not_grow_with_horizon(self):
        start = time.perf_counter()
        urn = PolyaUrnSource((1, 1))
        est = estimate_directing_measure(urn, horizon=10**8, replicates=4, seed=0)
        assert time.perf_counter() - start < 1.0
        assert est.samples.shape == (4, 2)
        assert np.allclose(est.samples.sum(axis=1), 1)


class TestArrayContract:
    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_final_counts_shape_and_levels(self, sampler):
        counts = sampler.sample_final_counts(30, 4, 3, 11)
        assert counts.dtype == np.int64 and counts.shape[0] == 8
        assert np.all(counts >= 0) and np.all(counts.sum(axis=1) == 30)
        assert sampler.sample_final_counts(30, 4, 5, 5).shape == (0, counts.shape[1])

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_rows_ignore_the_replicate_partition(self, sampler):
        whole = sampler.sample_final_counts(40, 9, 0, 10)
        splits = ((0, 3), (3, 4), (4, 10))
        parts = [sampler.sample_final_counts(40, 9, lo, hi) for lo, hi in splits]
        assert np.array_equal(whole, np.vstack(parts))

    @pytest.mark.parametrize("source", SOURCES)
    def test_estimate_ignores_blocks_and_workers(self, source):
        a = estimate_directing_measure(source, horizon=300, replicates=50, seed=2, workers=1)
        b = estimate_directing_measure(
            source, horizon=300, replicates=50, seed=2, workers=3, block_size=7
        )
        assert np.array_equal(a.samples, b.samples)

    def test_walk_paths_are_unit_steps(self):
        walk = alpha_walk((Fraction(1, 4), Fraction(0), Fraction(3, 4)))
        counts = walk.sampler.sample_path_counts(50, 1, 2)
        assert counts.dtype == np.int64 and counts.shape == (51, 3)
        assert not counts[0].any()
        steps = np.diff(counts, axis=0)
        assert np.all(steps.sum(axis=1) == 1) and np.all(steps >= 0)
        assert not counts[:, 1].any()

    def test_states_wrap_the_arrays(self):
        walk = uniform_walk(3)
        counts = walk.sampler.sample_path_counts(25, 6, 4)
        path = walk.sample_path(25, seed=6, replicate=4)
        assert path == [State(k, tuple(int(c) for c in row)) for k, row in enumerate(counts)]
        finals = walk.sample_final(25, seed=6, replicates=5)
        assert finals == [
            State(25, tuple(int(c) for c in row))
            for row in walk.sampler.sample_final_counts(25, 6, 0, 5)
        ]

    def test_path_view_reads_like_its_list(self):
        path = uniform_walk(2).sample_path(30, seed=1, replicate=2)
        states = list(path)
        assert len(path) == len(states) == 31
        assert [path[k] for k in range(-31, 31)] == states + states
        assert path[3:9] == states[3:9] and path[::-2] == states[::-2]
        assert path == states and path != states[:-1]
        assert all(type(c) is int for c in path[-1].payload)
        with pytest.raises(IndexError):
            path[31]

    def test_chain_without_sampler_steps_through_rows(self):
        root = State(0, 0)
        chain = GradedChain(
            root=root,
            family=lambda n: (State(n, 0), State(n, 1)) if n else (root,),
            successors=lambda x: ((State(x.level + 1, 0), 1), (State(x.level + 1, 1), 0)),
            level_budget=5,
        )
        assert chain.sampler is None
        assert chain.sample_final(7, seed=0, replicates=2) == [State(7, 0)] * 2
