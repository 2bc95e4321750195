"""The array sampler contract and the exact laws of the samplers."""

import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import martinwalk.definetti as definetti
from martinwalk import (
    GradedChain,
    MarkovSource,
    MixtureSource,
    PolyaUrnSource,
    alpha_walk,
    boundary_harmonic,
    closed_form_kernel,
    compositions,
    counting_chain_law,
    estimate_directing_measure,
    h_transform,
    representation_check_mc,
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
WALKS = [
    uniform_walk(3),
    alpha_walk((Fraction(1, 4), Fraction(0), Fraction(3, 4))),
    alpha_walk((Fraction(7, 10), Fraction(3, 10))),
]
WALK_IDS = ["uniform", "alpha-sparse", "alpha-7/10"]
SAMPLERS = [walk.sampler for walk in WALKS[:2]] + SOURCES

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
    final = counting_chain_law(source, n).push(lambda path: path[-1])
    return {s.payload: p for s, p in final.atoms.items()}


def walk_final_law(walk: GradedChain, n: int) -> dict[tuple, Fraction]:
    return {s.payload: p for s, p in walk.forward_law(n).atoms.items()}


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
            marginal = {s.payload: p for s, p in law.push(lambda path: path[n - 1]).atoms.items()}
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

    def test_mixture_frequencies_fit_the_exact_law(self):
        pmf = exact_final_law(MIX, 6)
        draws = MIX.sample_final_counts(6, 29, 0, GOF_DRAWS)
        assert chi_square(draws, pmf) <= chi_square_bound(pmf)

    @pytest.mark.parametrize("walk", WALKS, ids=WALK_IDS)
    def test_walk_final_counts_fit_the_forward_law(self, walk):
        pmf = walk_final_law(walk, 6)
        draws = walk.sampler.sample_final_counts(6, 31, 0, GOF_DRAWS)
        assert chi_square(draws, pmf) <= chi_square_bound(pmf)

    @pytest.mark.parametrize("walk", WALKS, ids=WALK_IDS)
    def test_walk_path_ends_fit_the_forward_law(self, walk):
        pmf = walk_final_law(walk, 6)
        draws = np.array([walk.sampler.sample_path_counts(6, 37, r)[-1] for r in range(GOF_DRAWS)])
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
    def test_estimate_ignores_blocks_and_workers(self, source, monkeypatch):
        a = estimate_directing_measure(source, horizon=300, replicates=50, seed=2, workers=1)
        monkeypatch.setattr(definetti, "BLOCK_SIZE", 7)
        b = estimate_directing_measure(source, horizon=300, replicates=50, seed=2, workers=3)
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
        assert np.array_equal(walk.sample_path(25, seed=6, replicate=4), counts)

    def test_chain_without_sampler_cannot_be_sampled(self):
        base = uniform_walk(2)
        h = boundary_harmonic((Fraction(7, 10), Fraction(3, 10)))
        chain = h_transform(base, h)
        assert chain.sampler is None
        with pytest.raises(ValueError, match="has no sampler"):
            chain.sample_path(7, seed=0)
        with pytest.raises(ValueError, match="has no sampler"):
            representation_check_mc(
                h, base.root, 7, replicates=2, seed=0, transformed=chain,
                kernel=closed_form_kernel,
            )
