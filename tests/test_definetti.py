"""Exchangeable sources, counting chains, directing-measure recovery, and the
binary-expansion lift."""

import itertools
import math
import time
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from martinwalk import (
    BudgetExceededError,
    DistributionTable,
    HarmonicFn,
    MartinWalkError,
    MarkovSource,
    MixtureSource,
    PolyaUrnSource,
    binary_digits,
    boundary_kernel,
    comp_state,
    counting_chain,
    counting_chain_law,
    counting_h_recovery,
    definetti_identity_check,
    dirichlet_moment,
    estimate_directing_measure,
    ks_distance_uniform,
    lift_source_law,
    projection_consistency_check,
    reconstruct_real,
    source_cylinder_law,
    uniform_walk,
    verify_counting_cotransitions,
    verify_counting_markov,
)
from martinwalk.chain import State
from martinwalk.definetti import cylinder_exchangeability_report, dead_symbols
from martinwalk.suites import standard_mixture, standard_negative_control

MIX = MixtureSource(
    atoms=((Fraction(1, 5), Fraction(4, 5)), (Fraction(3, 5), Fraction(2, 5))),
    weights=(Fraction(1, 2), Fraction(1, 2)),
)
POLYA = PolyaUrnSource((1, 1))
CONTROL = MarkovSource(
    initial=(Fraction(1, 2), Fraction(1, 2)),
    rows=((Fraction(2, 3), Fraction(1, 3)), (Fraction(1, 6), Fraction(5, 6))),
)


class TestSourceCylinderLaw:
    def test_single_atom_is_product_law(self):
        src = MixtureSource(atoms=((Fraction(1, 4), Fraction(3, 4)),), weights=(Fraction(1),))
        law = source_cylinder_law(src, 3)
        assert law.atoms[(1, 2, 1)] == Fraction(1, 4) * Fraction(3, 4) * Fraction(1, 4)

    def test_two_atom_value(self):
        # 1/2 * (1/5)^2 + 1/2 * (3/5)^2 = 1/5
        assert MIX.word_probability((1, 1)) == Fraction(1, 5)

    def test_polya_value_matches_beta_moment(self):
        assert POLYA.word_probability((1, 1)) == Fraction(1, 3)
        assert dirichlet_moment((1, 1), (2, 0)) == Fraction(1, 3)

    @pytest.mark.parametrize("word", [(), (1,), (2, 1, 1), (1, 2, 2, 1, 2)])
    def test_exact_word_probabilities_multiply_along_the_word(self, word):
        """One Fraction per word equals the product of the step probabilities."""
        expected = sum(
            w * math.prod(atom[s - 1] for s in word) for w, atom in zip(MIX.weights, MIX.atoms)
        )
        assert MIX.word_probability(word) == expected
        urn, counts, total = Fraction(1), [1, 1], 2
        for k, s in enumerate(word):
            urn *= Fraction(counts[s - 1], total + k)
            counts[s - 1] += 1
        assert POLYA.word_probability(word) == urn

    def test_float_atoms_raise_in_word_probability_but_still_sample(self):
        src = MixtureSource(
            atoms=((0.25, 0.75), (Fraction(1, 2), Fraction(1, 2))), weights=(0.5, 0.5)
        )
        with pytest.raises(ValueError, match=r"float atoms or weights in mixture\[2 atoms, d=2\]"):
            src.word_probability((2, 1))
        counts = src.sample_final_counts(10, seed=0, start=0, stop=3)
        assert counts.shape == (3, 2) and (counts.sum(axis=1) == 10).all()

    def test_total_mass(self):
        for src in (MIX, POLYA, CONTROL):
            assert source_cylinder_law(src, 4).total() == 1

    @pytest.mark.parametrize(
        "build",
        [
            lambda: source_cylinder_law(MIX, 30),
            lambda: counting_chain_law(MIX, 30),
            lambda: verify_counting_markov(MIX, source_cylinder_law(MIX, 30)),
            lambda: definetti_identity_check(MIX, 30),
            lambda: lift_source_law(MIX, (Fraction(5, 8), Fraction(1, 4)), 2, 30),
        ],
        ids=[
            "source_cylinder_law",
            "counting_chain_law",
            "verify_counting_markov",
            "definetti_identity_check",
            "lift_source_law",
        ],
    )
    def test_atom_budget(self, build):
        # 2^30 words: the budget is checked before any word is built
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            build()
        assert time.perf_counter() - start < 1.0

    def test_out_of_alphabet(self):
        with pytest.raises(ValueError):
            MIX.word_probability((1, 3))


class TestExchangeability:
    def test_sources_are_exchangeable(self):
        for src in (MIX, POLYA):
            for n in (3, 5, 6):
                report = cylinder_exchangeability_report(source_cylinder_law(src, n))
                assert report.ok, str(report)

    def test_explicit_permutations(self):
        law = source_cylinder_law(POLYA, 4)
        for word in itertools.product((1, 2), repeat=4):
            for perm in itertools.permutations(range(4)):
                permuted = tuple(word[perm[i]] for i in range(4))
                assert law.atoms.get(word, 0) == law.atoms.get(permuted, 0)

    def test_markov_control_not_exchangeable(self):
        assert not cylinder_exchangeability_report(source_cylinder_law(CONTROL, 3)).ok


class TestCountingPath:
    """``counting_chain_law`` keys each word's mass by its count path Y_1..Y_n."""

    def test_empty(self):
        assert counting_chain_law(MIX, 0).atoms == {(): 1}

    def test_example_path(self):
        path = (comp_state((1, 0)), comp_state((2, 0)), comp_state((2, 1)))
        assert counting_chain_law(MIX, 3).atoms[path] == MIX.word_probability((1, 1, 2))

    def test_single_symbol(self):
        src = MixtureSource(atoms=((Fraction(0), Fraction(1), Fraction(0)),), weights=(Fraction(1),))
        path = (comp_state((0, 1, 0)), comp_state((0, 2, 0)), comp_state((0, 3, 0)))
        assert counting_chain_law(src, 3).atoms == {path: 1}


class TestCountingChainLaw:
    def test_single_atom_mass_on_one_ray(self):
        src = MixtureSource(atoms=((Fraction(1), Fraction(0)),), weights=(Fraction(1),))
        law = counting_chain_law(src, 4)
        ray = tuple(comp_state((k, 0)) for k in range(1, 5))
        assert law.atoms == {ray: Fraction(1)}

    def test_polya_level_two(self):
        law = counting_chain_law(POLYA, 2)
        mass = law.push(lambda path: path[1]).atoms
        assert mass[comp_state((1, 1))] == Fraction(1, 3)

    def test_two_delta_mixture(self):
        src = MixtureSource(
            atoms=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
            weights=(Fraction(1, 2), Fraction(1, 2)),
        )
        law = counting_chain_law(src, 2)
        assert law.push(lambda path: path[1]).atoms[comp_state((2, 0))] == Fraction(1, 2)


class TestLemma:
    def test_mixture_counting_is_markov(self):
        report = verify_counting_markov(MIX, source_cylinder_law(MIX, 6))
        assert report.ok, str(report)

    def test_polya_counting_is_markov_with_urn_transitions(self):
        assert verify_counting_markov(POLYA, source_cylinder_law(POLYA, 6)).ok
        chain = counting_chain(POLYA)
        for k in range(5):
            for y in chain.enumerate_level(k):
                for target, p in chain.successors(y):
                    j = [b - a for a, b in zip(y.payload, target.payload)].index(1)
                    assert p == Fraction(y.payload[j] + 1, k + 2)

    def test_cotransitions_match_closed_form(self):
        for src in (MIX, POLYA):
            report = verify_counting_cotransitions(src, 6)
            assert report.ok, str(report)

    def test_polya_specific_cotransition(self):
        law = counting_chain_law(POLYA, 2)
        joint = law.atoms[(comp_state((1, 0)), comp_state((1, 1)))]
        assert joint / law.push(lambda path: path[1]).atoms[comp_state((1, 1))] == Fraction(1, 2)

    def test_negative_control_fails_both(self):
        assert not verify_counting_markov(CONTROL, source_cylinder_law(CONTROL, 6)).ok
        assert not verify_counting_cotransitions(CONTROL, 6).ok

    def test_dead_symbol_note(self):
        src = MixtureSource(atoms=((Fraction(1), Fraction(0)),), weights=(Fraction(1),))
        report = verify_counting_markov(src, source_cylinder_law(src, 4))
        assert report.ok
        assert any("never occur" in note for note in report.notes)


#: the eight sources whose lumped counting chain is held to the word-enumeration oracle
DP_SOURCES = (
    standard_mixture(2),
    standard_mixture(3),
    PolyaUrnSource((1, 1)),
    PolyaUrnSource((1, 1, 1)),
    PolyaUrnSource((2, 1)),
    standard_negative_control(),
    MixtureSource(atoms=((Fraction(3, 10), Fraction(7, 10)),), weights=(Fraction(1),)),
    MixtureSource(
        atoms=((Fraction(1, 2), Fraction(1, 2), Fraction(0)), (Fraction(1, 3), Fraction(2, 3), Fraction(0))),
        weights=(Fraction(1, 4), Fraction(3, 4)),
    ),
)


def extracted_rows(source, n):
    """Level families and rows of the counting chain read off the d^n path law."""
    law = counting_chain_law(source, n)
    root = State(0, (0,) * source.d)
    masses = [{root: Fraction(1)}]
    masses += [law.push(lambda path: path[k - 1]).atoms for k in range(1, n + 1)]
    families = [tuple(sorted(x for x, p in mass.items() if p != 0)) for mass in masses]
    rows = {root: {y: p for y, p in masses[1].items() if p != 0}}
    for k in range(1, n):
        for (x, y), p in law.push(lambda path: path[k - 1 : k + 1]).atoms.items():
            if p != 0:
                rows.setdefault(x, {})[y] = p / masses[k][x]
    return families, rows


class NoWords:
    """A source whose words may not be enumerated: only its next-symbol law is usable."""

    def __init__(self, source):
        self.d = source.d
        self.name = source.name
        self.next_symbol_law = source.next_symbol_law

    def word_probability(self, word):
        raise AssertionError(f"word {word} enumerated")


class TestLumpedCountingChain:
    @pytest.mark.parametrize("source", DP_SOURCES, ids=lambda s: s.name)
    @pytest.mark.parametrize("n", (2, 4, 6))
    def test_rows_and_families_equal_extracted(self, source, n):
        chain = counting_chain(source)
        families, rows = extracted_rows(source, n)
        for k in range(n + 1):
            assert chain.enumerate_level(k) == families[k]
        for k in range(n):
            for x in families[k]:
                assert dict(chain.successors(x)) == rows[x]

    def test_urn_law_at_any_level(self):
        # a counting chain has no horizon; the urn (1, 1) makes Y_15 uniform on 16 states
        law = counting_chain(PolyaUrnSource((1, 1))).forward_law(15)
        assert law.atoms == {comp_state((k, 15 - k)): Fraction(1, 16) for k in range(16)}

    @pytest.mark.parametrize("source", (MIX, standard_mixture(3), POLYA, PolyaUrnSource((2, 1)), CONTROL))
    def test_next_symbol_law_is_word_ratio(self, source):
        for n in range(6):
            for word in itertools.product(range(1, source.d + 1), repeat=n):
                p = source.word_probability(word)
                if p == 0:
                    continue
                counts = tuple(word.count(j) for j in range(1, source.d + 1))
                law = source.next_symbol_law(counts, word[-1] if word else None)
                expected = tuple(source.word_probability(word + (j,)) / p for j in range(1, source.d + 1))
                assert law == expected

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_mixture_law_is_the_moment_ratio(self, data):
        """The int next-symbol law of a random exact mixture equals the ratio
        of its ``Fraction`` directing moments, entry by entry."""
        d = data.draw(st.integers(2, 4))
        simplex = st.lists(st.integers(0, 6), min_size=d, max_size=d).filter(any)
        atoms = data.draw(st.lists(simplex, min_size=1, max_size=3))
        weights = data.draw(st.lists(st.integers(1, 6), min_size=len(atoms), max_size=len(atoms)))
        mixture = MixtureSource(
            atoms=tuple(tuple(Fraction(a, sum(atom)) for a in atom) for atom in atoms),
            weights=tuple(Fraction(w, sum(weights)) for w in weights),
        )
        counts = tuple(data.draw(st.lists(st.integers(0, 5), min_size=d, max_size=d)))
        moment = mixture.directing_moment(counts)
        assume(moment != 0)
        law = mixture.next_symbol_law(counts, None)
        for j in range(d):
            step = tuple(c + (i == j) for i, c in enumerate(counts))
            assert law[j] == mixture.directing_moment(step) / moment
            assert type(law[j]) is Fraction

    def test_float_mixture_steps_raise(self):
        """A float mixture's next-symbol law stays float, so its counting chain
        refuses the float step, as any chain does."""
        mixture = MixtureSource(atoms=((0.2, 0.8), (0.6, 0.4)), weights=(0.5, 0.5))
        assert all(isinstance(p, float) for p in mixture.next_symbol_law((1, 0), None))
        with pytest.raises(ValueError, match="^float step probability .* laws are exact$"):
            counting_chain(mixture).forward_law(1)

    @pytest.mark.parametrize("source", (MIX, POLYA, CONTROL, DP_SOURCES[-1]), ids=lambda s: s.name)
    def test_no_word_is_enumerated(self, source):
        wrapped = NoWords(source)
        with pytest.raises(AssertionError):
            source_cylinder_law(wrapped, 1)
        chain = counting_chain(wrapped)
        assert chain.forward_law(8).total() == 1
        assert dead_symbols(wrapped) == dead_symbols(source)
        report = verify_counting_cotransitions(wrapped, 8)
        assert report.ok == (source is not CONTROL)
        if source is not CONTROL:
            counting_h_recovery(wrapped, 8)

    @pytest.mark.parametrize("d, n", ((2, 40), (3, 15)))
    def test_recovery_at_large_horizon(self, d, n):
        mixture = standard_mixture(d)
        urn = PolyaUrnSource((1,) * d)
        h_mix = counting_h_recovery(mixture, n)
        h_urn = counting_h_recovery(urn, n)
        walk = uniform_walk(d)
        for k in range(n + 1):
            for x in walk.enumerate_level(k):
                assert h_mix(x) == sum(w * boundary_kernel(x, a) for w, a in mixture.directing_atoms())
                assert h_urn(x) == Fraction(d) ** k * dirichlet_moment(urn.initial, x.payload)

    def test_negative_control_fails_cotransitions_at_every_horizon(self):
        control = standard_negative_control()
        for n in range(3, 31):
            assert not verify_counting_cotransitions(control, n).ok, n


class TestHRecovery:
    def test_single_atom_recovers_boundary_kernel(self):
        mu = (Fraction(3, 10), Fraction(7, 10))
        src = MixtureSource(atoms=(mu,), weights=(Fraction(1),))
        h = counting_h_recovery(src, 5)
        for n in range(5):
            for c in itertools.product(range(n + 1), repeat=2):
                if sum(c) == n:
                    assert h(comp_state(c)) == boundary_kernel(c, mu)

    def test_uniform_atom_recovers_constant(self):
        src = MixtureSource(atoms=((Fraction(1, 2), Fraction(1, 2)),), weights=(Fraction(1),))
        h = counting_h_recovery(src, 5)
        for k in range(5):
            assert h(comp_state((k, 0))) == 1

    def test_mixture_recovers_mixture_of_kernels(self):
        h = counting_h_recovery(MIX, 6)
        expected = HarmonicFn.mixture(
            [(w, HarmonicFn(lambda s, a=a: boundary_kernel(s, a))) for w, a in MIX.directing_atoms()]
        )
        for n in range(6):
            for c in itertools.product(range(n + 1), repeat=2):
                if sum(c) == n:
                    assert h(comp_state(c)) == expected(comp_state(c))

    def test_polya_recovers_dirichlet_mixture(self):
        h = counting_h_recovery(POLYA, 6)
        for n in range(6):
            for k in range(n + 1):
                c = (k, n - k)
                assert h(comp_state(c)) == Fraction(2) ** n * dirichlet_moment((1, 1), c)


class TestDirectingEstimate:
    def test_single_atom_concentrates(self):
        src = MixtureSource(atoms=((Fraction(7, 10), Fraction(3, 10)),), weights=(Fraction(1),))
        est = estimate_directing_measure(src, horizon=10_000, replicates=200, seed=3)
        assert np.all(np.abs(est.samples[:, 0] - 0.7) <= 0.02)

    def test_mixture_clusters(self):
        est = estimate_directing_measure(MIX, horizon=10_000, replicates=400, seed=5)
        clusters = est.cluster_summary(MIX.atoms)
        for summary in clusters:
            assert max(abs(m - a) for m, a in zip(summary.mean, summary.atom)) <= 0.02
            assert abs(summary.weight - 0.5) <= 0.08

    def test_polya_uniform_directing(self):
        est = estimate_directing_measure(POLYA, horizon=5_000, replicates=500, seed=9)
        assert ks_distance_uniform(est.samples[:, 0]) <= 0.08

    def test_worker_invariance(self):
        a = estimate_directing_measure(POLYA, horizon=500, replicates=300, seed=1, workers=1)
        b = estimate_directing_measure(POLYA, horizon=500, replicates=300, seed=1, workers=4)
        assert np.array_equal(a.samples, b.samples)

    def test_moments(self):
        est = estimate_directing_measure(POLYA, horizon=2_000, replicates=500, seed=2)
        means, seconds = est.coordinate_moments()
        assert means[0] == pytest.approx(0.5, abs=0.05)
        assert seconds[0] == pytest.approx(1 / 3, abs=0.05)


class TestDefinettiIdentity:
    def test_single_atom_product_identity(self):
        src = MixtureSource(atoms=((Fraction(1, 4), Fraction(3, 4)),), weights=(Fraction(1),))
        assert definetti_identity_check(src, 3).ok

    def test_polya_closed_form(self):
        report = definetti_identity_check(POLYA, 2)
        assert report.ok, str(report)
        assert POLYA.word_probability((1, 1)) == Fraction(1, 3)

    def test_mixture_exact(self):
        assert definetti_identity_check(MIX, 3).ok

    def test_source_without_directing_law(self):
        with pytest.raises(MartinWalkError, match="no directing law"):
            definetti_identity_check(standard_negative_control(), 2)

    def test_negative_control_fails(self):
        """The control's word law against the moments of a fair coin: every
        word of length 2 differs."""
        control = standard_negative_control()
        fair = MixtureSource(atoms=((Fraction(1, 2), Fraction(1, 2)),), weights=(Fraction(1),))
        source = SimpleNamespace(
            d=control.d,
            name=control.name,
            word_probability=control.word_probability,
            directing_moment=fair.directing_moment,
        )
        report = definetti_identity_check(source, 2)
        assert (report.checked, len(report.violations)) == (4, 4)

    @pytest.mark.parametrize(
        "weight, atom",
        [(2, (Fraction(1, 2), Fraction(1, 2))), (1, (Fraction(1, 2), Fraction(1, 3)))],
        ids=["weight-sums-to-2", "atom-sums-to-5/6"],
    )
    def test_explicit_directing_law_is_validated(self, weight, atom):
        with pytest.raises(ValueError, match="sum to"):
            MixtureSource(atoms=(atom,), weights=(weight,))


class TestBinaryDigits:
    def test_zero(self):
        assert binary_digits(0, 6) == (0, 0, 0, 0, 0, 0)

    def test_dyadic(self):
        assert binary_digits(0.625, 4) == (1, 0, 1, 0)

    def test_third(self):
        assert binary_digits(Fraction(1, 3), 4) == (0, 1, 0, 1)

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_digits(1.0, 3)
        with pytest.raises(ValueError):
            binary_digits(-0.1, 3)

    def test_reconstruct_values(self):
        assert reconstruct_real((0, 0, 0)) == 0
        assert reconstruct_real((1, 0, 1)) == Fraction(5, 8)

    def test_reconstruct_validates(self):
        with pytest.raises(ValueError):
            reconstruct_real((1, 2, 0))

    def test_roundtrip_grid(self):
        depth = 30
        bound = Fraction(1, 2**depth)
        for i in range(0, 10_000, 37):
            x = Fraction(i, 10_000)
            assert abs(x - reconstruct_real(binary_digits(x, depth))) < bound

    @given(st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_floats(self, x):
        depth = 40
        back = reconstruct_real(binary_digits(x, depth))
        assert abs(Fraction(x) - back) < Fraction(1, 2**depth)

    @given(
        st.one_of(
            st.fractions(min_value=0, max_value=1).filter(lambda q: q < 1),
            st.floats(min_value=0.0, max_value=1.0, exclude_max=True, allow_nan=False),
        ),
        st.integers(1, 64),
    )
    @settings(max_examples=300, deadline=None)
    def test_digits_follow_the_floor_formula(self, x, count):
        """Digit k is floor(2^k x) - 2 floor(2^(k-1) x), and the partial sum
        of the digits lies within 2^-count below x."""
        value = Fraction(x)
        digits = binary_digits(x, count)
        assert digits == tuple(
            math.floor(2**k * value) - 2 * math.floor(2 ** (k - 1) * value)
            for k in range(1, count + 1)
        )
        assert 0 <= value - reconstruct_real(digits) < Fraction(1, 2**count)


class TestLift:
    def test_point_mass_projection(self):
        point = DistributionTable(1, {Fraction(5, 8): 1})
        deep = point.push(lambda p: binary_digits(p, 3))
        shallow = point.push(lambda p: binary_digits(p, 2))
        assert deep.atoms == {(1, 0, 1): Fraction(1)}
        assert shallow.atoms == {(1, 0): Fraction(1)}
        assert projection_consistency_check(deep, shallow).ok

    def test_uniform_projection(self):
        deep = DistributionTable(3, dict.fromkeys(itertools.product((0, 1), repeat=3), 1), 8)
        shallow = DistributionTable(2, dict.fromkeys(itertools.product((0, 1), repeat=2), 1), 4)
        assert projection_consistency_check(deep, shallow).ok

    def test_perturbed_projection_fails(self):
        deep = DistributionTable(3, dict.fromkeys(itertools.product((0, 1), repeat=3), 1), 8)
        shallow = DistributionTable(2, {(0, 0): 3, (0, 1): 1, (1, 0): 2, (1, 1): 2}, 8)
        report = projection_consistency_check(deep, shallow)
        assert not report.ok

    def test_malformed_distribution(self):
        from martinwalk import NonStochasticError

        with pytest.raises(NonStochasticError):
            projection_consistency_check(
                DistributionTable(2, {(0, 0): 1}, 2), DistributionTable(1, {(0,): 1})
            )

    def test_lifted_law_is_exchangeable(self):
        points = (Fraction(5, 8), Fraction(1, 4))
        src = MixtureSource(
            atoms=((Fraction(1, 4), Fraction(3, 4)), (Fraction(2, 3), Fraction(1, 3))),
            weights=(Fraction(1, 2), Fraction(1, 2)),
        )
        for depth in (1, 2, 3):
            law = lift_source_law(src, points, depth, 3)
            assert law.total() == 1
            report = cylinder_exchangeability_report(law)
            assert report.ok, str(report)

    def test_lift_merges_colliding_points(self):
        # both points share the first digit 0, so at depth 1 the law collapses
        points = (Fraction(1, 4), Fraction(3, 8))
        src = MixtureSource(
            atoms=((Fraction(1, 2), Fraction(1, 2)),), weights=(Fraction(1),)
        )
        law = lift_source_law(src, points, 1, 2)
        assert law.atoms == {((0,), (0,)): Fraction(1)}


class TestKSDistance:
    def test_perfect_grid(self):
        xs = (np.arange(100) + 0.5) / 100
        assert ks_distance_uniform(xs) == pytest.approx(0.005)

    def test_degenerate_sample(self):
        assert ks_distance_uniform([0.5] * 10) == pytest.approx(0.5)
