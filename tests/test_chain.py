"""Core chain tests: enumeration, exact laws, kernel, cotransitions, sampling.

Expected values were derived by brute-force path enumeration (the cylinder
oracle) and are frozen as exact rationals.
"""

import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import martinwalk.chain
import martinwalk.suites as suites
from martinwalk import (
    BudgetExceededError,
    DistributionTable,
    GradedChain,
    MarkovSource,
    MixtureSource,
    NonStochasticError,
    State,
    UnreachableStateError,
    alpha_walk,
    boundary_harmonic,
    closed_form_kernel,
    comp_state,
    counting_chain,
    h_transform,
    kernel_rows,
    markov_property_check,
    source_cylinder_law,
    uniform_walk,
)
from martinwalk.suites import full_verification, oracle_equivalence_report, standard_mixture

#: step probabilities with denominators 5, 3 and 15 in every row
MIXED = (Fraction(1, 5), Fraction(1, 3), Fraction(7, 15))


@pytest.fixture(scope="module")
def walk2():
    return uniform_walk(2)


@pytest.fixture(scope="module")
def walk3():
    return uniform_walk(3)


class TestEnumeration:
    def test_root_level(self, walk2):
        assert [s.payload for s in walk2.enumerate_level(0)] == [(0, 0)]

    def test_level_two_lexicographic(self, walk2):
        assert [s.payload for s in walk2.enumerate_level(2)] == [(0, 2), (1, 1), (2, 0)]

    def test_level_count_d3(self, walk3):
        # weak compositions of 2 into 3 parts: C(4, 2)
        assert len(walk3.enumerate_level(2)) == 6


class TestForwardLaw:
    def test_root_mass(self, walk2):
        law = walk2.forward_law(0)
        assert law.atoms[comp_state((0, 0))] == 1

    def test_level_three(self, walk2):
        # 3 of the 8 equally likely step sequences end at (2, 1)
        assert walk2.forward_law(3).atoms[comp_state((2, 1))] == Fraction(3, 8)

    def test_level_two_d3(self, walk3):
        # 2 of 9 equally likely step pairs end at (1, 1, 0)
        assert walk3.forward_law(2).atoms[comp_state((1, 1, 0))] == Fraction(2, 9)

    def test_total_mass_one(self, walk3):
        for n in range(6):
            assert walk3.forward_law(n).total() == 1

    def test_non_stochastic_rows_raise(self):
        root = State(0, 0)
        chain = GradedChain(
            root=root,
            family=lambda n: (State(n, 0),),
            successors=lambda x: ((State(x.level + 1, 0), Fraction(1, 2)),),
        )
        with pytest.raises(NonStochasticError):
            chain.forward_law(2)


class TestSharedForwardMemo:
    def test_forward_law_is_conditional_law_from_root(self):
        w = uniform_walk(2)
        for n in (3, 0, 5, 1):
            assert w.forward_law(n) is w.conditional_law(w.root, n)
        assert w.conditional_law(w.root, 4) is w.forward_law(4)


def _skip_b_chain() -> GradedChain:
    """Level 1 enumerates (2,), which no step reaches."""
    a, b, c = State(1, (1,)), State(1, (2,)), State(1, (3,))
    return GradedChain(
        State(0, ()),
        lambda n: (a, b, c) if n == 1 else (),
        lambda x: [(a, Fraction(1, 2)), (c, Fraction(1, 2))],
        name="skip-b",
    )


class TestKernelRows:
    def test_order_matches_nested_levels(self):
        w = uniform_walk(2)
        expected = [
            (x, y)
            for m in range(4)
            for x in w.enumerate_level(m)
            for n in range(m, 4)
            for y in w.enumerate_level(n)
        ]
        walked = [
            (x, y) for x, n, row in kernel_rows(w, 3) for y in w.enumerate_level(n) if y in row
        ]
        assert walked == expected
        assert len(expected) == 65

    def test_unreachable_state_has_no_row(self):
        chain = _skip_b_chain()
        root, a, b, c = chain.root, *chain.enumerate_level(1)
        walked = [(x, n) for x, n, _ in kernel_rows(chain, 1)]
        assert walked == [(root, 0), (root, 1), (a, 1), (c, 1)]
        with pytest.raises(UnreachableStateError):
            chain.kernel_row(b, 1)


class TestConditionalForward:
    def test_same_state(self, walk2):
        x = comp_state((1, 1))
        assert walk2.conditional_law(x, x.level).atoms[x] == 1

    def test_two_steps(self, walk2):
        # from (1,0) two of four continuations reach (2,1)
        law = walk2.conditional_law(comp_state((1, 0)), 3)
        assert law.atoms[comp_state((2, 1))] == Fraction(1, 2)

    def test_impossible_target(self, walk2):
        # a coordinate can never decrease
        assert comp_state((3, 0)) not in walk2.conditional_law(comp_state((0, 1)), 3)

    def test_unreachable_conditioning(self):
        # only the single path (k, 0) is reachable under the degenerate walk
        from martinwalk import alpha_walk

        w = alpha_walk((Fraction(1), Fraction(0)))
        with pytest.raises(UnreachableStateError):
            w.conditional_law(State(1, (0, 1)), 3)


class TestMartinKernel:
    def test_root_is_one(self, walk2):
        for n in range(5):
            for y in walk2.enumerate_level(n):
                assert walk2.martin_kernel(walk2.root, y) == 1

    def test_unit_vector_case(self, walk2):
        # K(e_1, (2,1)) = d * y_1 / n = 2 * 2 / 3
        assert walk2.martin_kernel(comp_state((1, 0)), comp_state((2, 1))) == Fraction(4, 3)

    def test_two_step_case(self, walk2):
        # (3/8) / (5/16), both sides brute-forced
        assert walk2.martin_kernel(comp_state((1, 1)), comp_state((3, 2))) == Fraction(6, 5)

    def test_level_incompatible_is_zero(self, walk2):
        assert walk2.martin_kernel(comp_state((2, 1)), comp_state((1, 0))) == 0

    def test_kernel_bound_and_symmetry(self, walk2):
        for m in range(4):
            law = walk2.forward_law(m)
            for x in walk2.enumerate_level(m):
                for n in range(m, 5):
                    for y in walk2.enumerate_level(n):
                        forward = walk2.martin_kernel(x, y)
                        back = walk2.backward_conditional(y, m)
                        backward = back.atoms.get(x, 0) / law.atoms[x]
                        assert forward == backward
                        assert forward <= 1 / law.atoms[x]

    def test_unreachable_target_raises(self):
        from martinwalk import alpha_walk

        w = alpha_walk((Fraction(1), Fraction(0)))
        with pytest.raises(UnreachableStateError):
            w.martin_kernel(State(1, (1, 0)), State(2, (1, 1)))


class TestCotransition:
    def test_level_one_unique_root(self, walk3):
        for y in walk3.enumerate_level(1):
            assert walk3.cotransition(y).atoms == {walk3.root: 1}

    def test_paper_formula_instance(self, walk2):
        # (y_j + 1) / (n + 1) with predecessor (1,1), j = 1
        assert walk2.cotransition(comp_state((2, 1))).atoms[comp_state((1, 1))] == Fraction(2, 3)

    def test_complement(self, walk2):
        assert walk2.cotransition(comp_state((2, 1))).atoms[comp_state((2, 0))] == Fraction(1, 3)

    def test_sums_to_one(self, walk3):
        for n in range(1, 5):
            for y in walk3.enumerate_level(n):
                assert walk3.cotransition(y).total() == 1


class TestCylinderLaw:
    def test_horizon_zero(self, walk2):
        law = walk2.cylinder_law(0)
        assert law.atoms == {(): 1}

    def test_single_path_probability(self, walk2):
        law = walk2.cylinder_law(2)
        path = (comp_state((1, 0)), comp_state((2, 0)))
        assert law.atoms[path] == Fraction(1, 4)

    @pytest.mark.parametrize(
        "chain",
        [
            uniform_walk(2),
            alpha_walk(MIXED),
            h_transform(uniform_walk(3), boundary_harmonic(MIXED)),
        ],
        ids=["uniform", "mixed-denominators", "h-transform"],
    )
    def test_marginal_matches_forward_law(self, chain):
        law = chain.cylinder_law(4)
        for k in range(1, 5):
            marginal = law.push(lambda path: path[k - 1])
            assert marginal.nums == chain.forward_law(k).nums
            assert marginal.den == chain.forward_law(k).den
        for table in (law, *(law.push(lambda path: path[:k]) for k in range(4))):
            assert math.gcd(table.den, *table.nums.values()) == 1
            assert sum(table.nums.values()) == table.den

    def test_atom_budget(self, walk2, monkeypatch):
        monkeypatch.setattr(martinwalk.chain, "DEFAULT_ATOM_BUDGET", 10)
        with pytest.raises(BudgetExceededError):
            walk2.cylinder_law(6)

    def test_atom_budget_raises_before_building_paths(self):
        # 2^24 = 16,777,216 paths: counted level by level, none built
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="cylinder law at horizon 24 exceeds"):
            uniform_walk(2).cylinder_law(24)
        assert time.perf_counter() - start < 1.0

    def test_backwards_martingale_identity(self, walk2):
        # sum_x' K(x, x') P(Y_n = x' | Y_{n+1} = y) = K(x, y)
        for m in range(3):
            for x in walk2.enumerate_level(m):
                for n in range(m, 5):
                    for y in walk2.enumerate_level(n + 1):
                        mean = sum(
                            walk2.martin_kernel(x, xp) * p
                            for xp, p in walk2.cotransition(y).atoms.items()
                        )
                        assert mean == walk2.martin_kernel(x, y)

    def test_expectation_identity(self, walk2):
        # sum_y K(x, y) P(Y_n = y) = 1
        for m in range(4):
            for x in walk2.enumerate_level(m):
                for n in range(m, 6):
                    total = sum(
                        walk2.martin_kernel(x, y) * p
                        for y, p in walk2.forward_law(n).atoms.items()
                    )
                    assert total == 1


class TestOracleEquivalence:
    @pytest.mark.parametrize("d,horizon", [(2, 8), (3, 8)])
    def test_dp_matches_enumeration(self, d, horizon):
        walk = uniform_walk(d)
        report = oracle_equivalence_report(walk, walk.cylinder_law(horizon))
        assert report.ok, str(report)

    @pytest.mark.parametrize(
        "chain",
        [
            alpha_walk(MIXED),
            h_transform(uniform_walk(3), boundary_harmonic(MIXED)),
        ],
        ids=["mixed-denominators", "h-transform"],
    )
    def test_dp_matches_enumeration_on_other_rows(self, chain):
        report = oracle_equivalence_report(chain, chain.cylinder_law(5))
        assert report.ok, str(report)


class TestIntegerLaws:
    """Laws are int numerators over one reduced denominator per table; a
    float step probability is refused wherever a law is built."""

    @pytest.mark.parametrize(
        "chain",
        [
            uniform_walk(3),
            alpha_walk(MIXED),
            h_transform(uniform_walk(3), boundary_harmonic(MIXED)),
            counting_chain(standard_mixture(2)),
        ],
        ids=["uniform", "mixed-denominators", "h-transform", "counting"],
    )
    def test_every_table_is_in_lowest_terms(self, chain):
        for m in range(6):
            for x in chain.forward_law(m).nums:
                for n in range(m, 6):
                    table = chain.conditional_law(x, n)
                    assert isinstance(table.den, int)
                    assert all(isinstance(v, int) for v in table.nums.values())
                    assert math.gcd(table.den, *table.nums.values()) == 1
                    assert table.total() == 1

    def test_float_steps_raise(self):
        walk = alpha_walk((0.2, 0.3, 0.5))
        with pytest.raises(ValueError, match=r"float step probability 0\.2 at \(0, 0, 0\)@0 -> "):
            walk.successors(walk.root)
        with pytest.raises(ValueError, match=r"float step probability 0\.2 at \(0, 0, 0\)@0 -> "):
            walk.forward_law(1)
        assert walk.sample_path(5, seed=0).shape == (6, 3)  # a float walk still samples
        mixture = MixtureSource(atoms=((0.2, 0.8), (0.6, 0.4)), weights=(0.5, 0.5))
        chain = counting_chain(mixture)
        with pytest.raises(ValueError, match="float step probability"):
            chain.forward_law(2)
        with pytest.raises(ValueError, match="float step probability"):
            chain.conditional_law(chain.root, 3)
        with pytest.raises(ValueError, match=r"float step probability 0\.2 at \(0, 0, 0\)@0 -> "):
            walk.cylinder_law(2)
        with pytest.raises(ValueError, match=r"float atoms or weights in mixture"):
            source_cylinder_law(mixture, 2)
        markov = MarkovSource(initial=(0.2, 0.8), rows=((0.5, 0.5), (0.5, 0.5)))
        with pytest.raises(ValueError, match=r"float word probability 0\.1 of \(1, 1\)"):
            source_cylinder_law(markov, 2)

    @pytest.mark.parametrize("d", [2, 3])
    def test_kernel_row_matches_pairs_and_closed_form(self, d):
        chain = uniform_walk(d)
        for m in range(6):
            for x in chain.enumerate_level(m):
                for n in range(m, 6):
                    row = chain.kernel_row(x, n)
                    assert set(row) == set(chain.enumerate_level(n))
                    for y in chain.enumerate_level(n):
                        k = Fraction(*row[y])
                        assert k == chain.martin_kernel(x, y) == closed_form_kernel(x, y)
                        if any(b < a for a, b in zip(x.payload, y.payload)):
                            assert row[y][0] == 0

    def test_shared_chains_give_the_standalone_reports(self):
        """Suites run over the walk or counting family that ``full_verification``
        shares report what they report over fresh chains of their own."""

        def seen(reports):
            return [(r.name, r.checked, r.violations, r.notes) for r in reports]

        walk = uniform_walk(2)
        for suite in (
            suites.kernel_agreement_report,
            suites.kernel_symmetry_report,
            suites.martingale_identity_report,
            suites.expectation_identity_report,
        ):
            assert seen([suite(walk, 4)]) == seen([suite(uniform_walk(2), 4)])
        family = suites.counting_family(2)
        shared = [*suites.lemma_reports(family, 4), suites.recovery_identity_report(family, 4)]
        alone = [
            *suites.lemma_reports(suites.counting_family(2), 4),
            suites.recovery_identity_report(suites.counting_family(2), 4),
        ]
        assert seen(shared) == seen(alone)

    @pytest.mark.parametrize(
        "suite, prefix",
        [
            (suites.kernel_agreement_report, "kernel-agreement"),
            (suites.kernel_symmetry_report, "kernel-symmetry"),
            (suites.martingale_identity_report, "backwards-martingale"),
            (suites.expectation_identity_report, "kernel-expectation"),
        ],
        ids=lambda v: getattr(v, "__name__", v),
    )
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_kernel_suites_name_the_walk_they_check(self, suite, prefix, d):
        report = suite(uniform_walk(d), 3)
        assert report.ok, str(report)
        assert report.name == f"{prefix}[d={d}]<= 3"

    def test_recovery_reads_d_from_its_family(self):
        # d^n in the urn's h comes from the family's walk
        report = suites.recovery_identity_report(suites.counting_family(2), 3)
        assert report.ok, str(report)
        assert report.name == "h-recovery-identity[d=2]@3"

    def test_full_verification_builds_each_path_law_once(self, monkeypatch):
        """The oracle and Markov suites share the walk's path law, and the
        transform suites the base walk's and each conditioned walk's."""
        built = []
        cylinder_law = GradedChain.cylinder_law

        def counted(chain, n):
            built.append((chain, n))  # keeps each chain alive, so ids stay distinct
            return cylinder_law(chain, n)

        monkeypatch.setattr(GradedChain, "cylinder_law", counted)
        full_verification(3, 8, workers=1)
        keys = [(id(chain), n) for chain, n in built]
        assert len(keys) == len(set(keys)) == 6

    def test_full_verification_peak_memory(self):
        """Guards against a per-pair kernel memo, which traced 5.05 MB on this
        call.  A fresh interpreter keeps the reading apart from the tests run
        before it, and ``workers=1`` keeps the work in the traced process."""
        script = (
            "import tracemalloc\n"
            "from martinwalk.suites import full_verification\n"
            "tracemalloc.start()\n"
            "full_verification(3, 8, workers=1)\n"
            "print(tracemalloc.get_traced_memory()[1])\n"
        )
        src = os.path.dirname(os.path.dirname(martinwalk.chain.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr
        assert int(done.stdout) < 2_000_000


class TestMarkovPropertyCheck:
    def test_chain_law_is_markov(self, walk2):
        report = markov_property_check(walk2.cylinder_law(4))
        assert report.ok
        assert report.checked > 0

    def test_two_atom_violation(self):
        a = (comp_state((1, 0)), comp_state((1, 1)), comp_state((2, 1)))
        b = (comp_state((0, 1)), comp_state((1, 1)), comp_state((1, 2)))
        law = DistributionTable(3, {a: 1, b: 1}, 2)
        report = markov_property_check(law)
        assert not report.ok
        # conditioned on the full history the next step is certain, on the
        # state alone it is 1/2
        residuals = {abs(v.residual) for v in report.violations}
        assert Fraction(1, 2) in residuals

    def test_malformed_law(self):
        law = DistributionTable(2, {(comp_state((1, 0)), comp_state((2, 0))): 1}, 2)
        with pytest.raises(NonStochasticError):
            markov_property_check(law)

    def test_horizon_too_short(self, walk2):
        with pytest.raises(ValueError):
            markov_property_check(walk2.cylinder_law(1))


class TestSampling:
    def test_determinism(self, walk2):
        p1 = walk2.sample_path(20, seed=42)
        p2 = walk2.sample_path(20, seed=42)
        assert np.array_equal(p1, p2)
        assert np.array_equal(p1, walk2.sampler.sample_path_counts(20, 42, 0))

    def test_replicates_differ(self, walk2):
        p1 = walk2.sample_path(20, seed=42, replicate=0)
        p2 = walk2.sample_path(20, seed=42, replicate=1)
        assert not np.array_equal(p1, p2)

    def test_levels_and_steps(self, walk2):
        path = walk2.sample_path(15, seed=3)
        assert path.shape == (16, 2)
        assert path.sum(axis=1).tolist() == list(range(16))

    def test_degenerate_walk_single_path(self):
        from martinwalk import alpha_walk

        w = alpha_walk((Fraction(1), Fraction(0)))
        path = w.sample_path(5, seed=0)
        assert np.array_equal(path, [(k, 0) for k in range(6)])

    def test_law_of_large_numbers(self, walk2):
        # mean of Y_{n,1}/n over replicates within 3 standard errors of 1/2
        n, replicates = 10_000, 1_000
        finals = [
            walk2.sample_path(n, seed=2024, replicate=r)[-1, 0] / n
            for r in range(replicates)
        ]
        mean = float(np.mean(finals))
        se = 1.0 / math.sqrt(4 * n * replicates)
        assert abs(mean - 0.5) <= 3 * se


class TestStructuralChecks:
    def test_row_stochastic(self, walk3):
        assert walk3.check_row_stochastic(5).ok

    def test_weak_irreducibility(self, walk3):
        assert walk3.check_weak_irreducibility(5).ok

    def test_shrunken_walk_still_weakly_irreducible_on_its_family(self):
        from martinwalk import alpha_walk

        w = alpha_walk((Fraction(1), Fraction(0)))
        assert w.check_weak_irreducibility(5).ok
