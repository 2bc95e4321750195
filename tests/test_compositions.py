"""Composition-walk tests: enumeration, closed forms, boundary kernel,
conditioned walks."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from martinwalk import (
    alpha_walk,
    boundary_harmonic,
    boundary_kernel,
    closed_form_kernel,
    comp_state,
    compositions,
    h_transform,
    is_harmonic,
    product_moment,
    uniform_walk,
)
from martinwalk.compositions import closed_form_kernel_row, polya_cotransition, rounded_ray_point


class TestCompositions:
    def test_small_cases(self):
        assert compositions(2, 2) == ((0, 2), (1, 1), (2, 0))
        assert compositions(1, 5) == ((5,),)

    @given(st.integers(1, 5), st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_count_and_order(self, d, n):
        comps = compositions(d, n)
        assert len(comps) == math.comb(n + d - 1, d - 1)
        assert all(sum(c) == n for c in comps)
        assert list(comps) == sorted(comps)


class TestUniformWalk:
    def test_single_part_deterministic(self):
        w = uniform_walk(1)
        assert w.forward_law(4).atoms[comp_state((4,))] == 1

    def test_step_probability(self):
        w = uniform_walk(2)
        assert dict(w.successors(comp_state((1, 1))))[comp_state((2, 1))] == Fraction(1, 2)

    def test_forward_law_d3(self):
        w = uniform_walk(3)
        assert w.forward_law(2).atoms[comp_state((2, 0, 0))] == Fraction(1, 9)
        assert w.forward_law(2).atoms[comp_state((1, 1, 0))] == Fraction(2, 9)

    def test_forward_law_at_any_level(self):
        # a walk has no level cap: level 16 is Binomial(16, 1/2), exactly
        law = uniform_walk(2).forward_law(16)
        expected = {comp_state((k, 16 - k)): Fraction(math.comb(16, k), 2**16) for k in range(17)}
        assert law.atoms == expected


def exact_kernel(x, y):
    """Independent integer oracle: d^m * prod falling factorials."""
    d, m, n = len(x), sum(x), sum(y)
    num = d**m
    for xi, yi in zip(x, y):
        for t in range(xi):
            num *= yi - t
    den = 1
    for t in range(m):
        den *= n - t
    return Fraction(num, den)


class TestClosedFormKernel:
    def test_unit_vector_special_case(self):
        # K(e_1, (3,2)) = d * y_1 / n = 2 * 3 / 5
        assert closed_form_kernel((1, 0), (3, 2)) == Fraction(6, 5)

    def test_root(self):
        assert closed_form_kernel((0, 0, 0), (2, 1, 0)) == 1

    def test_interior_case(self):
        assert closed_form_kernel((1, 1), (3, 2)) == Fraction(6, 5)

    def test_dominance_failure_is_zero(self):
        assert closed_form_kernel((2, 0), (1, 3)) == 0
        assert closed_form_kernel((1, 1), (1, 0)) == 0

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_dp_kernel(self, d):
        w = uniform_walk(d)
        for m in range(5):
            for x in w.enumerate_level(m):
                for n in range(m, 6):
                    for y in w.enumerate_level(n):
                        assert closed_form_kernel(x, y) == w.martin_kernel(x, y)

    def test_exact_at_every_level(self):
        value = closed_form_kernel((1, 0), (300_000, 700_000))
        assert isinstance(value, Fraction)
        assert value == Fraction(3, 5)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_row_is_the_pairwise_kernel(self, d):
        """A closed-form row holds closed_form_kernel(x, y) for each y of the
        level in order, zero numerators where y does not dominate x."""
        for m in range(4):
            for x in compositions(d, m):
                for n in range(m, 6):
                    row = closed_form_kernel_row(x, n)
                    assert len(row) == len(compositions(d, n))
                    for y, (a, b) in zip(compositions(d, n), row):
                        assert Fraction(a, b) == closed_form_kernel(x, y) == exact_kernel(x, y)

    def test_row_below_the_level_of_x_raises(self):
        with pytest.raises(ValueError, match="below the level"):
            closed_form_kernel_row((1, 1), 1)

    def test_rays_match_the_integer_oracle(self):
        for n in (10**3, 10**5, 10**6):
            y = rounded_ray_point(n, (0.3, 0.7))
            for x in ((1, 0), (2, 1), (0, 3)):
                assert closed_form_kernel(x, y) == exact_kernel(x, y)

    @pytest.mark.parametrize(
        "x, y",
        [((300, 400), (30_000, 70_000)), ((1000, 1), (10**6, 5)), ((600, 0), (6000, 4000))],
    )
    def test_long_falling_factorials_stay_accurate(self, x, y):
        # falling factorials of hundreds of factors
        assert closed_form_kernel(x, y) == exact_kernel(x, y)


class TestBoundaryKernel:
    def test_uniform_alpha_is_constant_one(self):
        alpha = (Fraction(1, 3),) * 3
        for c in compositions(3, 4):
            assert boundary_kernel(c, alpha) == 1

    def test_values(self):
        alpha = (Fraction(7, 10), Fraction(3, 10))
        assert boundary_kernel((1, 0), alpha) == Fraction(7, 5)
        assert boundary_kernel((2, 0), alpha) == Fraction(49, 25)

    def test_zero_coordinate_convention(self):
        alpha = (Fraction(1), Fraction(0))
        assert boundary_kernel((0, 0), alpha) == 1
        assert boundary_kernel((3, 0), alpha) == 8
        assert boundary_kernel((2, 1), alpha) == 0

    def test_kernel_limit_along_ray(self):
        alpha = (0.7, 0.3)
        target = float(boundary_kernel((2, 0), alpha))
        assert target == pytest.approx(1.96)
        errors = [
            abs(float(closed_form_kernel((2, 0), rounded_ray_point(n, alpha))) - target)
            for n in (10**3, 10**4, 10**5)
        ]
        assert errors[-1] <= 1e-3
        assert errors[0] >= errors[1] >= errors[2]

    def test_harmonic_for_rational_alpha(self):
        w = uniform_walk(2)
        for alpha in [(Fraction(1, 2), Fraction(1, 2)), (Fraction(2, 7), Fraction(5, 7))]:
            report = is_harmonic(w, boundary_harmonic(alpha), 8)
            assert report.ok, str(report)

    def test_unnormalized_form_fails(self):
        from martinwalk.harmonic import HarmonicFn

        w = uniform_walk(2)
        alpha = (Fraction(7, 10), Fraction(3, 10))
        plain = HarmonicFn(
            lambda s: alpha[0] ** s.payload[0] * alpha[1] ** s.payload[1],
            name="plain",
        )
        assert not is_harmonic(w, plain, 4).ok


def reference_moment(point, counts):
    value = Fraction(1)
    for a, c in zip(point, counts):
        for _ in range(c):
            value *= a
    return value


class TestProductMoment:
    def test_zero_to_the_zero_is_one(self):
        assert product_moment((Fraction(0), Fraction(1)), (0, 3)) == 1
        assert product_moment((Fraction(0), Fraction(1)), (1, 3)) == 0
        assert product_moment((), ()) == 1

    @given(
        st.lists(
            st.tuples(st.fractions(min_value=0, max_value=1, max_denominator=12), st.integers(0, 4)),
            max_size=5,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_exact_matches_reference_loop(self, pairs):
        point = [a for a, _ in pairs]
        counts = [c for _, c in pairs]
        value = product_moment(point, counts)
        assert isinstance(value, Fraction)
        assert value == reference_moment(point, counts)

    @given(
        st.lists(
            st.tuples(st.floats(min_value=0, max_value=1), st.integers(1, 4)),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_float_matches_reference_loop(self, pairs):
        point = [a for a, _ in pairs]
        counts = [c for _, c in pairs]
        value = product_moment(point, counts)
        assert isinstance(value, float)
        assert value == pytest.approx(float(reference_moment(point, counts)), rel=1e-12, abs=1e-300)

    def test_boundary_kernel_is_scaled_moment(self):
        alpha = (Fraction(1, 5), Fraction(0), Fraction(4, 5))
        for x in compositions(3, 3):
            assert boundary_kernel(x, alpha) == 27 * product_moment(alpha, x)


class TestAlphaWalk:
    def test_uniform_alpha_equals_uniform_walk(self):
        w = uniform_walk(3)
        a = alpha_walk((Fraction(1, 3),) * 3)
        assert w.cylinder_law(4).atoms == a.cylinder_law(4).atoms

    def test_degenerate_single_path(self):
        a = alpha_walk((Fraction(1), Fraction(0), Fraction(0)))
        law = a.forward_law(6)
        assert law.atoms[comp_state((6, 0, 0))] == 1
        assert len(law) == 1

    def test_matches_h_transform_exactly(self):
        alpha = (Fraction(7, 10), Fraction(3, 10))
        base = uniform_walk(2)
        walk = alpha_walk(alpha)
        lifted = h_transform(base, boundary_harmonic(alpha))
        assert walk.cylinder_law(6).atoms == lifted.cylinder_law(6).atoms


class TestPolyaCotransition:
    def test_root_case(self):
        assert polya_cotransition((0, 0, 0), 2) == 1

    def test_paper_value(self):
        assert polya_cotransition((3, 1), 1) == Fraction(4, 5)

    def test_cross_check_with_dp(self):
        for chain in (uniform_walk(2), alpha_walk((Fraction(2, 5), Fraction(3, 5)))):
            for n in range(5):
                for x in chain.enumerate_level(n):
                    for y, _ in chain.successors(x):
                        j = 1 + [b - a for a, b in zip(x.payload, y.payload)].index(1)
                        assert chain.cotransition(y).atoms[x] == polya_cotransition(x.payload, j)

    def test_second_direction(self):
        assert polya_cotransition((1, 1), 2) == Fraction(2, 3)

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            polya_cotransition((1, 1), 3)
