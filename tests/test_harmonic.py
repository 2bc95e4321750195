"""h-transform machinery: harmonicity, density, kernel and cotransition
identities, recovery, and the finite-horizon representation identity."""

from fractions import Fraction

import numpy as np
import pytest

from martinwalk import (
    BudgetExceededError,
    CotransitionMismatchError,
    HarmonicFn,
    MarkovSource,
    NotHarmonicError,
    PolyaUrnSource,
    State,
    alpha_walk,
    boundary_harmonic,
    closed_form_kernel,
    comp_state,
    cotransition_equality_check,
    counting_chain,
    density_ratio_check,
    h_transform,
    is_harmonic,
    kernel_transform_check,
    recover_h,
    representation_check,
    representation_check_mc,
    uniform_walk,
)

ALPHA = (Fraction(7, 10), Fraction(3, 10))


@pytest.fixture(scope="module")
def base():
    return uniform_walk(2)


@pytest.fixture(scope="module")
def h_alpha():
    return boundary_harmonic(ALPHA)


@pytest.fixture(scope="module")
def transformed(base, h_alpha):
    return h_transform(base, h_alpha)


class TestHarmonicFn:
    def test_calls_its_function_once_per_state(self, base):
        calls = []

        def value(state):
            calls.append(state)
            return Fraction(1)

        h = HarmonicFn(value, name="1")
        assert is_harmonic(base, h, 4).ok
        assert h_transform(base, h).forward_law(4).total() == 1
        states = [x for n in range(5) for x in base.enumerate_level(n)]
        assert sorted(calls) == sorted(states)

    def test_a_raising_call_is_not_cached(self):
        calls = []

        def value(state):
            calls.append(state)
            raise ValueError("no value")

        h = HarmonicFn(value)
        for _ in range(2):
            with pytest.raises(ValueError):
                h(comp_state((1, 0)))
        assert len(calls) == 2


class TestIsHarmonic:
    def test_constant_function(self, base):
        assert is_harmonic(base, HarmonicFn(lambda _s: 1, name="1"), 6).ok

    def test_boundary_kernel_is_harmonic(self, base, h_alpha):
        report = is_harmonic(base, h_alpha, 6)
        assert report.ok, str(report)

    def test_first_coordinate_fails_everywhere(self, base):
        h = HarmonicFn(lambda s: Fraction(s.payload[0]), name="x1")
        report = is_harmonic(base, h, 4)
        assert not report.ok
        # mean value exceeds h by exactly 1/2 at every state; h(e)=0 also flagged
        mean_value = [v for v in report.violations if v.site.startswith("mean-value")]
        interior = sum(len(base.enumerate_level(n)) for n in range(4))
        assert len(mean_value) == interior
        assert all(v.residual == Fraction(1, 2) for v in mean_value)


class TestHTransform:
    def test_identity_transform(self, base):
        t = h_transform(base, HarmonicFn(lambda _s: 1, name="1"))
        for n in range(4):
            for x in base.enumerate_level(n):
                assert t.successors(x) == base.successors(x)

    def test_alpha_step_probabilities(self, transformed):
        # p_h(x, x + e_1) = alpha_1 at every state
        for n in range(5):
            for x in transformed.enumerate_level(n):
                up = comp_state((x.payload[0] + 1, x.payload[1]))
                assert dict(transformed.successors(x))[up] == Fraction(7, 10)

    def test_support_shrinkage_single_path(self, base):
        t = h_transform(base, boundary_harmonic((Fraction(1), Fraction(0))))
        for n in range(5):
            assert [s.payload for s in t.enumerate_level(n)] == [(n, 0)]
        law = t.cylinder_law(4)
        assert list(law.atoms.values()) == [Fraction(1)]

    def test_not_harmonic_rejected(self, base):
        bad = HarmonicFn(lambda s: Fraction(1 + s.payload[0]), name="bad")
        t = h_transform(base, bad)  # root value is 1, failure surfaces lazily
        with pytest.raises(NotHarmonicError):
            t.forward_law(2)

    @pytest.mark.parametrize("alpha", [(0.1, 0.2, 0.7), (0.25, 0.75)])
    def test_float_h_raises_the_float_step_error(self, alpha):
        # (0.1, 0.2, 0.7) reweights a row to a float sum of 0.9999999999999999;
        # the float step is refused before the sum is read
        t = h_transform(uniform_walk(len(alpha)), boundary_harmonic(alpha))
        with pytest.raises(ValueError, match=r"^float step probability .* laws are exact$"):
            t.forward_law(2)

    def test_wrong_root_value_rejected(self, base):
        with pytest.raises(NotHarmonicError):
            h_transform(base, HarmonicFn(lambda s: Fraction(2), name="two"))


class TestDensityRatio:
    def test_constant_h(self, base):
        t = h_transform(base, HarmonicFn(lambda _s: 1, name="1"))
        assert density_ratio_check(base, t, 4).ok

    def test_alpha_path_value(self, base, transformed, h_alpha):
        # path (1,0),(2,0): P_h = 0.49, P = 1/4, ratio 1.96 = h((2,0))
        law = transformed.cylinder_law(2)
        path = (comp_state((1, 0)), comp_state((2, 0)))
        assert law.atoms[path] == Fraction(49, 100)
        assert law.atoms[path] / Fraction(1, 4) == h_alpha(comp_state((2, 0)))
        assert h_alpha(comp_state((2, 0))) == Fraction(49, 25)

    def test_full_horizon(self, base, transformed):
        report = density_ratio_check(base, transformed, 6)
        assert report.ok, str(report)

    def test_one_step_case(self, base, transformed, h_alpha):
        base_law = base.cylinder_law(1)
        t_law = transformed.cylinder_law(1)
        for path, p in base_law.atoms.items():
            assert t_law.atoms.get(path, 0) == h_alpha(path[-1]) * p


class TestKernelTransform:
    def test_root_case(self, base, transformed):
        for n in range(4):
            for y in transformed.enumerate_level(n):
                assert transformed.martin_kernel(transformed.root, y) == 1

    def test_specific_value(self, base, transformed, h_alpha):
        # K = 4/3, h((1,0)) = 7/5, so K_h = 20/21
        x, y = comp_state((1, 0)), comp_state((2, 1))
        assert transformed.martin_kernel(x, y) == Fraction(20, 21)
        assert transformed.martin_kernel(x, y) * h_alpha(x) == base.martin_kernel(x, y)

    def test_identity_on_grid(self, base, transformed):
        report = kernel_transform_check(base, transformed, 5)
        assert report.ok, str(report)

    def test_constant_h_is_noop(self, base):
        t = h_transform(base, HarmonicFn(lambda _s: 1, name="1"))
        report = kernel_transform_check(base, t, 4)
        assert report.ok


class TestCotransitionEquality:
    def test_chain_with_itself(self, base):
        assert cotransition_equality_check(base, base, 5).ok

    def test_transform_preserves_cotransitions_d3(self):
        w = uniform_walk(3)
        alpha = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))
        t = h_transform(w, boundary_harmonic(alpha))
        report = cotransition_equality_check(w, t, 6)
        assert report.ok, str(report)

    def test_direct_alpha_walk_matches_base(self, base):
        walk = alpha_walk(ALPHA)
        report = cotransition_equality_check(base, walk, 6)
        assert report.ok, str(report)

    def test_detects_mismatch(self, base):
        control = MarkovSource(
            initial=(Fraction(1, 2), Fraction(1, 2)),
            rows=((Fraction(2, 3), Fraction(1, 3)), (Fraction(1, 6), Fraction(5, 6))),
        )
        observed = counting_chain(control)
        report = cotransition_equality_check(base, observed, 4)
        assert not report.ok


class TestRecoverH:
    def test_identity_recovery(self, base):
        h = recover_h(base, base, 5)
        for n in range(5):
            for x in base.enumerate_level(n):
                assert h(x) == 1

    def test_alpha_walk_recovery(self, base, h_alpha):
        walk = alpha_walk(ALPHA)
        h = recover_h(base, walk, 6)
        assert h(comp_state((1, 0))) == Fraction(7, 5)
        for n in range(6):
            for x in walk.enumerate_level(n):
                assert h(x) == h_alpha(x)

    def test_evaluation_stops_at_max_level(self, base, h_alpha):
        # both chains reach level 5, but the identification was checked up to 4 only
        walk = alpha_walk(ALPHA)
        h = recover_h(base, walk, 4)
        for x in walk.enumerate_level(4):
            assert h(x) == h_alpha(x)
        assert walk.forward_law(5).total() == base.forward_law(5).total() == 1
        with pytest.raises(BudgetExceededError, match="level 5, checked up to 4"):
            h(comp_state((3, 2)))

    def test_budget_error_is_never_cached(self, base):
        """Above max_level the recovered h raises on every call, not only the first."""
        h = recover_h(base, alpha_walk(ALPHA), 3)
        for _ in range(3):
            with pytest.raises(BudgetExceededError, match="level 4, checked up to 3"):
                h(comp_state((2, 2)))

    def test_polya_counting_recovery_values(self, base):
        observed = counting_chain(PolyaUrnSource((1, 1)))
        h = recover_h(base, observed, 6)
        assert h(comp_state((1, 0))) == 1
        assert h(comp_state((2, 0))) == Fraction(4, 3)

    def test_roundtrip_on_h_values(self, base, h_alpha):
        transformed = h_transform(base, h_alpha)
        recovered = recover_h(base, transformed, 6)
        for n in range(6):
            for x in transformed.enumerate_level(n):
                assert recovered(x) == h_alpha(x)

    def test_mismatch_raises(self, base):
        control = MarkovSource(
            initial=(Fraction(1, 2), Fraction(1, 2)),
            rows=((Fraction(2, 3), Fraction(1, 3)), (Fraction(1, 6), Fraction(5, 6))),
        )
        observed = counting_chain(control)
        with pytest.raises(CotransitionMismatchError):
            recover_h(base, observed, 4)


class TestRepresentation:
    def test_constant_h(self, base):
        one = HarmonicFn(lambda _s: 1, name="1")
        report = representation_check(base, one, comp_state((1, 1)), 6, h_transform(base, one))
        assert report.ok

    def test_alpha_exact_value(self, base, h_alpha, transformed):
        report = representation_check(
            base, h_alpha, comp_state((1, 0)), 6, transformed=transformed
        )
        assert report.ok, str(report)
        # the identity value itself
        total = sum(
            base.martin_kernel(comp_state((1, 0)), y) * p
            for y, p in transformed.forward_law(6).atoms.items()
        )
        assert total == Fraction(7, 5)

    def test_every_support_state(self, base, h_alpha, transformed):
        for m in range(3):
            for x in transformed.enumerate_level(m):
                assert representation_check(
                    base, h_alpha, x, 6, transformed=transformed
                ).ok

    def test_monte_carlo_mode(self, h_alpha):
        walk = alpha_walk(ALPHA)
        result = representation_check_mc(
            h_alpha,
            comp_state((1, 0)),
            n=200,
            replicates=4000,
            seed=5,
            transformed=walk,
            kernel=closed_form_kernel,
        )
        assert result.within(3.0), str(result)

    def test_monte_carlo_mode_averages_the_sampled_rows(self, h_alpha):
        walk = alpha_walk(ALPHA)
        x = comp_state((1, 1))
        result = representation_check_mc(
            h_alpha, x, n=50, replicates=300, seed=8, transformed=walk,
            kernel=closed_form_kernel,
        )
        rows = walk.sampler.sample_final_counts(50, 8, 0, 300).tolist()
        values = [float(closed_form_kernel(x, State(50, tuple(row)))) for row in rows]
        assert result.estimate == np.mean(values)

    def test_outside_support_raises(self, base):
        h = boundary_harmonic((Fraction(1), Fraction(0)))
        from martinwalk import UnreachableStateError

        with pytest.raises(UnreachableStateError):
            representation_check(base, h, comp_state((0, 1)), 4, h_transform(base, h))
