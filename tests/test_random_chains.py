"""Random graded chains as the exact engine's differential oracle.

Every other exact test runs on the composition walk and its transforms.  Here
hypothesis draws small graded chains: at most five levels above the root and
four states per level, with some edges absent and rows over different
denominators, pruned to the states the root reaches.  Forward laws,
cotransitions, backward conditionals, kernel rows and kernel means are
checked against pushes of ``cylinder_law``, the brute-force path law, which
shares nothing with those DP routes but the int rows, and every path law must
pass ``markov_property_check``.  The Doob bridge h = K(., y) to a top-level y
is checked as an exact h-transform against the path law given Y_top = y.  A
second strategy keeps enumerated states that no step reaches, where the
routes that condition on a state must refuse them.  ``derandomize`` keeps
the draws fixed.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_checks import _CONTROL_HISTORIES

from martinwalk import (
    DistributionTable,
    GradedChain,
    HarmonicFn,
    State,
    UnreachableStateError,
    counting_chain_law,
    density_ratio_check,
    h_transform,
    is_harmonic,
    kernel_mean,
    kernel_transform_check,
    markov_property_check,
    recover_h,
)
from martinwalk.suites import standard_negative_control

ROOT = State(0, 0)

#: an absent edge (weight 0) one draw in four
WEIGHTS = st.sampled_from((0, 0, 1, 2, 3, 4, 5, 7))

EXAMPLES = settings(max_examples=40, derandomize=True, deadline=None)


@st.composite
def graded_chains(draw, keep_unreachable: bool = False) -> tuple[GradedChain, int]:
    """A chain on levels 0..top whose level k is State(k, j) for the j reached,
    or, with ``keep_unreachable``, for every j up to the row width, which no
    row reaches, so that every level above the root has an unreachable state."""
    top = draw(st.integers(1, 5))
    rows: dict[State, tuple[tuple[State, Fraction], ...]] = {}
    levels = [(ROOT,)]
    for k in range(top):
        width = draw(st.integers(1, 4))
        reached: set[int] = set()
        for x in levels[k]:
            weights = draw(st.lists(WEIGHTS, min_size=width, max_size=width).filter(any))
            total = sum(weights)
            rows[x] = tuple(
                (State(k + 1, j), Fraction(w, total)) for j, w in enumerate(weights) if w
            )
            reached.update(j for j, w in enumerate(weights) if w)
        if keep_unreachable:
            reached = set(range(width + 1))
        levels.append(tuple(State(k + 1, j) for j in sorted(reached)))
    chain = GradedChain(ROOT, levels.__getitem__, rows.__getitem__, name="random")
    return chain, top


def _at(path: tuple[State, ...], k: int) -> State:
    """Y_k of a path (Y_1, ..., Y_top) of the path law."""
    return path[k - 1] if k else ROOT


def _in_lowest_terms(table: DistributionTable) -> bool:
    return math.gcd(table.den, *table.nums.values()) == 1


@given(graded_chains())
@EXAMPLES
def test_forward_laws_are_path_marginals(case):
    chain, top = case
    paths = chain.cylinder_law(top)
    for k in range(top + 1):
        assert chain.forward_law(k).atoms == paths.push(lambda path: _at(path, k)).atoms


@given(graded_chains())
@EXAMPLES
def test_cotransition_is_the_joint_over_the_marginal(case):
    """P(Y_{n-1} = x | Y_n = y) = P(x) p(x, y) / P(y), a law summing to 1."""
    chain, top = case
    paths = chain.cylinder_law(top)
    for n in range(1, top + 1):
        below = paths.push(lambda path: _at(path, n - 1)).atoms
        here = paths.push(lambda path: _at(path, n)).atoms
        for y in chain.enumerate_level(n):
            expected = {}
            for x in chain.enumerate_level(n - 1):
                step = dict(chain.successors(x)).get(y, 0)
                if step:
                    expected[x] = below[x] * step / here[y]
            back = chain.cotransition(y)
            assert back.level == n - 1 and _in_lowest_terms(back)
            assert back.atoms == expected
            assert back.total() == 1


@given(graded_chains())
@EXAMPLES
def test_backward_conditional_is_the_conditioned_path_law(case):
    """P(Y_m = . | Y_n = y) is the path law given Y_n = y, pushed to Y_m."""
    chain, top = case
    paths = chain.cylinder_law(top)
    for n in range(top + 1):
        here = paths.push(lambda path: _at(path, n)).atoms
        for m in range(n + 1):
            pairs = paths.push(lambda path: (_at(path, n), _at(path, m))).atoms
            for y in chain.enumerate_level(n):
                expected = {x: p / here[y] for (z, x), p in pairs.items() if z == y}
                back = chain.backward_conditional(y, m)
                assert back.level == m and _in_lowest_terms(back)
                assert back.atoms == expected


@given(graded_chains())
@EXAMPLES
def test_kernel_row_is_the_backward_route_over_the_marginal(case):
    """K(x, y) = P(Y_m = x | Y_n = y) / P(Y_m = x) on every pair of levels m <= n."""
    chain, top = case
    paths = chain.cylinder_law(top)
    for m in range(top + 1):
        marginal = paths.push(lambda path: _at(path, m)).atoms
        for x in chain.enumerate_level(m):
            for n in range(m, top + 1):
                row = chain.kernel_row(x, n)
                assert row.keys() == set(chain.enumerate_level(n))
                for y, k in row.items():
                    back = chain.backward_conditional(y, m)
                    assert Fraction(*k) == back.atoms.get(x, 0) / marginal[x]


@given(graded_chains())
@EXAMPLES
def test_kernel_means_are_the_expectation_and_martingale_identities(case):
    """The mean of K(x, Y_n) is 1, and its mean under the cotransition of y is
    K(x, y) one level up.  Row denominators differ from y to y on these
    chains, so ``kernel_mean`` takes the lcm of many; the oracle sums
    ``Fraction``s of K(x, y) = P(Y_m = x, Y_n = y) / (P(Y_m = x) P(Y_n = y))."""
    chain, top = case
    paths = chain.cylinder_law(top)
    marginals = [paths.push(lambda path: _at(path, k)).atoms for k in range(top + 1)]

    def joint(m: int, n: int) -> dict:
        return paths.push(lambda path: (_at(path, m), _at(path, n))).atoms

    for m in range(top + 1):
        for n in range(m, top + 1):
            kernel = {
                pair: p / (marginals[m][pair[0]] * marginals[n][pair[1]])
                for pair, p in joint(m, n).items()
            }
            steps = joint(n, n + 1) if n < top else {}
            for x in chain.enumerate_level(m):
                row = chain.kernel_row(x, n)
                expected = sum(kernel.get((x, y), 0) * p for y, p in marginals[n].items())
                assert Fraction(*kernel_mean(row, chain.forward_law(n))) == expected == 1
                if n == top:
                    continue
                for y in chain.enumerate_level(n + 1):
                    expected = sum(
                        kernel.get((x, z), 0) * p / marginals[n + 1][y]
                        for (z, w), p in steps.items()
                        if w == y
                    )
                    mean = Fraction(*kernel_mean(row, chain.cotransition(y)))
                    assert mean == expected == Fraction(*chain.kernel_row(x, n + 1)[y])


@given(graded_chains())
@EXAMPLES
def test_path_laws_pass_the_markov_check(case):
    """One passing check per history (Y_1, ..., Y_k) and next state, k < top."""
    chain, top = case
    paths = chain.cylinder_law(top)
    if top < 2:
        with pytest.raises(ValueError, match="horizon >= 2"):
            markov_property_check(paths)
        return
    report = markov_property_check(paths)
    assert report.ok
    assert report.checked == sum(len(paths.push(lambda path: path[: k + 1])) for k in range(1, top))


def _markov_failures_by_whole_law_pushes(law: DistributionTable) -> list:
    """The Markov check's failures, each conditional pushed from the whole path
    law, in the order the check reports them: by k, then by sorted history."""
    out = []
    for k in range(1, law.level):
        extended = law.push(lambda path: path[: k + 1]).atoms
        prefix = law.push(lambda path: path[:k]).atoms
        state = law.push(lambda path: path[k - 1]).atoms
        pair = law.push(lambda path: path[k - 1 : k + 1]).atoms
        for ext, p in sorted(extended.items()):
            given_state, given_history = pair[ext[k - 1 :]] / state[ext[k - 1]], p / prefix[ext[:k]]
            if given_state != given_history:
                out.append((f"history={ext[:k]} -> {ext[k]}", given_state, given_history))
    return out


def test_control_violations_keep_their_sites_and_order():
    """Prefix laws pushed one from the next leave the control's violations as
    whole-law pushes give them."""
    control = standard_negative_control()
    report = markov_property_check(counting_chain_law(control, 3))
    assert [v.site for v in report.violations] == [
        f"{history} -> {nxt}" for history in _CONTROL_HISTORIES for nxt in ("(1, 2)@3", "(2, 1)@3")
    ]
    for n in range(3, 7):
        law = counting_chain_law(control, n)
        found = [(v.site, v.expected, v.actual) for v in markov_property_check(law).violations]
        assert found == _markov_failures_by_whole_law_pushes(law)


@given(graded_chains())
@EXAMPLES
def test_doob_bridge_is_the_path_law_conditioned_on_its_end(case):
    """h = K(., y) for y on the top level is harmonic below it, and its
    h-transform ends at y surely, passes the density and kernel identities,
    is recovered from its cotransitions, and has the path law given Y_top = y."""
    chain, top = case
    paths = chain.cylinder_law(top)
    for y in chain.enumerate_level(top):
        h = HarmonicFn(lambda x: Fraction(*chain.kernel_row(x, top)[y]), name=f"K(.,{y})")
        assert is_harmonic(chain, h, top).ok
        bridge = h_transform(chain, h)
        assert bridge.forward_law(top).atoms == {y: 1}
        assert density_ratio_check(paths, bridge, bridge.cylinder_law(top)).ok
        assert kernel_transform_check(chain, bridge, top).ok
        recovered = recover_h(chain, bridge, top - 1)
        for n in range(top):
            for x in chain.enumerate_level(n):
                assert recovered(x) == h(x)
        ends = {path: p for path, p in paths.atoms.items() if path[-1] == y}
        given_end = {path: p / sum(ends.values()) for path, p in ends.items()}
        assert bridge.cylinder_law(top).atoms == given_end


@given(graded_chains(keep_unreachable=True))
@EXAMPLES
def test_unreachable_states_are_refused(case):
    """Conditioning on a state of zero mass raises, and weak irreducibility
    fails at exactly the enumerated states that no positive path visits."""
    chain, top = case
    paths = chain.cylinder_law(top)
    missing = []
    for n in range(top + 1):
        marginal = paths.push(lambda path: _at(path, n)).atoms
        assert chain.forward_law(n).atoms == marginal
        missing += [x for x in chain.enumerate_level(n) if x not in marginal]
    for x in missing:
        with pytest.raises(UnreachableStateError):
            chain.kernel_row(x, top)
        with pytest.raises(UnreachableStateError):
            chain.cotransition(x)
    with pytest.raises(UnreachableStateError, match="not weakly irreducible"):
        recover_h(chain, chain, top)
    report = chain.check_weak_irreducibility(top)
    assert not report.ok
    assert [v.site for v in report.violations] == [f"P(Y_{x.level}={x})>0" for x in missing]
