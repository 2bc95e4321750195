"""Named verification suites over configurable budgets.

Each function runs one family of identities at exact (rational) precision
and returns a ``CheckReport``.  The command-line ``verify`` command and the
acceptance tests are both thin drivers over these.

``full_verification`` runs its suites in independent families, each
building its own chains and dropping them when it is done: a walk kept for
the whole run would hold every family's memos at once, and the traced peak
would grow by about 40%.  A family builds each path law once and hands it to
every suite that reads it.  Each suite takes the walk or family it checks and
no degree beside it: d is the number of parts of the walk's root, so a record
name always names the chain that was checked.

With one worker every family runs in the calling process.  With more,
``fork_map`` deals the families out to forked children by their cost, which
is counted, not timed: the units of work that a family walks at (d, budget),
each at its estimated serial time (``compositions.work_ns``).  The caller
only collects the reports, in the same order for every worker count.

Each record, by family, as its expected side against its actual side:

- chain family, over one uniform walk:
  ``row-stochasticity``: 1 against each int row's sum;
  ``weak-irreducibility``: P(Y_n = x) > 0 for each enumerated x;
  ``oracle-equivalence``: DP laws against the path law's sums, of one set of rows;
  ``cylinder-markov``: P(next | state) against P(next | history), of one path law;
  ``kernel-agreement``: the closed form against the DP kernel row;
  ``kernel-symmetry``: P(y | x)/P(y) against chained cotransitions, with bounds;
  ``backwards-martingale``: K(x, y) against its cotransition mean a level down;
  ``kernel-expectation``: 1 against sum_y K(x, y) P(Y_n = y);
- ``boundary-harmonicity``: d^m prod alpha^x against its mean over each row;
- ``unnormalized-kernel-rejected``: interior states against plain-product failures;
- ``representation``: h(x) against the DP kernel's mean under the h-transform;
- transform family, per alpha:
  ``density-ratio``: h(Y_n) times the base path law against the transform's;
  ``kernel-transform``: the base kernel row against the transform's times h(x);
  ``cotransition-equality``: the base's cotransitions against the transform's
  and the alpha walk's;
  ``alpha-walk-equivalence``: the alpha walk's path law against the transform's;
  ``recovery-roundtrip``: h(x) against the alpha walk's forward law over the base's;
- counting family, one uniform walk and a counting chain per standard source,
  whose laws the lemma suite builds and the recovery reuses:
  ``exchangeability``: one ordering of each multiset against the others, one table;
  ``counting-markov``: the Markov property of the count paths of the word law;
  ``counting-cotransitions``: the walk's cotransitions against the chain's;
  ``negative-control-detected``: a failure of each of the two on the control;
  ``h-recovery-identity``: h(x) against the h recovered from the counting chain.
  The mixture half is d^n M(x) on both sides, M the directing moment, since the
  chain's rows are ``next_symbol_law`` = M(c + e_j)/M(c): it checks the DP and
  the lumping, not the representation, which ``counting-markov`` checks on the
  word law.  The urn half is the Dirichlet moment against the urn rule's rows;
- ``definetti-identity``: a word's directing moment against ``word_probability``,
  for the mixture one formula, sum_i w_i prod mu_i^c, summed two ways;
- ``urn-second-moment``: 1/3 against the urn's P(X_1 = X_2 = 1);
- ``digit-roundtrip``: the bound 2^-depth against |x - sum_k digit_k 2^-k|;
- ``lift-projection``: the depth-k digit law against the depth-(k + 1) law with
  its last digit dropped, both pushed from one point law;
- ``lift-exchangeability``: ``exchangeability`` of a lifted word law.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

from .chain import (
    DistributionTable,
    GradedChain,
    State,
    kernel_mean,
    kernel_rows,
    markov_property_check,
)
from .compositions import (
    alpha_walk,
    boundary_harmonic,
    boundary_kernel,
    closed_form_kernel,
    closed_form_kernel_row,
    compositions,
    kernel_pair_count,
    kernel_row_count,
    product_moment,
    rounded_ray_point,
    uniform_walk,
    work_ns,
)
from .definetti import (
    MarkovSource,
    MixtureSource,
    PolyaUrnSource,
    Source,
    binary_digits,
    counting_chain,
    counting_h_recovery,
    cylinder_exchangeability_report,
    definetti_identity_check,
    dirichlet_moment,
    lift_source_law,
    projection_consistency_check,
    reconstruct_real,
    source_cylinder_law,
    verify_counting_cotransitions,
    verify_counting_markov,
)
from .harmonic import (
    HarmonicFn,
    cotransition_equality_check,
    density_ratio_check,
    h_transform,
    is_harmonic,
    kernel_transform_check,
    recover_h,
    representation_check,
)
from .parallel import fork_map
from .prob import Prob
from .reports import CheckReport


# -- parameter grids -----------------------------------------------------------


def rational_alphas(d: int, count: int = 10) -> list[tuple[Fraction, ...]]:
    """Deterministic strictly positive rational simplex points: normalized ramps."""
    out = []
    for s in range(1, count + 1):
        raw = tuple(Fraction(1 + (i + 1) * s) for i in range(d))
        total = sum(raw)
        out.append(tuple(r / total for r in raw))
    return out


def limit_alpha_grid(d: int) -> list[tuple[Fraction, ...]]:
    """Five simplex points per dimension with every coordinate at least 1/10."""
    if d == 2:
        raw = [(1, 1), (3, 7), (1, 9), (2, 3), (1, 3)]
    elif d == 3:
        raw = [(1, 1, 1), (5, 3, 2), (1, 4, 5), (1, 2, 2), (1, 1, 2)]
    else:
        raise ValueError("limit grid is defined for d in {2, 3}")
    return [tuple(Fraction(c, sum(r)) for c in r) for r in raw]


def standard_mixture(d: int) -> MixtureSource:
    if d == 2:
        atoms = ((Fraction(1, 5), Fraction(4, 5)), (Fraction(3, 5), Fraction(2, 5)))
    elif d == 3:
        atoms = (
            (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
            (Fraction(1, 5), Fraction(2, 5), Fraction(2, 5)),
        )
    else:
        raise ValueError("standard mixture is defined for d in {2, 3}")
    return MixtureSource(atoms=atoms, weights=(Fraction(1, 2), Fraction(1, 2)))


def standard_negative_control() -> MarkovSource:
    return MarkovSource(
        initial=(Fraction(1, 2), Fraction(1, 2)),
        rows=((Fraction(2, 3), Fraction(1, 3)), (Fraction(1, 6), Fraction(5, 6))),
    )


# -- chain-level identities ------------------------------------------------------


def kernel_agreement_report(walk: GradedChain, max_level: int) -> CheckReport:
    """Closed-form kernel equals the dynamic-programming kernel of the uniform
    ``walk``, all pairs: the closed form taken a row at a time."""
    report = CheckReport(f"kernel-agreement[d={len(walk.root.payload)}]<= {max_level}")
    for x, n, row in kernel_rows(walk, max_level):
        level = walk.enumerate_level(n)
        report.record_ratios(
            lambda y: f"K@({x}; {y})",
            zip(level, closed_form_kernel_row(x, n), map(row.__getitem__, level)),
        )
    return report


def kernel_symmetry_report(walk: GradedChain, max_level: int) -> CheckReport:
    """Both kernel expressions of the uniform ``walk`` agree:
    P(Y_n = y | Y_m = x) / P(Y_n = y), read from the forward tables, against
    chained cotransitions; K(x, y) <= 1/P(x); K(root, y) = 1.  Each check
    compares int cross-products, the bound 1/P(x) kept as the int pair of the
    forward law, and only a failing one builds ``Fraction``s.  The checks of
    one y form a row, counted at once when they all pass."""
    report = CheckReport(f"kernel-symmetry[d={len(walk.root.payload)}]<= {max_level}")
    for m in range(max_level + 1):
        level_m, law_m = walk.enumerate_level(m), walk.forward_law(m)
        bounds = {x: (law_m.den, law_m.nums[x]) for x in level_m}
        for n in range(m, max_level + 1):
            law_n = walk.forward_law(n)
            conds = [(x, walk.conditional_law(x, n), bounds[x]) for x in level_m]
            # the x that reach each y, with the parts of the cross-products
            # that do not depend on y.  An x that does not reach y passes both
            # of its checks exactly when it is outside P(Y_m = . | Y_n = y):
            # once every reaching x matches, and so lies inside, equal sizes
            # leave no other x there
            reaching: dict[State, list[tuple[State, int, int]]] = defaultdict(list)
            for x, cond, (den, q) in conds:
                for y, num in cond.nums.items():
                    reaching[y].append((x, num * law_n.den * q, cond.den * den))
            root = walk.kernel_row(walk.root, n)
            for y in walk.enumerate_level(n):
                back, p_y = walk.backward_conditional(y, m), law_n.nums[y]

                def replay() -> None:
                    for x, cond, bound in conds:
                        forward = (cond.nums.get(y, 0) * law_n.den, cond.den * p_y)
                        backward = (back.nums.get(x, 0) * bound[0], back.den * bound[1])
                        report.record_ratio(lambda: f"symmetry@({x}; {y})", forward, backward)
                        report.require_bound(lambda: f"bound@({x}; {y})", forward, bound)
                    report.record_ratio(lambda: f"root-normalization@{y}", (1, 1), root[y])

                holds = root[y][0] == root[y][1] and len(back.nums) == len(reaching[y])
                for x, f, b in reaching[y]:
                    # forward and backward cross-products, and the bound's
                    g = b * p_y
                    if f * back.den != back.nums.get(x, 0) * g or f > g:
                        holds = False
                        break
                report.record_row(2 * len(conds) + 1, holds, replay)
    return report


def martingale_identity_report(walk: GradedChain, max_level: int) -> CheckReport:
    """One-step backwards-martingale identity of the uniform ``walk``:
    sum_x' K(x, x') P(Y_n = x' | Y_{n+1} = y) = K(x, y)."""
    report = CheckReport(f"backwards-martingale[d={len(walk.root.payload)}]<= {max_level}")
    for x, n, above in kernel_rows(walk, max_level):
        if n > x.level:
            for y in walk.enumerate_level(n):
                mean = kernel_mean(below, walk.cotransition(y))
                report.record_ratio(lambda: f"martingale@({x}; {y})", above[y], mean)
        below = above
    return report


def expectation_identity_report(walk: GradedChain, max_level: int) -> CheckReport:
    """sum_y K(x, y) P(Y_n = y) = 1 over the uniform ``walk``, for every x and
    horizon."""
    report = CheckReport(f"kernel-expectation[d={len(walk.root.payload)}]<= {max_level}")
    for x, n, row in kernel_rows(walk, max_level):
        mean = kernel_mean(row, walk.forward_law(n))
        report.record_ratio(lambda: f"expectation@({x}; n={n})", (1, 1), mean)
    return report


def oracle_equivalence_report(chain: GradedChain, law: DistributionTable) -> CheckReport:
    """Forward, conditional and backward laws against brute-force path
    enumeration, ``law`` being ``chain.cylinder_law(horizon)``: path masses
    are summed as numerators over the path law's one denominator, and each
    check compares cross-products."""
    horizon = law.level
    report = CheckReport(f"oracle-equivalence[{chain.name}]@{horizon}")
    # masses are summed by state index, the root's being 0, over path prefixes
    # from the longest down: a prefix adds its mass to its last state and to
    # each pair of an earlier state with it, and then to its own prefix
    index: dict[State, int] = {chain.root: 0}
    prefixes = {
        (0, *[index.setdefault(x, len(index)) for x in path]): p for path, p in law.nums.items()
    }
    joint_at: dict[tuple[int, int], int] = defaultdict(int)
    marginal_at: dict[int, int] = defaultdict(int)
    for _ in range(horizon):
        shorter: dict[tuple[int, ...], int] = defaultdict(int)
        for prefix, mass in prefixes.items():
            *head, end = prefix
            marginal_at[end] += mass
            for i in head:
                joint_at[i, end] += mass
            shorter[prefix[:-1]] += mass
        prefixes = shorter
    states = list(index)
    joint = {(states[i], states[j]): mass for (i, j), mass in joint_at.items()}
    marginal = {states[i]: mass for i, mass in marginal_at.items()}
    marginal[chain.root] = law.den
    for k in range(horizon + 1):
        table = chain.forward_law(k)
        for x in chain.enumerate_level(k):
            expected = (table.nums.get(x, 0), table.den)
            report.record_ratio(lambda: f"forward@{x}", expected, (marginal.get(x, 0), law.den))
    for (x, y), mass in sorted(joint.items()):
        cond = chain.conditional_law(x, y.level)
        expected = (cond.nums.get(y, 0), cond.den)
        report.record_ratio(lambda: f"conditional@({x} -> {y})", expected, (mass, marginal[x]))
        if y.level == x.level + 1:
            back = chain.cotransition(y)
            expected = (back.nums.get(x, 0), back.den)
            report.record_ratio(lambda: f"cotransition@({y} -> {x})", expected, (mass, marginal[y]))
    return report


def cylinder_markov_report(chain: GradedChain, law: DistributionTable) -> CheckReport:
    """The Markov property of ``law``, which is ``chain.cylinder_law(horizon)``."""
    report = markov_property_check(law)
    report.name = f"cylinder-markov[{chain.name}]@{law.level}"
    return report


# -- boundary kernel identities ---------------------------------------------------


def boundary_harmonicity_report(
    d: int, max_level: int, alphas: Sequence[tuple[Prob, ...]]
) -> CheckReport:
    """Every correctly normalized boundary kernel is harmonic with h(root) = 1."""
    chain = uniform_walk(d)
    report = CheckReport(f"boundary-harmonicity[d={d}]<= {max_level}")
    for alpha in alphas:
        report.absorb(is_harmonic(chain, boundary_harmonic(alpha), max_level))
    return report


def unnormalized_rejection_report(
    d: int, max_level: int, alphas: Sequence[tuple[Prob, ...]]
) -> CheckReport:
    """Regression guard: the plain product form (without the d^m factor) must
    fail harmonicity at every state for every non-uniform alpha."""
    chain = uniform_walk(d)
    report = CheckReport(f"unnormalized-kernel-rejected[d={d}]")
    for alpha in alphas:
        plain = HarmonicFn(lambda state: product_moment(alpha, state.payload), name="plain-product")
        sub = is_harmonic(chain, plain, max_level)
        # the mean-value identity must fail at every interior state
        interior = sum(len(chain.enumerate_level(n)) for n in range(max_level))
        failures = sum(1 for v in sub.violations if v.site.startswith("mean-value"))
        report.record(lambda: f"plain-product-should-fail@alpha={alpha}", interior, failures)
    return report


def kernel_limit_report(
    d: int,
    alphas: Sequence[tuple[Prob, ...]],
    horizons: Sequence[int] = (10**3, 10**4, 10**5),
    tol: float = 1e-3,
) -> CheckReport:
    """K(x, round(n alpha)) approaches K(x, alpha), with exact error at most
    ``Fraction(tol)`` at the largest horizon and non-increasing along the way,
    for every probe x up to level 3."""
    report = CheckReport(f"kernel-limit[d={d}]")
    probes = [c for n in range(4) for c in compositions(d, n)]
    bound = Fraction(tol)
    for alpha in alphas:
        for x in probes:
            target = boundary_kernel(x, alpha)
            errors = [
                abs(closed_form_kernel(x, rounded_ray_point(n, alpha)) - target) for n in horizons
            ]
            probe = f"{x}; alpha={alpha}"
            report.require(
                lambda: f"limit@({probe}; n={horizons[-1]})", errors[-1] <= bound, bound, errors[-1]
            )
            for a, b, n in zip(errors, errors[1:], horizons[1:]):
                report.require(lambda: f"monotone@({probe}; n={n})", b <= a, a, b)
    return report


# -- transform identities -----------------------------------------------------------


def transform_identity_reports(
    d: int, max_level: int, alphas: Sequence[tuple[Prob, ...]]
) -> list[CheckReport]:
    """Density ratio, kernel transform, walk equivalence, cotransition
    invariance, and recovery roundtrip for each conditioned walk.  Each path
    law is built once: the base walk's for every alpha, and each transformed
    and alpha walk's for the two suites that read it."""
    base = uniform_walk(d)
    base_law = base.cylinder_law(max_level)
    equivalence = CheckReport(f"alpha-walk-equivalence[d={d}]@{max_level}")
    roundtrip = CheckReport(f"recovery-roundtrip[d={d}]<= {max_level}")
    out: list[CheckReport] = []
    for alpha in alphas:
        h = boundary_harmonic(alpha)
        transformed = h_transform(base, h)
        transformed_law = transformed.cylinder_law(max_level)
        out.append(density_ratio_check(base_law, transformed, transformed_law))
        out.append(kernel_transform_check(base, transformed, max_level))
        out.append(cotransition_equality_check(base, transformed, max_level))
        walk = alpha_walk(alpha)
        out.append(cotransition_equality_check(base, walk, max_level))
        walk_law = walk.cylinder_law(max_level)
        equivalence.record_ratios(lambda path: f"path@{path}", walk_law.pairs(transformed_law))
        recovered = recover_h(base, walk, max_level)
        for n in range(max_level + 1):
            for x in walk.enumerate_level(n):
                roundtrip.record(lambda: f"h@({x}; alpha={alpha})", h(x), recovered(x))
    out.append(equivalence)
    out.append(roundtrip)
    return out


def representation_report(d: int, horizon: int, alphas: Sequence[tuple[Prob, ...]]) -> CheckReport:
    """Exact finite-horizon representation identity for the conditioned walks,
    at every probe state up to level 2."""
    base = uniform_walk(d)
    report = CheckReport(f"representation[d={d}]@{horizon}")
    for alpha in alphas:
        h = boundary_harmonic(alpha)
        transformed = h_transform(base, h)
        for m in range(3):
            for x in transformed.enumerate_level(m):
                report.absorb(representation_check(base, h, x, horizon, transformed))
    return report


# -- exchangeability suite --------------------------------------------------------------


#: the uniform walk and each standard source with its counting chain
CountingFamily = tuple[GradedChain, tuple[tuple[Source, GradedChain], ...]]


def counting_family(d: int) -> CountingFamily:
    """A new uniform walk, and the standard mixture and urn, each with a new counting chain."""
    sources = (standard_mixture(d), PolyaUrnSource((1,) * d))
    return uniform_walk(d), tuple((source, counting_chain(source)) for source in sources)


def lemma_reports(family: CountingFamily, horizon: int) -> list[CheckReport]:
    """Exchangeability, Markov property and universal cotransitions of the standard
    sources, one word law each, plus the negative control (which must fail the last two).
    The cotransitions are those of ``family``'s chains."""
    walk, counted = family
    words = [source_cylinder_law(source, horizon) for source, _ in counted]
    out = [cylinder_exchangeability_report(law) for law in words]
    for (source, chain), law in zip(counted, words):
        out += [
            verify_counting_markov(source, law),
            verify_counting_cotransitions(source, horizon, walk, chain),
        ]
    # a count path of two steps is Markov for any source: the control needs three
    control, n = standard_negative_control(), min(max(horizon, 3), 6)
    negative = CheckReport("negative-control-detected")
    markov_rep = verify_counting_markov(control, source_cylinder_law(control, n))
    cotrans_rep = verify_counting_cotransitions(control, n)
    # expected: at least one violation each; record the violation counts
    negative.require("markov-check-should-fail", not markov_rep.ok, 1, len(markov_rep.violations))
    negative.require(
        "cotransition-check-should-fail", not cotrans_rep.ok, 1, len(cotrans_rep.violations)
    )
    out.append(negative)
    return out


def recovery_identity_report(family: CountingFamily, horizon: int) -> CheckReport:
    """Constructive representation of the recovered h, over ``family``'s chains.

    For a finite mixture, h(x) = sum_i w_i K(x, mu_i) exactly; for the urn,
    h(x) = d^{|x|} times the Dirichlet moment of the directing law.
    """
    walk, ((mixture, mixture_chain), (urn, urn_chain)) = family
    d = len(walk.root.payload)
    report = CheckReport(f"h-recovery-identity[d={d}]@{horizon}")
    h_mix = counting_h_recovery(mixture, horizon, walk, mixture_chain)
    expected_mix = HarmonicFn.mixture(
        [(w, boundary_harmonic(atom)) for w, atom in mixture.directing_atoms()],
        name="mixture-of-kernels",
    )
    h_urn = counting_h_recovery(urn, horizon, walk, urn_chain)
    for n in range(horizon + 1):
        for x in walk.enumerate_level(n):
            report.record(lambda: f"mixture-h@{x}", expected_mix(x), h_mix(x))
            report.record(
                lambda: f"urn-h@{x}",
                Fraction(d) ** n * dirichlet_moment(urn.initial, x.payload),
                h_urn(x),
            )
    return report


# -- binary expansion suite ---------------------------------------------------------------


def digit_roundtrip_report(points: int = 10_000, depth: int = 30) -> CheckReport:
    """|x - sum_k digit_k 2^{-k}| < 2^{-depth} on an evenly spaced grid, each
    gap compared as an int cross-product."""
    report = CheckReport(f"digit-roundtrip[{points} points, depth {depth}]")
    for i in range(points):
        x = Fraction(i, points)
        real = reconstruct_real(binary_digits(x, depth))
        gap = abs(i * real.denominator - real.numerator * points), points * real.denominator
        report.require_bound(lambda: f"roundtrip@{x}", gap, (1, 2**depth), strict=True)
    return report


def projection_report(depth: int = 3) -> CheckReport:
    """Projection consistency for dyadic point-mass directing measures."""
    report = CheckReport(f"lift-projection[depth {depth}]")
    laws = [
        DistributionTable(1, {Fraction(5, 8): 1}),
        DistributionTable(1, {Fraction(5, 8): 1, Fraction(1, 4): 1}, 2),
        DistributionTable(1, {Fraction(0): 1, Fraction(3, 4): 2}, 3),
    ]
    for law in laws:
        for k in range(1, depth):
            deeper = law.push(lambda point: binary_digits(point, k + 1))
            shallower = law.push(lambda point: binary_digits(point, k))
            report.absorb(projection_consistency_check(deeper, shallower))
    return report


def lift_exchangeability_report() -> CheckReport:
    """A lifted exchangeable law over dyadic atoms stays exchangeable, exactly:
    three draws, each truncated to two binary digits."""
    source = MixtureSource(
        atoms=((Fraction(1, 4), Fraction(3, 4)), (Fraction(2, 3), Fraction(1, 3))),
        weights=(Fraction(1, 2), Fraction(1, 2)),
    )
    points = (Fraction(5, 8), Fraction(1, 4))
    report = cylinder_exchangeability_report(lift_source_law(source, points, depth=2, n=3))
    report.name = "lift-exchangeability[depth 2]@3"
    return report


def identity_reports(d: int, horizon: int) -> list[CheckReport]:
    """Exact de Finetti identity for the standard sources."""
    out = [
        definetti_identity_check(standard_mixture(d), min(horizon, 3)),
        definetti_identity_check(PolyaUrnSource((1,) * d), 2),
    ]
    urn_check = CheckReport("urn-second-moment")
    urn_check.record(
        "P(X1=1, X2=1) = 1/3",
        Fraction(1, 3),
        PolyaUrnSource((1, 1)).word_probability((1, 1)),
    )
    out.append(urn_check)
    return out


# -- top-level driver -------------------------------------------------------------------------


def _chain_reports(d: int, budget: int) -> list[CheckReport]:
    """The structural, oracle and kernel suites, all over one uniform walk,
    which is dropped when they are done; the oracle and Markov suites read
    one path law, dropped before the kernel suites run."""
    walk, small_level = uniform_walk(d), min(budget, 6)
    reports = [walk.check_row_stochastic(budget), walk.check_weak_irreducibility(budget)]
    law = walk.cylinder_law(small_level)
    reports += [oracle_equivalence_report(walk, law), cylinder_markov_report(walk, law)]
    del law
    return reports + [
        kernel_agreement_report(walk, budget),
        kernel_symmetry_report(walk, budget),
        martingale_identity_report(walk, small_level),
        expectation_identity_report(walk, small_level),
    ]


def _counting_reports(d: int, horizon: int) -> list[CheckReport]:
    """The lemma and recovery suites over one ``counting_family``, which is
    dropped when they are done."""
    family = counting_family(d)
    return [*lemma_reports(family, horizon), recovery_identity_report(family, horizon)]


def _pairs(d: int, n: int) -> int:
    """The kernel pairs up to level n, each weighted by its digits."""
    return kernel_pair_count(d, n) * (20 + n) // 20


class Family(NamedTuple):
    """A ``verify`` family at (d, budget): its name, a runner that makes its
    reports, and its estimated serial nanoseconds (``work_ns``)."""

    name: str
    run: Callable[[], list[CheckReport]]
    cost: int


def verify_families(d: int, budget: int) -> list[Family]:
    """The families of ``full_verification(d, budget)``, in report order.  A
    cost counts the units that a family's suites walk up to a level n: the
    C(n + d, d) states, the kernel's rows and columns, its pairs weighted by
    their digits, and the d^n paths or words per pass (n passes for one that
    works on each prefix of each path).  At d = 1 the plain product is the
    normalized kernel (d^m = 1), so it cannot fail, and the standard sources
    exist only at d in {2, 3}."""
    b, h = budget, min(budget, 6)
    paths, small_rows, small_states = d**h, kernel_row_count(d, h), math.comb(h + d, d)
    # the (x, level) rows and (level, y) columns that the chain family's kernel suites visit
    columns = sum((n + 1) * math.comb(n + d - 1, d - 1) for n in range(b + 1))
    visits = kernel_row_count(d, b) + columns + 2 * small_rows
    out = [
        Family(
            "chain",
            lambda: _chain_reports(d, b),
            work_ns(2 * _pairs(d, b) + 2 * _pairs(d, h), (1 + 2 * h) * paths, visits),
        ),
        Family(
            "boundary-harmonicity",
            lambda: [boundary_harmonicity_report(d, b, rational_alphas(d, 4))],
            work_ns(states=4 * math.comb(b + d, d)),
        ),
    ]
    if d >= 2:
        out.append(
            Family(
                "unnormalized-kernel-rejected",
                lambda: [unnormalized_rejection_report(d, min(b, 4), rational_alphas(d, 2))],
                work_ns(states=2 * math.comb(min(b, 4) + d, d)),
            )
        )
    out += [
        # per alpha: a kernel row at level h for each probe, and the transformed forward law
        Family(
            "representation",
            lambda: [representation_report(d, h, rational_alphas(d, 2))],
            work_ns(2 * math.comb(2 + d, d) * math.comb(h + d - 1, d - 1), states=2 * small_states),
        ),
        # per alpha: two kernel rows a pair, four path passes, two cotransition checks
        Family(
            "transform",
            lambda: transform_identity_reports(d, h, rational_alphas(d, 2)),
            work_ns(4 * _pairs(d, h), 9 * paths, 2 * small_rows + 2 * d * small_states),
        ),
    ]
    if d in (2, 3):
        # the counting family reads two sources' word laws, each in 3 h + 1 passes
        out += [
            Family("counting", lambda: _counting_reports(d, h), work_ns(paths=(6 * h + 2) * paths)),
            Family("definetti-identity", lambda: identity_reports(d, h), work_ns(paths=d**3)),
        ]
    return out + [
        # each of 1000 points is a word of 30 binary digits, built and summed: two passes
        Family("digit-roundtrip", lambda: [digit_roundtrip_report(1000, 30)], work_ns(paths=2000)),
        Family("lift-projection", lambda: [projection_report()], 0),
        Family("lift-exchangeability", lambda: [lift_exchangeability_report()], 0),
    ]


def verify_cost(d: int, budget: int) -> int:
    """Estimated serial nanoseconds of ``full_verification(d, budget)``."""
    return sum(family.cost for family in verify_families(d, budget))


def full_verification(d: int, budget: int, workers: int = 1) -> list[CheckReport]:
    """The exact invariant suites of all modules at the given budgets, in the
    ``verify_families``, on up to ``workers`` forked processes dealt by cost;
    the reports come in the same order for every worker count.  The counting
    and identity families run only at d in {2, 3}."""
    families = verify_families(d, budget)
    reports = fork_map(lambda family: family.run(), families, workers, [f.cost for f in families])
    return [report for family in reports for report in family]
