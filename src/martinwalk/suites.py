"""Named verification suites over configurable budgets.

Each function runs one family of identities at exact (rational) precision
and returns a ``CheckReport``.  The command-line ``verify`` command and the
acceptance tests are both thin drivers over these.

``full_verification`` runs its suites in independent families, each
building its own chains and dropping them when it is done: a walk kept for
the whole run would hold every family's memos at once, and the traced peak
would grow by about 40%.  Two families share chains between suites.  The
chain family (structural, oracle, Markov, kernel-agreement, symmetry,
martingale and expectation suites) runs over one uniform walk.  The counting
family (lemma and recovery suites) runs over one ``counting_family``: a
uniform walk and the counting chain of each standard source, so the recovery
reuses the laws the lemma suite's cotransition check built.  Each of these
suites takes the walk or family it checks and no degree beside it: d is the
number of parts of the walk's root, so a record name always names the chain
that was checked.  Every other suite is a family of its own: transform,
boundary harmonicity, digits, representation, and the small unnormalized,
identity, projection and lift suites.  A family builds each path law once
and hands it to every suite that reads it.

With one worker every family runs in the calling process.  With more,
``fork_map`` deals the families out to forked children by their cost at
d=3, budget 8, and the caller only collects the reports.  With two children
one runs the chain, boundary, unnormalized, representation, identity and
digits families and the lift suite, and the other the transform and counting
families and the projection suite: 26 ms each in-process at d=3, budget 8 on
a 2-core machine.
The reports come back in the same order for every worker count.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from typing import Callable, Sequence

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
    product_moment,
    rounded_ray_point,
    uniform_walk,
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
        level, closed = walk.enumerate_level(n), closed_form_kernel_row(x, n)
        dp = [row[y] for y in level]

        def replay() -> None:
            for y, expected, actual in zip(level, closed, dp):
                report.record_ratio(lambda: f"K@({x}; {y})", expected, actual)

        holds = all(a * d == c * b for (a, b), (c, d) in zip(closed, dp))
        report.record_row(min(len(level), len(closed)), holds, replay)
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

        def replay() -> None:
            for path in sorted(set(walk_law.nums) | set(transformed_law.nums)):
                equivalence.record_ratio(
                    lambda: f"path@{path}",
                    (walk_law.nums.get(path, 0), walk_law.den),
                    (transformed_law.nums.get(path, 0), transformed_law.den),
                )

        # path laws in lowest terms agree path by path exactly when they are equal tables
        equivalence.record_row(len(walk_law), walk_law == transformed_law, replay)
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
    gap compared as an int cross-product; the grid is one row."""
    report = CheckReport(f"digit-roundtrip[{points} points, depth {depth}]")
    gaps = []
    for i in range(points):
        x = Fraction(i, points)
        real = reconstruct_real(binary_digits(x, depth))
        gap = abs(i * real.denominator - real.numerator * points), points * real.denominator
        gaps.append((x, gap))

    def replay() -> None:
        for x, gap in gaps:
            report.require_bound(lambda: f"roundtrip@{x}", gap, (1, 2**depth), strict=True)

    report.record_row(points, all(a << depth < b for _, (a, b) in gaps), replay)
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


def _chain_reports(d: int, budget: int, small_level: int) -> list[CheckReport]:
    """The structural, oracle and kernel suites, all over one uniform walk,
    which is dropped when they are done; the oracle and Markov suites read
    one path law, dropped before the kernel suites run."""
    walk = uniform_walk(d)
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


def full_verification(d: int, budget: int, workers: int = 1) -> list[CheckReport]:
    """The exact invariant suites of all modules at the given budgets, in the
    families the module docstring names, on up to ``workers`` forked
    processes; the reports come in the same order for every worker count."""
    small_level = min(budget, 6)
    alphas = rational_alphas(d, 4)
    # (cost, family): each cost is the family's time in ms at d=3, budget 8, in one process
    families: list[tuple[float, Callable[[], list[CheckReport]]]] = [
        (18, lambda: _chain_reports(d, budget, small_level)),
        (2.6, lambda: [boundary_harmonicity_report(d, budget, alphas)]),
    ]
    if d >= 2:
        # at d = 1 the plain product is the normalized kernel (d^m = 1), so it cannot fail
        families.append(
            (0.5, lambda: [unnormalized_rejection_report(d, min(budget, 4), alphas[:2])])
        )
    families += [
        (1.7, lambda: [representation_report(d, small_level, alphas[:2])]),
        (11, lambda: transform_identity_reports(d, small_level, alphas[:2])),
    ]
    if d in (2, 3):
        families += [
            (15, lambda: _counting_reports(d, small_level)),
            (0.3, lambda: identity_reports(d, small_level)),
        ]
    families += [
        (3.0, lambda: [digit_roundtrip_report(points=1000, depth=30)]),
        (0.1, lambda: [projection_report()]),
        (0.1, lambda: [lift_exchangeability_report()]),
    ]
    costs, runs = zip(*families)
    reports = fork_map(lambda run: run(), runs, workers, costs)
    return [report for family in reports for report in family]
