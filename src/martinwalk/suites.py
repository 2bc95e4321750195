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
reuses the laws the lemma suite's cotransition check built.  Every other
suite is a family of its own: transform, boundary harmonicity, digits,
representation, and the small unnormalized, identity, projection and lift
suites.

With one worker every family runs in the calling process.  With more,
``fork_map`` deals the families out to forked children by their cost at
d=3, budget 8, and the caller only collects the reports.  With two children
one runs the chain, boundary, representation and digits families and the
projection suite, and the other the counting and transform families and the
unnormalized, identity and lift suites: about 95 ms each at d=3, budget 8.
The reports come back in the same order for every worker count.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional, Sequence

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


def kernel_agreement_report(
    d: int, max_level: int, walk: Optional[GradedChain] = None
) -> CheckReport:
    """Closed-form kernel equals the dynamic-programming kernel, all pairs: the
    closed form taken a row at a time, over ``walk`` (a new uniform walk if None)."""
    chain = uniform_walk(d) if walk is None else walk
    report = CheckReport(f"kernel-agreement[d={d}]<= {max_level}")
    for x, n, row in kernel_rows(chain, max_level):
        for y, closed in zip(chain.enumerate_level(n), closed_form_kernel_row(x, n)):
            report.record_ratio(lambda: f"K@({x}; {y})", closed, row[y])
    return report


def kernel_symmetry_report(
    d: int, max_level: int, walk: Optional[GradedChain] = None
) -> CheckReport:
    """Both kernel expressions agree: P(Y_n = y | Y_m = x) / P(Y_n = y), read
    from the forward tables, against chained cotransitions; K(x, y) <= 1/P(x);
    K(root, y) = 1.  Each check compares int cross-products, the bound 1/P(x)
    kept as the int pair of the forward law, and only a failing one builds
    ``Fraction``s."""
    chain = uniform_walk(d) if walk is None else walk
    report = CheckReport(f"kernel-symmetry[d={d}]<= {max_level}")
    for m in range(max_level + 1):
        level_m, law_m = chain.enumerate_level(m), chain.forward_law(m)
        bounds = {x: (law_m.den, law_m.nums[x]) for x in level_m}
        for n in range(m, max_level + 1):
            law_n = chain.forward_law(n)
            conds = [(x, chain.conditional_law(x, n), bounds[x]) for x in level_m]
            root = chain.kernel_row(chain.root, n)
            for y in chain.enumerate_level(n):
                back, p_y = chain.backward_conditional(y, m), law_n.nums[y]
                for x, cond, bound in conds:
                    forward = (cond.nums.get(y, 0) * law_n.den, cond.den * p_y)
                    backward = (back.nums.get(x, 0) * bound[0], back.den * bound[1])
                    report.record_ratio(lambda: f"symmetry@({x}; {y})", forward, backward)
                    report.require_bound(lambda: f"bound@({x}; {y})", forward, bound)
                report.record_ratio(lambda: f"root-normalization@{y}", (1, 1), root[y])
    return report


def martingale_identity_report(
    d: int, max_level: int, walk: Optional[GradedChain] = None
) -> CheckReport:
    """One-step backwards-martingale identity:
    sum_x' K(x, x') P(Y_n = x' | Y_{n+1} = y) = K(x, y)."""
    chain = uniform_walk(d) if walk is None else walk
    report = CheckReport(f"backwards-martingale[d={d}]<= {max_level}")
    for x, n, above in kernel_rows(chain, max_level):
        if n > x.level:
            for y in chain.enumerate_level(n):
                mean = kernel_mean(below, chain.cotransition(y))
                report.record_ratio(lambda: f"martingale@({x}; {y})", above[y], mean)
        below = above
    return report


def expectation_identity_report(
    d: int, max_level: int, walk: Optional[GradedChain] = None
) -> CheckReport:
    """sum_y K(x, y) P(Y_n = y) = 1 for every x and horizon."""
    chain = uniform_walk(d) if walk is None else walk
    report = CheckReport(f"kernel-expectation[d={d}]<= {max_level}")
    for x, n, row in kernel_rows(chain, max_level):
        mean = kernel_mean(row, chain.forward_law(n))
        report.record_ratio(lambda: f"expectation@({x}; n={n})", (1, 1), mean)
    return report


def oracle_equivalence_report(chain: GradedChain, horizon: int) -> CheckReport:
    """Forward, conditional and backward laws against brute-force path
    enumeration: path masses are summed as numerators over the path law's
    one denominator, and each check compares cross-products."""
    law = chain.cylinder_law(horizon)
    report = CheckReport(f"oracle-equivalence[{chain.name}]@{horizon}")
    joint: dict[tuple[State, State], int] = {}
    marginal: dict[State, int] = {chain.root: law.den}
    for path, p in law.nums.items():
        states = (chain.root,) + path
        for i, x in enumerate(states):
            if i:
                marginal[x] = marginal.get(x, 0) + p
            for y in states[i + 1 :]:
                key = (x, y)
                joint[key] = joint.get(key, 0) + p
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


def cylinder_markov_report(chain: GradedChain, horizon: int) -> CheckReport:
    report = markov_property_check(chain.cylinder_law(horizon))
    report.name = f"cylinder-markov[{chain.name}]@{horizon}"
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
    invariance, and recovery roundtrip for each conditioned walk."""
    base = uniform_walk(d)
    equivalence = CheckReport(f"alpha-walk-equivalence[d={d}]@{max_level}")
    roundtrip = CheckReport(f"recovery-roundtrip[d={d}]<= {max_level}")
    out: list[CheckReport] = []
    for alpha in alphas:
        h = boundary_harmonic(alpha)
        transformed = h_transform(base, h)
        out.append(density_ratio_check(base, transformed, max_level))
        out.append(kernel_transform_check(base, transformed, max_level))
        out.append(cotransition_equality_check(base, transformed, max_level))
        walk = alpha_walk(alpha)
        out.append(cotransition_equality_check(base, walk, max_level))
        walk_law = walk.cylinder_law(max_level)
        transformed_law = transformed.cylinder_law(max_level)
        for path in sorted(set(walk_law.nums) | set(transformed_law.nums)):
            equivalence.record_ratio(
                lambda: f"path@{path}",
                (walk_law.nums.get(path, 0), walk_law.den),
                (transformed_law.nums.get(path, 0), transformed_law.den),
            )
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
                report.absorb(representation_check(base, h, x, horizon, transformed=transformed))
    return report


# -- exchangeability suite --------------------------------------------------------------


#: the uniform walk and each standard source with its counting chain
CountingFamily = tuple[GradedChain, tuple[tuple[Source, GradedChain], ...]]


def counting_family(d: int) -> CountingFamily:
    """A new uniform walk, and the standard mixture and urn, each with a new counting chain."""
    sources = (standard_mixture(d), PolyaUrnSource((1,) * d))
    return uniform_walk(d), tuple((source, counting_chain(source)) for source in sources)


def lemma_reports(
    d: int, horizon: int, family: Optional[CountingFamily] = None
) -> list[CheckReport]:
    """Exchangeability, Markov property and universal cotransitions of the standard
    sources, one word law each, plus the negative control (which must fail the last two).
    The cotransitions are those of ``family``'s chains (a new ``counting_family`` if None)."""
    walk, counted = counting_family(d) if family is None else family
    words = [source_cylinder_law(source, horizon) for source, _ in counted]
    out = [cylinder_exchangeability_report(law) for law in words]
    for (source, chain), law in zip(counted, words):
        out += [
            verify_counting_markov(source, law),
            verify_counting_cotransitions(source, horizon, walk, chain),
        ]
    control = standard_negative_control()
    negative = CheckReport("negative-control-detected")
    markov_rep = verify_counting_markov(control, source_cylinder_law(control, min(horizon, 6)))
    cotrans_rep = verify_counting_cotransitions(control, min(horizon, 6))
    # expected: at least one violation each; record the violation counts
    negative.require("markov-check-should-fail", not markov_rep.ok, 1, len(markov_rep.violations))
    negative.require(
        "cotransition-check-should-fail", not cotrans_rep.ok, 1, len(cotrans_rep.violations)
    )
    out.append(negative)
    return out


def recovery_identity_report(
    d: int, horizon: int, family: Optional[CountingFamily] = None
) -> CheckReport:
    """Constructive representation of the recovered h, over ``family``'s chains
    (a new ``counting_family`` if None).

    For a finite mixture, h(x) = sum_i w_i K(x, mu_i) exactly; for the urn,
    h(x) = d^{|x|} times the Dirichlet moment of the directing law.
    """
    report = CheckReport(f"h-recovery-identity[d={d}]@{horizon}")
    walk, ((mixture, mixture_chain), (urn, urn_chain)) = (
        counting_family(d) if family is None else family
    )
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
        gap = (abs(i * real.denominator - real.numerator * points), points * real.denominator)
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


def _chain_reports(d: int, budget: int, small_level: int) -> list[CheckReport]:
    """The structural, oracle and kernel suites, all over one uniform walk,
    which is dropped when they are done."""
    walk = uniform_walk(d)
    return [
        walk.check_row_stochastic(budget),
        walk.check_weak_irreducibility(budget),
        oracle_equivalence_report(walk, small_level),
        cylinder_markov_report(walk, small_level),
        kernel_agreement_report(d, budget, walk),
        kernel_symmetry_report(d, budget, walk),
        martingale_identity_report(d, small_level, walk),
        expectation_identity_report(d, small_level, walk),
    ]


def _counting_reports(d: int, horizon: int) -> list[CheckReport]:
    """The lemma and recovery suites over one ``counting_family``, which is
    dropped when they are done."""
    family = counting_family(d)
    return [*lemma_reports(d, horizon, family), recovery_identity_report(d, horizon, family)]


def full_verification(d: int, budget: int, workers: int = 1) -> list[CheckReport]:
    """The exact invariant suites of all modules at the given budgets, in the
    families the module docstring names, on up to ``workers`` forked
    processes; the reports come in the same order for every worker count."""
    small_level = min(budget, 6)
    alphas = rational_alphas(d, 4)
    # (cost, family): each cost is the family's time in ms at d=3, budget 8, in one process
    families: list[tuple[float, Callable[[], list[CheckReport]]]] = [
        (68, lambda: _chain_reports(d, budget, small_level)),
        (11, lambda: [boundary_harmonicity_report(d, budget, alphas)]),
    ]
    if d >= 2:
        # at d = 1 the plain product is the normalized kernel (d^m = 1), so it cannot fail
        families.append((1, lambda: [unnormalized_rejection_report(d, min(budget, 4), alphas[:2])]))
    families += [
        (6, lambda: [representation_report(d, small_level, alphas[:2])]),
        (37, lambda: transform_identity_reports(d, small_level, alphas[:2])),
    ]
    if d in (2, 3):
        families += [
            (56, lambda: _counting_reports(d, small_level)),
            (1, lambda: identity_reports(d, small_level)),
        ]
    families += [
        (10, lambda: [digit_roundtrip_report(points=1000, depth=30)]),
        (0.2, lambda: [projection_report()]),
        (0.2, lambda: [lift_exchangeability_report()]),
    ]
    costs, runs = zip(*families)
    reports = fork_map(lambda run: run(), runs, workers, costs)
    return [report for family in reports for report in family]
