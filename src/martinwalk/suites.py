"""Named verification suites over configurable budgets.

Each function runs one family of identities at exact (rational) precision
and returns a ``CheckReport``; the few floating-point families (kernel
limits) say so in their names.  The command-line ``verify`` command and the
acceptance tests are both thin drivers over these.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

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
    closed_form_kernel_ratio,
    compositions,
    product_moment,
    rounded_ray_point,
    uniform_walk,
)
from .definetti import (
    MarkovSource,
    MixtureSource,
    PolyaUrnSource,
    binary_digits,
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
from .prob import Prob, probs_equal
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


def kernel_agreement_report(d: int, max_level: int) -> CheckReport:
    """Closed-form kernel equals the dynamic-programming kernel, all pairs."""
    chain = uniform_walk(d)
    report = CheckReport(f"kernel-agreement[d={d}]<= {max_level}")
    for x, n, row in kernel_rows(chain, max_level):
        for y in chain.enumerate_level(n):
            report.record_ratio(lambda: f"K@({x}; {y})", closed_form_kernel_ratio(x, y), row[y])
    return report


def kernel_symmetry_report(d: int, max_level: int) -> CheckReport:
    """Both kernel expressions agree, kernel rows against chained
    cotransitions; K(x, y) <= 1/P(x); K(root, y) = 1.  Each check compares
    int cross-products, and only a failing one builds ``Fraction``s."""
    chain = uniform_walk(d)
    report = CheckReport(f"kernel-symmetry[d={d}]<= {max_level}")
    for m in range(max_level + 1):
        level_m, law_m = chain.enumerate_level(m), chain.forward_law(m)
        bounds = {x: Fraction(law_m.den, law_m.nums[x]) for x in level_m}
        for n in range(m, max_level + 1):
            rows = [(x, chain.kernel_row(x, n), bounds[x]) for x in level_m]
            root = chain.kernel_row(chain.root, n)
            for y in chain.enumerate_level(n):
                back = chain.backward_conditional(y, m)
                for x, row, bound in rows:
                    forward = row[y]
                    backward = (back.nums.get(x, 0) * bound.numerator, back.den * bound.denominator)
                    report.record_ratio(lambda: f"symmetry@({x}; {y})", forward, backward)
                    within = forward[0] * bound.denominator <= bound.numerator * forward[1]
                    # only a failing bound keeps the kernel, so only it builds one
                    kernel = bound if within else Fraction(*forward)
                    report.require(lambda: f"bound@({x}; {y})", within, bound, kernel)
                report.record_ratio(lambda: f"root-normalization@{y}", (1, 1), root[y])
    return report


def martingale_identity_report(d: int, max_level: int) -> CheckReport:
    """One-step backwards-martingale identity:
    sum_x' K(x, x') P(Y_n = x' | Y_{n+1} = y) = K(x, y)."""
    chain = uniform_walk(d)
    report = CheckReport(f"backwards-martingale[d={d}]<= {max_level}")
    for x, n, above in kernel_rows(chain, max_level):
        if n > x.level:
            for y in chain.enumerate_level(n):
                mean = kernel_mean(below, chain.cotransition(y))
                report.record_ratio(lambda: f"martingale@({x}; {y})", above[y], mean)
        below = above
    return report


def expectation_identity_report(d: int, max_level: int) -> CheckReport:
    """sum_y K(x, y) P(Y_n = y) = 1 for every x and horizon."""
    chain = uniform_walk(d)
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
    """Floating-point check: K(x, round(n alpha)) approaches K(x, alpha), with
    error at most tol at the largest horizon and non-increasing along the way,
    for every probe x up to level 3."""
    report = CheckReport(f"kernel-limit[d={d}] (float)")
    probes = [c for n in range(4) for c in compositions(d, n)]
    for alpha in alphas:
        for x in probes:
            target = float(boundary_kernel(x, alpha))
            errors = [
                abs(float(closed_form_kernel(x, rounded_ray_point(n, alpha))) - target)
                for n in horizons
            ]
            probe = f"{x}; alpha={alpha}"
            report.require(
                lambda: f"limit@({probe}; n={horizons[-1]})", errors[-1] <= tol, tol, errors[-1]
            )
            for a, b, n in zip(errors, errors[1:], horizons[1:]):
                holds = b <= a or probs_equal(a, b)
                report.require(lambda: f"monotone@({probe}; n={n})", holds, a, b)
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


def lemma_reports(d: int, horizon: int) -> list[CheckReport]:
    """Exchangeability, Markov property and universal cotransitions of the standard
    sources, one word law each, plus the negative control (which must fail the last two)."""
    sources = (standard_mixture(d), PolyaUrnSource((1,) * d))
    words = [source_cylinder_law(source, horizon) for source in sources]
    out = [cylinder_exchangeability_report(law) for law in words]
    for source, law in zip(sources, words):
        out += [verify_counting_markov(source, law), verify_counting_cotransitions(source, horizon)]
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


def recovery_identity_report(d: int, horizon: int) -> CheckReport:
    """Constructive representation of the recovered h.

    For a finite mixture, h(x) = sum_i w_i K(x, mu_i) exactly; for the urn,
    h(x) = d^{|x|} times the Dirichlet moment of the directing law.
    """
    report = CheckReport(f"h-recovery-identity[d={d}]@{horizon}")
    chain = uniform_walk(d)

    mixture = standard_mixture(d)
    h_mix = counting_h_recovery(mixture, horizon)
    expected_mix = HarmonicFn.mixture(
        [(w, boundary_harmonic(atom)) for w, atom in mixture.directing_atoms()],
        name="mixture-of-kernels",
    )
    urn = PolyaUrnSource((1,) * d)
    h_urn = counting_h_recovery(urn, horizon)
    for n in range(horizon + 1):
        for x in chain.enumerate_level(n):
            report.record(lambda: f"mixture-h@{x}", expected_mix(x), h_mix(x))
            report.record(
                lambda: f"urn-h@{x}",
                Fraction(d) ** n * dirichlet_moment(urn.initial, x.payload),
                h_urn(x),
            )
    return report


# -- binary expansion suite ---------------------------------------------------------------


def digit_roundtrip_report(points: int = 10_000, depth: int = 30) -> CheckReport:
    """|x - sum_k digit_k 2^{-k}| < 2^{-depth} on an evenly spaced grid."""
    report = CheckReport(f"digit-roundtrip[{points} points, depth {depth}]")
    bound = Fraction(1, 2**depth)
    for i in range(points):
        x = Fraction(i, points)
        gap = abs(x - reconstruct_real(binary_digits(x, depth)))
        report.require(lambda: f"roundtrip@{x}", gap < bound, bound, gap)
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


def full_verification(d: int, budget: int) -> list[CheckReport]:
    """The exact invariant suites of all modules at the given budgets."""
    chain = uniform_walk(d)
    small_level = min(budget, 6)
    alphas = rational_alphas(d, 4)
    reports = [
        chain.check_row_stochastic(budget),
        chain.check_weak_irreducibility(budget),
        oracle_equivalence_report(chain, small_level),
        cylinder_markov_report(chain, small_level),
        kernel_agreement_report(d, budget),
        kernel_symmetry_report(d, budget),
        martingale_identity_report(d, small_level),
        expectation_identity_report(d, small_level),
        boundary_harmonicity_report(d, budget, alphas),
    ]
    if d >= 2:
        # at d = 1 the plain product is the normalized kernel (d^m = 1), so it cannot fail
        reports.append(unnormalized_rejection_report(d, min(budget, 4), alphas[:2]))
    reports.append(representation_report(d, small_level, alphas[:2]))
    reports.extend(transform_identity_reports(d, small_level, alphas[:2]))
    if d in (2, 3):
        reports.extend(lemma_reports(d, small_level))
        reports.append(recovery_identity_report(d, small_level))
        reports.extend(identity_reports(d, small_level))
    reports.append(digit_roundtrip_report(points=1000, depth=30))
    reports.append(projection_report())
    reports.append(lift_exchangeability_report())
    return reports
