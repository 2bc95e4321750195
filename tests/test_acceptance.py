"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every exact check uses rational arithmetic (zero residual required);
Monte Carlo checks use fixed seeds and 3-standard-error tolerances.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

from martinwalk import (
    MixtureSource,
    PolyaUrnSource,
    alpha_walk,
    boundary_harmonic,
    boundary_kernel,
    closed_form_kernel,
    comp_state,
    counting_chain_law,
    counting_h_recovery,
    definetti_identity_check,
    estimate_directing_measure,
    h_transform,
    ks_distance_uniform,
    representation_check_mc,
    uniform_walk,
)
from martinwalk.cli import emit, parse_config, run
from martinwalk.suites import (
    boundary_harmonicity_report,
    counting_family,
    digit_roundtrip_report,
    expectation_identity_report,
    kernel_agreement_report,
    kernel_limit_report,
    kernel_symmetry_report,
    lemma_reports,
    limit_alpha_grid,
    martingale_identity_report,
    projection_report,
    rational_alphas,
    recovery_identity_report,
    representation_report,
    transform_identity_reports,
    unnormalized_rejection_report,
)


@contextmanager
def criterion(number: int, name: str, limit_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} {name}: FAIL", flush=True)
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {number:2d} {name}: PASS ({elapsed:.1f}s)", flush=True)
    assert elapsed < limit_seconds, f"criterion {number} took {elapsed:.1f}s, limit {limit_seconds}s"


def test_criterion_01_kernel_oracle_equivalence():
    with criterion(1, "kernel oracle equivalence", 60):
        for d in (2, 3, 4):
            report = kernel_agreement_report(uniform_walk(d), 8)
            assert report.ok, str(report)


def test_criterion_02_kernel_symmetry_and_bound():
    with criterion(2, "kernel symmetry and bound", 30):
        for d in (2, 3, 4):
            report = kernel_symmetry_report(uniform_walk(d), 8)
            assert report.ok, str(report)


def test_criterion_03_martingale_and_expectation_identities():
    with criterion(3, "backwards-martingale and expectation identities", 30):
        for d in (2, 3):
            walk = uniform_walk(d)
            assert martingale_identity_report(walk, 8).ok
            assert expectation_identity_report(walk, 8).ok


def test_criterion_04_boundary_kernel_harmonicity():
    with criterion(4, "boundary-kernel harmonicity and normalization guard", 30):
        for d in (2, 3):
            alphas = rational_alphas(d, 10)
            assert len(alphas) == 10
            report = boundary_harmonicity_report(d, 8, alphas)
            assert report.ok, str(report)
            guard = unnormalized_rejection_report(d, 4, alphas)
            assert guard.ok, str(guard)


def test_criterion_05_kernel_limit():
    with criterion(5, "kernel limit along rays", 60):
        for d in (2, 3):
            grid = limit_alpha_grid(d)
            assert len(grid) == 5
            assert all(min(a) >= Fraction(1, 10) for a in grid)
            report = kernel_limit_report(d, grid, horizons=(10**3, 10**4, 10**5), tol=1e-3)
            assert report.ok, str(report)


def test_criterion_06_h_transform_suite():
    with criterion(6, "h-transform suite", 120):
        cases = {
            2: [(Fraction(7, 10), Fraction(3, 10))] + rational_alphas(2, 2),
            3: [(Fraction(1, 2), Fraction(1, 3), Fraction(1, 6))] + rational_alphas(3, 2),
        }
        for d, alphas in cases.items():
            for report in transform_identity_reports(d, 6, alphas):
                assert report.ok, str(report)


def test_criterion_07_finite_horizon_representation():
    with criterion(7, "finite-horizon representation identity", 120):
        # exact mode at n = 6
        for d in (2, 3):
            report = representation_report(d, 6, rational_alphas(d, 3))
            assert report.ok, str(report)
        # Monte Carlo mode at n = 200 with 10^4 replicates
        alpha = (Fraction(7, 10), Fraction(3, 10))
        h = boundary_harmonic(alpha)
        walk = alpha_walk(alpha)
        for seed, x in ((3, comp_state((1, 0))), (4, comp_state((1, 1)))):
            result = representation_check_mc(
                h, x, n=200, replicates=10_000, seed=seed,
                transformed=walk, kernel=closed_form_kernel,
            )
            assert result.within(3.0), str(result)


def test_criterion_08_lemma_suite():
    with criterion(8, "counting-chain lemma suite", 60):
        reports = lemma_reports(counting_family(2), 6)
        named = {r.name: r for r in reports}
        for name, report in named.items():
            assert report.ok, f"{name} failed:\n{report}"
        # the negative-control report passes only when the control fails both checks
        assert "negative-control-detected" in named


def test_criterion_09_constructive_definetti():
    with criterion(9, "constructive de Finetti identification", 60):
        for d in (2, 3):
            report = recovery_identity_report(counting_family(d), 6)
            assert report.ok, str(report)
        # recovered transform reproduces the counting law exactly (enforced inside
        # counting_h_recovery by equal rows on reachable states; the whole path
        # law is compared here for visibility)
        mixture = MixtureSource(
            atoms=((Fraction(1, 5), Fraction(4, 5)), (Fraction(3, 5), Fraction(2, 5))),
            weights=(Fraction(1, 2), Fraction(1, 2)),
        )
        h = counting_h_recovery(mixture, 6)
        base = uniform_walk(2)
        assert h_transform(base, h).cylinder_law(6).atoms == counting_chain_law(mixture, 6).atoms
        for n in range(7):
            for x in base.enumerate_level(n):
                expected = sum(
                    w * boundary_kernel(x, atom) for w, atom in mixture.directing_atoms()
                )
                assert h(x) == expected


def test_criterion_10_directing_measure_recovery():
    with criterion(10, "directing-measure recovery", 180):
        mixture = MixtureSource(
            atoms=((Fraction(1, 5), Fraction(4, 5)), (Fraction(3, 5), Fraction(2, 5))),
            weights=(Fraction(1, 2), Fraction(1, 2)),
        )
        estimate = estimate_directing_measure(mixture, horizon=10_000, replicates=2_000, seed=7)
        for summary in estimate.cluster_summary(mixture.atoms):
            assert max(abs(m - a) for m, a in zip(summary.mean, summary.atom)) <= 0.02
            assert abs(summary.weight - 0.5) <= 0.03
        urn = estimate_directing_measure(PolyaUrnSource((1, 1)), horizon=10_000, replicates=2_000, seed=11)
        assert ks_distance_uniform(urn.samples[:, 0]) <= 0.04


def test_criterion_11_binary_lift():
    with criterion(11, "binary-expansion lift", 30):
        assert digit_roundtrip_report(points=10_000, depth=30).ok
        assert projection_report(depth=4).ok
        urn = PolyaUrnSource((1, 1))
        report = definetti_identity_check(urn, 2)
        assert report.ok, str(report)
        assert urn.word_probability((1, 1)) == Fraction(1, 3)  # = int_0^1 p^2 dp


def test_criterion_12_determinism():
    with criterion(12, "end-to-end determinism", 120):
        estimate_cfg = json.dumps(
            {
                "command": "estimate",
                "source": {"kind": "polya", "initial": [1, 1]},
                "horizon": 10_000,
                "replicates": 2_000,
                "seed": 11,
                "format": "csv",
            }
        )
        first, _ = run(parse_config(estimate_cfg))
        second, _ = run(parse_config(estimate_cfg, overrides={"workers": 3}))
        assert emit(first, "csv") == emit(second, "csv")
        assert emit(first, "json") == emit(second, "json")

        verify_cfg = json.dumps({"command": "verify", "d": 2, "budget": 6, "seed": 0})
        rep_a, status_a = run(parse_config(verify_cfg))
        rep_b, status_b = run(parse_config(verify_cfg))
        assert status_a == status_b == 0
        assert emit(rep_a, "json") == emit(rep_b, "json")
        assert emit(rep_a, "csv") == emit(rep_b, "csv")
