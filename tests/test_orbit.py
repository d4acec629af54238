import math
import time
from fractions import Fraction
from itertools import accumulate, combinations, islice

import pytest

from trigroup import counting, orbit
from trigroup.counting import count_by_height, list_by_height
from trigroup.core import (
    FORM_MATRIX,
    ResourceLimitError,
    _reflect,
    generator_matrix,
    is_triangle_quadruple,
    mat_mul,
    mat_transpose,
    mat_vec,
    validate_quadruple,
)
from trigroup.eisenstein import factorize
from trigroup.linalg import bareiss_det
from trigroup.orbit import (
    _CHAMBER_VECTOR,
    _bfs,
    _geodesic_words,
    _series_den,
    _series_sizes,
    bfs_elements,
    char_poly,
    coxeter_char_poly,
    coxeter_element,
    extremal_word,
    growth_recurrence,
    max_norm_at_length,
    orbit_sizes,
    orbit_vectors,
    prime_factor_count,
    search_prime_factor_count,
    spectral_radius,
    spectral_radius_closed_form,
    stabilizer_counts,
    stabilizer_cumulative_closed_form,
    word_norm,
)
from trigroup.reduction import reduce_to_root
import matrix_bfs
from census_oracle import all_roots_walk
from conftest import all_vectors, norm_profile, random_quadruples
from matrix_bfs import all_generators, det4 as _det4, element_layers, word_matrix

ROOT = (0, 1, 1, 1)


def _descent(v):
    """The smallest i with 3 v_i > sum(v), or None in the closed chamber.

    For v = w(x), x in the closed chamber and w shortest in its coset of
    x's stabilizer, this is the first letter of w's lexicographically
    smallest reduced word, by the descent rule, and None when w is the
    identity.
    """
    total = sum(v)
    for i, x in enumerate(v, 1):
        if 3 * x > total:
            return i
    return None


def tree_layers(start, max_sum=None):
    """The layers of a start in the closed chamber, as tree levels: the
    oracle of counting._root_layers, walking ordered vectors.

    The child s_i v is made by v only when 3 v_i < s = sum(v) and i is
    its smallest descent: no j < i has 3 v_j > 2s - 3 v_i.  A child over
    max_sum is skipped before it is built, and so is its subtree, whose
    sums are larger still.  Layer n + 1 lists the children of layer n in
    its order.
    """
    cur = [start]
    while True:
        yield cur
        nxt = []
        for a, b, c, d in cur:
            # generator i replaces entry i by s - 2 v_i; the child's sum is t - 3 v_i
            s = a + b + c + d
            t = s + s
            a3, b3, c3, d3 = 3 * a, 3 * b, 3 * c, 3 * d
            if a3 < s and (max_sum is None or t - a3 <= max_sum):
                nxt.append((s - 2 * a, b, c, d))
            if b3 < s and a3 + b3 <= t and (max_sum is None or t - b3 <= max_sum):
                nxt.append((a, s - 2 * b, c, d))
            if (c3 < s and a3 + c3 <= t and b3 + c3 <= t
                    and (max_sum is None or t - c3 <= max_sum)):
                nxt.append((a, b, s - 2 * c, d))
            if (d3 < s and a3 + d3 <= t and b3 + d3 <= t and c3 + d3 <= t
                    and (max_sum is None or t - d3 <= max_sum)):
                nxt.append((a, b, c, s - 2 * d))
        cur = nxt


def canonical_levels(monkeypatch, g, max_sum=None):
    """The levels of nonincreasing quadruples that counting._root_layers
    walks for the root (0, g, g, g), read with its expansion undone."""
    monkeypatch.setattr(counting, "_layout", lambda level, p, index: level)
    return counting._root_layers((0, g, g, g), max_sum, False)


# Coefficients of the Coxeter growth series (1+2t+2t^2+t^3)/(1-2t-2t^2+3t^3).
COXETER_SERIES = (1, 4, 12, 30, 72, 168, 390, 900, 2076, 4782, 11016, 25368, 58422, 134532)

# Coefficients of W(t)/W_J(t) = (1 - t^2)/(1 - t - 3t^2), J = {2, 3, 4}: the
# orbit layers of a root (0, g, g, g), whose stabilizer is the affine W_J.
ROOT_ORBIT_SERIES = (1, 1, 3, 6, 15, 33, 78, 177, 411, 942, 2175, 5001, 11526, 26529)

# Roots (0, g, g, g) with the zero in each position: starts in the closed chamber.
CHAMBER_ROOTS = [(0, 1, 1, 1), (3, 0, 3, 3), (5, 5, 0, 5), (2, 2, 2, 0)]

LETTER_SETS = [t for k in range(1, 5) for t in combinations((1, 2, 3, 4), k)]


def test_recurrence_values():
    assert [growth_recurrence(n) for n in range(5)] == [1, 4, 12, 29, 70]
    assert [growth_recurrence(n) for n in range(7)] == [1, 4, 12, 29, 70, 162, 377]
    with pytest.raises(ValueError):
        growth_recurrence(-1)


def test_bfs_seed_layers():
    sizes = bfs_elements(2)
    assert sizes == (1, 4, 12)
    assert tuple(accumulate(sizes)) == (1, 5, 17)


def test_bfs_oracle_vs_recurrence_disagreement():
    # the exact BFS count at depth 3 is 30; the closed recurrence gives 29
    sizes = bfs_elements(5)
    assert sizes[3] == 30
    assert growth_recurrence(3) == 29
    assert sizes == (1, 4, 12, 30, 72, 168)


def test_bfs_layers_are_disjoint_distinct_matrices():
    layers = element_layers(all_generators(), 5)
    seen = set()
    for layer in layers:
        assert len(layer) == len(set(layer))
        assert not (set(layer) & seen)
        seen |= set(layer)


def test_bfs_elements_preserve_form_and_det_parity():
    layers = element_layers(all_generators(), 5)
    for depth, layer in enumerate(layers):
        for m in layer:
            assert mat_mul(mat_transpose(m), mat_mul(FORM_MATRIX, m)) == FORM_MATRIX
            assert _det4(m) == (-1) ** depth


def test_bfs_cap_raises():
    with pytest.raises(ResourceLimitError):
        bfs_elements(6, max_elements=50)


def test_orbit_vectors_depth_one():
    result = orbit_vectors(ROOT, 1)
    assert result.cumulative_sizes == (1, 2)
    assert all_vectors(result) == {(0, 1, 1, 1), (3, 1, 1, 1)}


def test_orbit_vectors_all_valid_and_primitive_invariant():
    result = orbit_vectors(ROOT, 6)
    for v in all_vectors(result):
        assert is_triangle_quadruple(v)
        assert math.gcd(*v) == 1


def test_ordered_orbit_does_not_permute_entries():
    # the ordered orbit of (0,1,1,1) never reaches its permutation (1,1,0,1)
    result = orbit_vectors(ROOT, 6)
    assert (1, 1, 0, 1) not in all_vectors(result)


def test_orbit_sum_prune_is_a_subset():
    full = orbit_vectors(ROOT, 5)
    pruned = orbit_vectors(ROOT, 5, max_sum=30)
    assert all_vectors(pruned) <= all_vectors(full)
    assert all(sum(v) <= 30 for v in all_vectors(pruned))


@pytest.mark.parametrize("max_sum", [None, 60])
@pytest.mark.parametrize("root", [(0, 1, 1, 1), (8, 8, 0, 8), (7, 4, 3, 1)])
def test_orbit_sizes_match_orbit_vectors(root, max_sum):
    # orbit_sizes counts the layers orbit_vectors lists, under the same
    # element cap; the listed layers are sorted, as orbit --list prints them
    sizes = orbit_sizes(root, 6, None, max_sum)
    vec = orbit_vectors(root, 6, None, max_sum)
    assert tuple(accumulate(sizes)) == vec.cumulative_sizes
    assert sizes == tuple(len(layer) for layer in vec.layers)
    assert all(list(layer) == sorted(layer) for layer in vec.layers)
    total = vec.cumulative_sizes[-1]
    assert orbit_sizes(root, 6, total, max_sum) == sizes
    for call in (orbit_sizes, orbit_vectors):
        with pytest.raises(ResourceLimitError):
            call(root, 6, total - 1, max_sum)


def test_zero_start_is_its_own_orbit():
    # (0,0,0,0) is fixed by every generator and lies in the closed chamber
    # of every letter set; it is no triangle quadruple, so only _bfs takes
    # it.  Its orbit is itself, and a cap of 1, the total, returns.
    zero = (0, 0, 0, 0)
    for max_sum in (None, 60):
        layers = [list(layer) for layer in _bfs(zero, 6, 1, max_sum)]
        assert layers == [[zero]] + [[]] * 6
    for call in (orbit_sizes, orbit_vectors):
        with pytest.raises(ValueError):
            call(zero, 6)


@pytest.mark.parametrize("max_sum", [None, 60])
@pytest.mark.parametrize("root", CHAMBER_ROOTS)
def test_root_orbit_layers_against_matrix_oracle(root, max_sum):
    # layer n of the orbit is the set of M r over the matrices M of length
    # n, less the vectors that shorter matrices reach; the sum prune keeps
    # those of sum <= max_sum
    seen, oracle = set(), []
    for matrices in element_layers(all_generators(), 7):
        images = {mat_vec(m, root) for m in matrices} - seen
        seen |= images
        oracle.append(tuple(sorted(v for v in images if max_sum is None or sum(v) <= max_sum)))
    assert orbit_vectors(root, 7, None, max_sum).layers == tuple(oracle)
    if max_sum is not None:
        assert 0 < sum(map(len, oracle)) < len(seen)


@pytest.mark.parametrize("letters", LETTER_SETS, ids=str)
def test_chamber_vector_layers_against_matrix_oracle_on_every_letter_set(letters):
    generators = tuple(generator_matrix(i) for i in letters)
    oracle = [len(layer) for layer in element_layers(generators, 7)]
    assert list(islice(_series_sizes((1, 1, 1, 1), letters), 8)) == oracle


@pytest.mark.parametrize("start", [(1, 1, 1, 1), (0, 1, 1, 1), (5, 5, 0, 5)])
def test_chamber_layers_are_levels_of_the_smallest_descent_tree(start):
    # each vector of layer n + 1 is listed under the vector of layer n
    # that its smallest descent (_descent) names, in the order of layer n
    layers = list(islice(tree_layers(start), 9))
    for parents, children in zip(layers, layers[1:]):
        index = {v: k for k, v in enumerate(parents)}
        order = [index[_reflect(v, _descent(v))] for v in children]
        assert order == sorted(order)


@pytest.mark.parametrize("max_sum", [None, 50, 300, 1000])
@pytest.mark.parametrize("g", [1, 2, 3, 7])
def test_root_layers_against_the_set_and_tree_loops(g, max_sum):
    # for the zero in each position, the layers of the canonical tree,
    # expanded, are those of the set loop and of the descent tree, and
    # their sizes are the weighted counts
    max_sum = max_sum and max_sum * g
    for p in range(4):
        root = tuple(0 if i == p else g for i in range(4))
        layers = [sorted(layer) for layer in islice(counting._root_layers(root, max_sum, False), 10)]
        assert layers == [sorted(layer) for layer in islice(orbit._set_layers(root, max_sum), 10)]
        assert layers == [sorted(layer) for layer in islice(tree_layers(root, max_sum), 10)]
        sizes = list(islice(counting._root_layers(root, max_sum, True), 10))
        assert sizes == [len(layer) for layer in layers]


@pytest.mark.parametrize("max_sum", [3, 50, 300, 1000])
def test_canonical_levels_are_the_census_rows(monkeypatch, max_sum):
    # every primitive canonical quadruple of sum <= max_sum lies in one
    # level, at its number of reduction steps; the census walk lists
    # them, and so does the oracle's walk of the primitive tree
    rows = {q for q, _ in all_roots_walk(max_sum, max_sum * max_sum, True) if sum(q) <= max_sum}
    assert rows == {q for q, _, _ in counting._walk(max_sum, max_sum)}
    levels = list(iter(canonical_levels(monkeypatch, 1, max_sum).__next__, []))
    assert sum(map(len, levels)) == len(rows)
    assert set().union(*levels) == rows
    if max_sum == 1000:
        assert len(rows) == 6018
    for n, level in enumerate(levels):
        assert all(len(reduce_to_root(q).steps) == n for q in level)


def test_height_census_is_the_sum_bounded_root_orbit():
    # s^2 = 3h, so the primitive quadruples of height <= n are those of
    # sum <= isqrt(3 n^2): the census counts them depth first with its
    # ordered weights, the orbit of (0, 1, 1, 1) by levels with the root
    # weights, one zero position of the four.  A level adds at least 3 to
    # the sum, so isqrt(3 n^2) // 3 + 1 levels hold them all.  n = 1 is
    # left out: layer 0 is the root even over max_sum.
    for n in range(2, 201):
        max_sum = math.isqrt(3 * n * n)
        sizes = orbit_sizes((0, 1, 1, 1), max_sum // 3 + 1, None, max_sum)
        assert count_by_height(n, "ordered", True).count == 4 * sum(sizes), n


@pytest.mark.parametrize("g", [1, 2, 5])
def test_canonical_vectors_have_one_entry_in_the_class_of_zero(monkeypatch, g):
    # the expansion finds the entry it moves to the root's zero position
    # as the one entry = 0 (mod 3g); the others are = g
    for level in islice(canonical_levels(monkeypatch, g), 11):
        for q in level:
            assert sorted(x % (3 * g) for x in q) == [0, g, g, g], q
            assert list(q) == sorted(q, reverse=True)


def test_root_orbit_layer_sizes_at_depth_13():
    # the BFS against the power series (1 - t^2)/(1 - t - 3t^2), whose
    # coefficients obey c_n = c_{n-1} + 3 c_{n-2} from n = 3 on
    series = [1, 1, 3]
    while len(series) < 14:
        series.append(series[-1] + 3 * series[-2])
    assert tuple(series) == ROOT_ORBIT_SERIES
    assert orbit_sizes(ROOT, 13) == ROOT_ORBIT_SERIES


def test_orbit_sizes_dominated_by_element_counts():
    totals = tuple(accumulate(bfs_elements(7)))
    vec = orbit_vectors(ROOT, 7)
    for n in range(8):
        w_n = totals[n]
        orbit_n = vec.cumulative_sizes[n]
        assert orbit_n <= w_n
        assert w_n <= orbit_n * stabilizer_cumulative_closed_form(n)


def test_stabilizer_layer_sizes():
    layers = stabilizer_counts(8)
    assert layers == [1] + [3 * n for n in range(1, 9)]
    assert stabilizer_cumulative_closed_form(2) == 31
    assert sum(layers[: 2 * 2 + 1]) == 31


@pytest.mark.parametrize(
    "n,expected",
    [
        (0, ()),
        (2, (2, 1)),
        (4, (4, 3, 2, 1)),
        (5, (1, 4, 3, 2, 1)),
        (7, (3, 2, 1, 4, 3, 2, 1)),
    ],
)
def test_extremal_word_shapes(n, expected):
    assert extremal_word(n) == expected


@pytest.mark.parametrize(
    "word,expected",
    [((1,), 3), ((4, 3, 2, 1), 13), ((), 1)],
)
def test_word_norm_examples(word, expected):
    assert word_norm(word, ROOT) == expected


def test_extremal_word_is_reduced():
    # the extremal word's matrix shows up exactly at BFS depth = its length
    layers = element_layers(all_generators(), 6)
    for n in range(7):
        m = word_matrix(extremal_word(n))
        assert m in layers[n]


def test_max_norm_exhaustive_small():
    norm, words = max_norm_at_length(0, ROOT)
    assert (norm, words) == (1, [()])
    norm, words = max_norm_at_length(1, ROOT)
    assert norm == 3
    assert words == [(1,)]
    norm, words = max_norm_at_length(4, ROOT)
    assert norm == 13 == word_norm(extremal_word(4), ROOT)


def test_extremal_words_attain_exhaustive_max():
    profile = norm_profile(13, ROOT)
    for n, (norm, attaining) in enumerate(profile):
        rn = word_norm(extremal_word(n), ROOT)
        assert norm <= rn
        assert norm == rn  # the staircase words do attain the maximum
        assert attaining  # ties recorded
    assert profile[13][0] == 1659
    assert len(profile[13][1]) == 6


@pytest.mark.parametrize("bound", [Fraction(0), Fraction(-1, 3), 0, -1, True, 0.5, 1e-13, "1/10", None])
def test_spectral_radius_rejects_bad_bound(bound):
    # a zero bound used to bisect forever
    with pytest.raises(ValueError):
        spectral_radius(bound)


def test_spectral_radius_accepts_int_bound():
    assert spectral_radius(1) == Fraction(17, 2)


def test_coxeter_element_char_poly():
    assert coxeter_char_poly() == (1, -7, -15, -7, 1)
    # independent oracle: evaluate det(tI - M) at integer points
    m = coxeter_element()
    for t in (-3, -1, 0, 2, 5):
        shifted = tuple(
            tuple((t if i == j else 0) - m[i][j] for j in range(4)) for i in range(4)
        )
        value = sum(c * t ** (4 - k) for k, c in enumerate(coxeter_char_poly()))
        assert _det4(shifted) == value


def test_char_poly_of_identity():
    from trigroup.core import IDENTITY

    assert char_poly(IDENTITY) == (1, -4, 6, -4, 1)


def test_spectral_radius_bisection_vs_closed_form():
    gamma = spectral_radius(Fraction(1, 10**13))
    closed = spectral_radius_closed_form()
    assert abs(float(gamma) - closed) < 1e-9
    assert round(float(gamma), 3) == 8.795
    # palindromic polynomial: the reciprocal of a root is a root
    coeffs = coxeter_char_poly()
    assert coeffs == coeffs[::-1]
    value = sum(Fraction(c) * gamma ** (4 - k) for k, c in enumerate(coeffs))
    assert abs(value) < Fraction(1, 10**8)


def test_extremal_norm_ratio_converges_to_spectral_radius():
    gamma = spectral_radius_closed_form()
    norms = [word_norm(extremal_word(4 * m), ROOT) for m in range(9)]
    ratio = norms[8] / norms[7]
    assert abs(ratio / gamma - 1) < 0.05


@pytest.mark.parametrize(
    "q,expected",
    [((3, 1, 1, 1), 1), ((0, 1, 1, 1), None), ((7, 4, 3, 1), 4)],
)
def test_prime_factor_count(q, expected):
    assert prime_factor_count(q) == expected


def test_search_prime_factor_count():
    found = search_prime_factor_count(10, 1)
    assert found == [((3, 1, 1, 1), 1)]
    # oracle: recount from the census by trial division
    for q, reported in search_prime_factor_count(25, 4):
        product = q[0] * q[1] * q[2] * q[3]
        assert product > 0
        count = 0
        n, p = product, 2
        while p * p <= n:
            while n % p == 0:
                count += 1
                n //= p
            p += 1
        if n > 1:
            count += 1
        assert count == reported <= 4


def product_prime_factor_count(q):
    """Oracle: factor the product of the four entries at once."""
    if 0 in q:
        return None
    return sum(factorize(math.prod(q)).values())


def test_prime_factor_count_per_entry_matches_the_product():
    rows = tuple(list_by_height(60))
    for q in rows + tuple(random_quadruples(60, seed=5, max_steps=14)):
        assert prime_factor_count(q) == product_prime_factor_count(q), q
    for q, count in search_prime_factor_count(60, 9):
        assert count == product_prime_factor_count(q), q


def test_prime_factor_count_of_a_long_orbit_vector():
    # the product of these entries defeats factorize, each entry alone
    # factors at once
    start = time.perf_counter()
    q = (118085895487179, 330792400880452, 126367082754673, 89694322581103)
    assert prime_factor_count(q) == 12
    assert time.perf_counter() - start < 0.1


def test_element_bfs_is_the_orbit_of_the_chamber_vector():
    # Tits: w -> w(1,1,1,1) is injective, so each matrix layer maps onto
    # the vector layer of the same depth, one to one
    ones = (1, 1, 1, 1)
    vector_layers = _bfs(ones, 9, 10**6)
    for matrices, vectors in zip(element_layers(all_generators(), 9), vector_layers, strict=True):
        images = [mat_vec(m, ones) for m in matrices]
        assert len(set(images)) == len(matrices)
        assert sorted(images) == sorted(vectors)


def test_bfs_layer_sizes_against_matrix_oracle():
    oracle = [len(layer) for layer in element_layers(all_generators(), 9)]
    assert list(bfs_elements(9)) == oracle
    stabilizer = tuple(all_generators()[1:])
    assert stabilizer_counts(9) == [len(layer) for layer in element_layers(stabilizer, 9)]


def test_bfs_layer_sizes_against_coxeter_series():
    sizes = bfs_elements(len(COXETER_SERIES) - 1)
    assert sizes == COXETER_SERIES
    assert tuple(accumulate(sizes))[-1] == sum(COXETER_SERIES)


@pytest.mark.parametrize("root", [(0, 1, 1, 1), (0, 7, 7, 7), (3, 0, 3, 3), (7, 4, 3, 1)])
def test_max_norm_profile_against_matrix_oracle(root):
    assert norm_profile(8, root) == matrix_bfs.max_norm_profile(8, root)


def test_descent_rule_against_matrix_oracle():
    # S_i M is one layer shorter than M exactly when reflecting
    # k = M (1,1,1,1) at i lowers its entry sum, i.e. 3 k_i > sum(k);
    # only the identity has no such i
    layers = element_layers(all_generators(), 7)
    for n, layer in enumerate(layers):
        shorter = set(layers[n - 1]) if n else set()
        for m in layer:
            k = mat_vec(m, (1, 1, 1, 1))
            descents = {i for i in (1, 2, 3, 4) if 3 * k[i - 1] > sum(k)}
            assert descents == {i for i in (1, 2, 3, 4) if mat_mul(generator_matrix(i), m) in shorter}
            assert bool(descents) == (n > 0)


def test_descent_reads_the_smallest_reduced_word():
    # repeated _descent on k = M (1,1,1,1) spells M's lexicographically
    # smallest reduced word, the word element_walk records
    for n, layer in enumerate(matrix_bfs.smallest_reduced_words(7)):
        for m, smallest in layer.items():
            k, word = mat_vec(m, (1, 1, 1, 1)), ()
            while (i := _descent(k)) is not None:
                word += (i,)
                k = _reflect(k, i)
            assert word == smallest, (n, m)


def element_walk(max_n, root, max_elements=None):
    """Per length through max_n, every group element as (its smallest
    reduced word, its image of root), by a walk over the elements keyed
    by their images of (1, 1, 1, 1): the smallest descent of the key is
    the first letter of the element's smallest reduced word, and
    reflecting the key there gives its parent."""
    root = validate_quadruple(root)
    prev = {}
    for layer in _bfs(_CHAMBER_VECTOR, max_n, max_elements):
        cur = {}
        for key in layer:
            i = _descent(key)
            if i is None:
                cur[key] = ((), root)
            else:
                word, image = prev[_reflect(key, i)]
                cur[key] = ((i,) + word, _reflect(image, i))
        yield cur.values()
        prev = cur


def element_walk_profile(max_n, root, max_elements=None):
    """norm_profile by the element walk."""
    profile = []
    for elements in element_walk(max_n, root, max_elements):
        norms = [(max(image), word) for word, image in elements]
        best = max(norm for norm, _ in norms)
        profile.append((best, sorted(word for norm, word in norms if norm == best)))
    return profile


@pytest.mark.parametrize("root", [(0, 1, 1, 1), (1, 0, 1, 1), (3, 3, 0, 3), (7, 7, 7, 0)])
def test_max_norm_profile_of_roots_against_element_walk(root):
    assert norm_profile(10, root) == element_walk_profile(10, root)


# seed 13 draws five starts outside the closed chamber
@pytest.mark.parametrize("root", [(7, 4, 3, 1), (4, 1, 1, 3)] + random_quadruples(5, seed=13), ids=str)
def test_max_norm_profile_of_other_starts_against_element_walk(root):
    assert norm_profile(9, root) == element_walk_profile(9, root)


@pytest.mark.parametrize("start", [(7, 4, 3, 1), (4, 1, 1, 3)])
def test_geodesic_words_are_the_smallest_words_of_every_element(start):
    # with all of layer n as tops, paths that spell two reduced words of
    # one element (a braid move) meet in one state
    layers = list(_bfs(start, 6))
    *_, elements = element_walk(6, start)
    oracle = sorted(word for word, image in elements if image in layers[-1])
    assert sorted(_geodesic_words(layers, list(layers[-1]))) == oracle


@pytest.mark.parametrize("start", [(0, 1, 1, 1), (2, 0, 2, 2), (7, 4, 3, 1), (4, 1, 1, 3), (1, 1, 3, 4)])
def test_largest_entry_grows_strictly_by_layer(start):
    # the lemma in max_norm_at_length: the largest entry over layers 0..n
    # lies in layer n alone
    tops = [max(map(max, layer)) for layer in _bfs(start, 10)]
    assert all(a < b for a, b in zip(tops, tops[1:]))


def test_max_norm_profile_cap_counts_elements_through_length_n():
    through_5 = sum(COXETER_SERIES[:6])
    assert len(norm_profile(5, ROOT, through_5)) == 6
    with pytest.raises(ResourceLimitError):
        norm_profile(5, ROOT, through_5 - 1)


@pytest.mark.parametrize("start", [(0, 1, 1, 1), (7, 4, 3, 1)])
def test_max_norm_at_length_reads_the_words_of_layer_n_alone(monkeypatch, start):
    expected = element_walk_profile(9, start)[9]
    calls = []
    words = orbit._geodesic_words
    monkeypatch.setattr(
        orbit, "_geodesic_words", lambda layers, tops: calls.append(len(layers)) or words(layers, tops)
    )
    assert max_norm_at_length(9, start) == expected
    assert calls == [10]
    through_9 = sum(COXETER_SERIES[:10])
    with pytest.raises(ResourceLimitError):
        max_norm_at_length(9, start, max_elements=through_9 - 1)
    assert calls == [10]


@pytest.mark.parametrize("word", [(5,), (0, 0), (1, True), (2.0,)])
def test_word_norm_rejects_bad_letters(word):
    with pytest.raises(ValueError):
        word_norm(word, ROOT)


@pytest.mark.parametrize(
    "call",
    [
        lambda: list(_bfs((1, 1, 1, 1), -1, 100)),
        lambda: bfs_elements(-1),
        lambda: orbit_vectors(ROOT, -2),
        lambda: stabilizer_counts(-1),
        lambda: orbit_sizes((7, 4, 3, 1), -1),
        lambda: max_norm_at_length(-1, ROOT),
        lambda: orbit_sizes(ROOT, -2),
    ],
)
def test_negative_depth_rejected(call):
    with pytest.raises(ValueError):
        call()


def _matrix_orbit_sizes(start, letters, depth):
    """The orbit layer sizes of start under the letters' generators by
    the exact matrix BFS: the distinct M start by first reach."""
    seen, sizes = set(), []
    for matrices in element_layers(tuple(generator_matrix(i) for i in letters), depth):
        images = {mat_vec(m, start) for m in matrices} - seen
        seen |= images
        sizes.append(len(images))
    return sizes


def _series_and_bfs(start, letters, depth):
    """The layer sizes of the growth series, and the sizes of a BFS's
    layers: those of _bfs's loops on all four letters, and of the matrix
    BFS on a subset, which the loops do not walk."""
    series = list(islice(_series_sizes(start, letters), depth + 1))
    if letters == (1, 2, 3, 4):
        return series, [len(layer) for layer in _bfs(start, depth)]
    return series, _matrix_orbit_sizes(start, letters, depth)


def test_series_against_bfs_for_the_chamber_vector():
    series, bfs = _series_and_bfs((1, 1, 1, 1), (1, 2, 3, 4), 13)
    assert series == bfs == list(COXETER_SERIES)


def test_series_against_bfs_for_the_affine_stabilizer():
    series, bfs = _series_and_bfs((1, 1, 1, 1), (2, 3, 4), 40)
    assert series == bfs == [1] + [3 * n for n in range(1, 41)]


@pytest.mark.parametrize("root", CHAMBER_ROOTS)
def test_series_against_bfs_for_root_orbits(root):
    series, bfs = _series_and_bfs(root, (1, 2, 3, 4), 13)
    assert series == bfs == list(ROOT_ORBIT_SERIES)


@pytest.mark.parametrize("start", [(1, 1, 1, 1), (0, 1, 1, 1)])
@pytest.mark.parametrize("letters", LETTER_SETS, ids=str)
def test_series_against_bfs_on_every_letter_set(letters, start):
    series, bfs = _series_and_bfs(start, letters, 8)
    assert series == bfs


def test_series_of_the_zero_start():
    # every letter fixes (0,0,0,0), so its stabilizer is the whole group
    series, bfs = _series_and_bfs((0, 0, 0, 0), (1, 2, 3, 4), 6)
    assert series == bfs == [1] + [0] * 6


def test_counts_of_chamber_starts_build_no_vectors(monkeypatch):
    # with no max_sum the counts take the series; a max_sum count walks
    # the canonical tree and weighs its quadruples, and only orbit_vectors
    # expands them into vectors
    expected = orbit_sizes(ROOT, 8, None, 60)

    def no_vectors(*args):
        raise AssertionError("_layout called")

    monkeypatch.setattr(counting, "_layout", no_vectors)
    assert bfs_elements(13) == COXETER_SERIES
    assert orbit_sizes(ROOT, 13) == ROOT_ORBIT_SERIES
    assert stabilizer_counts(40) == [1] + [3 * n for n in range(1, 41)]
    assert orbit_sizes(ROOT, 8, None, 60) == expected
    with pytest.raises(AssertionError, match="_layout"):
        orbit_vectors(ROOT, 3)


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def test_growth_series_in_closed_form():
    # W_k(t) = (1 + t)(1 + t + t^2) / _series_den(k): 1 for no letter,
    # 1 + t for one, the dihedral group of order 6 for two, the affine
    # A2~ for three, the whole group for four
    numerator = _poly_mul((1, 1), (1, 1, 1))
    factored = {
        0: numerator,
        1: (1, 1, 1, 0),
        2: (1, 0, 0, 0),
        3: _poly_mul(_poly_mul((1, -1), (1, -1)), (1, 1)),
        4: _poly_mul((1, -1), (1, -1, -3)),
    }
    assert {k: _series_den(k) for k in range(5)} == factored
    # the root orbit: W(t) = W_{2,3,4}(t) (1 - t^2)/(1 - t - 3t^2)
    assert _poly_mul(_series_den(3), (1, -1, -3)) == _poly_mul(_series_den(4), (1, 0, -1))


def test_finite_parabolics_are_the_positive_definite_minors():
    # FORM_MATRIX's principal minors: positive up to rank 2, zero for the
    # affine A2~ on three letters, -27 for the hyperbolic whole.  W_T is
    # finite exactly when the minors on T are positive, which is when its
    # series stops after the longest element's degree 3
    minors = {0: 1, 1: 2, 2: 3, 3: 0, 4: -27}
    for k, expected in minors.items():
        for subset in combinations((1, 2, 3, 4), k):
            rows = [[FORM_MATRIX[i - 1][j - 1] for j in subset] for i in subset]
            assert bareiss_det(rows) == expected
            finite = all(minors[j] > 0 for j in range(k + 1))
            stops = not any(islice(_series_sizes(_CHAMBER_VECTOR, subset), 4, 40))
            assert stops == finite == (k <= 2)


@pytest.mark.parametrize("subset", [(), (3,), (1, 4), (2, 3)], ids=str)
def test_poincare_polynomials_against_matrix_oracle(subset):
    generators = tuple(generator_matrix(i) for i in subset)
    layers = [len(layer) for layer in element_layers(generators, 4)]
    assert layers == list(islice(_series_sizes(_CHAMBER_VECTOR, subset), 5))


@pytest.mark.parametrize(
    "call,total",
    [
        (lambda cap: bfs_elements(13, cap), sum(COXETER_SERIES)),
        (lambda cap: orbit_sizes(ROOT, 13, cap), sum(ROOT_ORBIT_SERIES)),
    ],
    ids=["bfs_elements", "orbit_sizes"],
)
def test_series_counts_keep_the_element_cap(call, total):
    call(total)
    with pytest.raises(ResourceLimitError):
        call(total - 1)


def test_recurrence_gap_is_the_numerators_cubic_term():
    # the recurrence is the series' denominator 1 - 2t - 2t^2 + 3t^3 with
    # seeds 1, 4, 12 that leave out the numerator's t^3 term, so the BFS
    # count minus the recurrence is the coefficient of t^n in
    # t^3/(1 - 2t - 2t^2 + 3t^3): 0, 0, 0, 1, 2, 6, ...
    layers = bfs_elements(200, max_elements=10**100)
    gap = [0, 0, 0, 1]
    while len(gap) < 201:
        gap.append(2 * gap[-1] + 2 * gap[-2] - 3 * gap[-3])
    assert [layers[n] - growth_recurrence(n) for n in range(201)] == gap
