"""Breadth-first enumeration of group elements and quadruple orbits.

The generators act on 4-vectors as Bourbaki's geometric representation
of the Coxeter group on K4 with every label 3, whose form FORM_MATRIX is
nondegenerate and sends (1, 1, 1, 1) to its negative.  So -(1, 1, 1, 1)
lies in an open chamber, and by Tits' theorem w -> w(1, 1, 1, 1) is
injective: a group element is counted as its image of (1, 1, 1, 1), and
the element BFS is the orbit BFS from that vector.

One function, _bfs, serves element growth, quadruple orbits and the
norm maxima, and owns their element cap and their depth cap, LENGTH_CAP;
the norm maxima walk the orbit of their start, not the group.  Layer n
holds the vectors first reached by a word of length n, as an unordered
collection without duplicates, and _bfs holds only two layers at a time
(max_norm_at_length keeps them all); only orbit_layers sorts them, one
layer at a time as they are asked for, and orbit_vectors keeps what it
yields.

The descent rule: s_i changes the entry sum of v by sum(v) - 3 v_i, and
for v = w(x), x in the closed chamber (3 x_i <= sum(x), such as
(1, 1, 1, 1), a root (0, g, g, g) with the zero in any position, and
(0, 0, 0, 0)) and w shortest in its coset of x's stabilizer, s_i
shortens w exactly when 3 v_i > sum(v), and fixes v when
3 v_i = sum(v) (Humphreys, Reflection Groups and Coxeter Groups, 1990,
5.4, 5.6 and 5.13).  So the depth of an orbit vector of a root is its
number of reduction steps (reduction.py), which permuting its entries
keeps.  The group acts trivially mod 3, so the orbit of (0, g, g, g)
with the zero at position p is the set of quadruples of gcd g whose one
entry = 0 (mod 3g) sits at p, closed under the permutations of the
other three positions.  _bfs walks a root's orbit up to them by the
levels of counting's tree of canonical quadruples (_root_layers there).
Other starts, the non-root quadruples, take a set loop (_set_layers),
and so do (1, 1, 1, 1) and (0, 0, 0, 0), which only the tests walk.

The series: the stabilizer of a chamber start x in W_L is the parabolic
W_K, K the letters i in L with 3 x_i = sum(x) (5.13), so its layer sizes
are the coefficients of W_L(t) / W_K(t).  Every label is 3, so W_T is
finite exactly when |T| <= 2, and Steinberg's formula (5.12) gives each
growth series from its number of letters alone (_series_den).  The
counts (bfs_elements, orbit_sizes, stabilizer_counts) of a chamber start
with no max_sum take them and build no vectors.  On all four letters the
BFS loops are their oracle in the tests, on a letter subset a BFS over
exact 4x4 matrices is, and that matrix BFS is the oracle of both loops.
Layer sizes are computed independently of the closed recurrence, which
is kept as a separate code path so the two can be reported side by side.
The Coxeter element's characteristic polynomial is linalg.char_poly.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Collection, Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, count, islice
from operator import mul

from . import counting
from .core import (
    GENERATOR_INDICES,
    LENGTH_CAP,
    Mat4,
    Quadruple,
    ResourceLimitError,
    Vector4,
    _as_tuple,
    _is_int,
    _reflect,
    _require_int,
    _word_matrix,
    validate_quadruple,
)
from .eisenstein import factorize
from .linalg import char_poly

DEFAULT_MAX_ELEMENTS = 2_000_000

RECURRENCE_SEEDS = (1, 4, 12)

# Its negative lies in the open fundamental chamber, so only the identity
# fixes it and its orbit is a copy of the group.
_CHAMBER_VECTOR = (1, 1, 1, 1)

# An integer polynomial, coefficients from the constant term up.
Poly = tuple[int, ...]


@dataclass(frozen=True)
class GrowthTable:
    """Per-depth new-element counts and their running totals."""

    layer_sizes: tuple[int, ...]
    cumulative_sizes: tuple[int, ...]


def _bfs(
    start: Vector4,
    max_depth: int,
    max_elements: int | None = None,
    max_sum: int | None = None,
    *,
    sizes: bool = False,
) -> Iterator[Collection[Vector4]] | Iterator[int]:
    """Yield the BFS layers of start: vectors, or with sizes set their sizes.

    A root's layers come from its tree of canonical quadruples, whose
    sizes build no vector; any other start's from a set loop.  With
    max_sum set, vectors whose entry sum exceeds it are dropped.
    The caller must not mutate a yielded layer.  Raises
    ResourceLimitError once the running total exceeds max_elements
    (None: DEFAULT_MAX_ELEMENTS) after a layer, or max_depth exceeds
    LENGTH_CAP.  The arguments are checked once, when iteration starts.
    """
    _require_int("depth", max_depth, 0, cap=LENGTH_CAP)
    cap = DEFAULT_MAX_ELEMENTS
    if max_elements is not None:
        cap = _require_int("element cap", max_elements, 1)
    if max_sum is not None:
        _require_int("max_sum", max_sum, 0)
    in_chamber = 3 * max(start) <= sum(start)
    if sizes and in_chamber and max_sum is None:
        layers = _series_sizes(start, GENERATOR_INDICES)
    elif in_chamber and min(start) == 0 < max(start):
        # in the chamber, only the roots and (0, 0, 0, 0) have a zero entry
        layers = counting._root_layers(start, max_sum, sizes)
    else:
        layers = _set_layers(start, max_sum)
        if sizes:
            layers = map(len, layers)
    total = 0
    for layer in islice(layers, max_depth + 1):
        total += layer if sizes else len(layer)
        if total > cap:
            raise ResourceLimitError(f"BFS exceeded cap of {cap} elements")
        yield layer


def _series_den(k: int) -> Poly:
    """The denominator of W_k(t), the growth series of k letters, over
    their common numerator (1 + t)(1 + t + t^2).

    With every label 3, W_T is finite exactly when |T| <= 2, so
    Steinberg's formula (Mem. AMS 80, 1968; Humphreys 5.12) reads
    1/W_k(t) = 1 - k t/(1 + t) + C(k, 2) t^3/((1 + t)(1 + t + t^2)).
    """
    return (1, 2 - k, 2 - k, 1 - k + k * (k - 1) // 2)


def _series_sizes(start: Vector4, letters: tuple[int, ...]) -> Iterator[int]:
    """The layer sizes of a start in the closed chamber of letters: the
    coefficients of W_letters(t) / W_K(t), K the letters that fix start,
    that is of _series_den(|K|) / _series_den(|letters|), yielded by the
    linear recurrence of the denominator.
    """
    fixing = sum(3 * start[i - 1] == sum(start) for i in letters)
    num, den = _series_den(fixing), _series_den(len(letters))
    past: deque[int] = deque([0, 0, 0], maxlen=3)
    for n in count():
        c = (num[n] if n < len(num) else 0) - sum(map(mul, den[1:], past))
        past.appendleft(c)
        yield c


def _set_layers(start: Vector4, max_sum: int | None) -> Iterator[set[Vector4]]:
    """The layers of any start, as sets.

    Every reflection is an involution, so a vector reached from layer n
    can only already lie in layer n - 1 or n; those two are subtracted.
    """
    prev: set[Vector4] = set()
    cur: set[Vector4] = {start}
    while True:
        yield cur
        nxt: set[Vector4] = set()
        add = nxt.add
        for a, b, c, d in cur:
            # generator i replaces entry i by the sum of the others minus itself
            s = a + b + c + d
            add((s - 2 * a, b, c, d))
            add((a, s - 2 * b, c, d))
            add((a, b, s - 2 * c, d))
            add((a, b, c, s - 2 * d))
        nxt -= prev
        nxt -= cur
        if max_sum is not None:
            nxt = {w for w in nxt if sum(w) <= max_sum}
        prev, cur = cur, nxt


def _growth_table(layer_sizes: Iterator[int]) -> GrowthTable:
    sizes = tuple(layer_sizes)
    return GrowthTable(layer_sizes=sizes, cumulative_sizes=tuple(accumulate(sizes)))


def bfs_elements(max_depth: int, max_elements: int | None = None) -> GrowthTable:
    """Growth table of the full group: layer sizes and cumulative counts.

    The sizes are the coefficients of the growth series
    (1 + t)(1 + t + t^2) / ((1 - t)(1 - t - 3t^2)), under the element cap.
    """
    sizes = _bfs(_CHAMBER_VECTOR, max_depth, max_elements, sizes=True)
    return _growth_table(sizes)


def growth_recurrence_terms(n: int) -> list[int]:
    """G_0, ..., G_n of the closed three-term recurrence with seeds 1, 4, 12.

    G_n = 2 G_{n-1} + 2 G_{n-2} - 3 G_{n-3}.  The BFS oracle disagrees
    with this at depth 3 (30 against 29); both values are reported by
    the growth table machinery rather than reconciled here.  Above
    LENGTH_CAP it raises ResourceLimitError before any work.
    """
    _require_int("depth", n, 0, cap=LENGTH_CAP)
    terms = list(RECURRENCE_SEEDS[: n + 1])
    while len(terms) <= n:
        terms.append(2 * terms[-1] + 2 * terms[-2] - 3 * terms[-3])
    return terms


def growth_recurrence(n: int) -> int:
    """G_n of the recurrence, see growth_recurrence_terms."""
    return growth_recurrence_terms(n)[n]


@dataclass(frozen=True)
class VectorOrbit:
    """Distinct quadruples reached within each depth, plus the layers."""

    root: Quadruple
    cumulative_sizes: tuple[int, ...]
    layers: tuple[tuple[Vector4, ...], ...]


def orbit_layers(
    root: Quadruple,
    max_depth: int,
    max_elements: int | None = None,
    max_sum: int | None = None,
) -> Iterator[list[Vector4]]:
    """The layers of orbit_vectors(root, ...), each sorted, one at a time.

    Layer n + 1 is built only when it is asked for, so a caller can use
    layer n first.  The arguments are checked, and layer 0 is built,
    when this is called; ResourceLimitError for the element cap comes
    when the layer that crosses it is asked for, after those under it.
    """
    layers = map(sorted, _bfs(validate_quadruple(root), max_depth, max_elements, max_sum))
    return chain([next(layers)], layers)


def orbit_vectors(
    root: Quadruple,
    max_depth: int,
    max_elements: int | None = None,
    max_sum: int | None = None,
) -> VectorOrbit:
    """BFS over quadruples under the four generator actions.

    cumulative_sizes[n] is the number of distinct vectors reachable by
    words of length at most n.  With max_sum set, vectors reached from
    the root whose entry sum exceeds the limit are discarded: the result
    is then a subset of the unrestricted orbit, and every vector it
    reports at depth n is genuinely reachable within n steps (paths are
    never invented, only dropped).  The root is always layer 0, even
    when its own sum exceeds max_sum.  Each of the layers is sorted; a
    root's layers are its canonical levels expanded into every order.
    """
    layers = tuple(map(tuple, orbit_layers(root, max_depth, max_elements, max_sum)))
    return VectorOrbit(
        root=layers[0][0],
        cumulative_sizes=tuple(accumulate(map(len, layers))),
        layers=layers,
    )


def orbit_sizes(
    root: Quadruple,
    max_depth: int,
    max_elements: int | None = None,
    max_sum: int | None = None,
) -> GrowthTable:
    """The sizes of orbit_vectors(root, ...) without its vectors.

    Same arguments, checks and element cap, which counts the vectors;
    layer 0 is always the root, even over max_sum.  A root (0, g, g, g)
    builds no vector: with no max_sum it has the sizes of
    (1 - t^2)/(1 - t - 3t^2), its series, and with a max_sum each
    quadruple of its canonical tree counts as its number of orders.
    Other starts' layers are counted and dropped.
    """
    root = validate_quadruple(root)
    sizes = _bfs(root, max_depth, max_elements, max_sum, sizes=True)
    return _growth_table(sizes)


def stabilizer_counts(max_n: int) -> list[int]:
    """Layer sizes of the subgroup generated by the last three reflections.

    That subgroup fixes every root quadruple (0, x, x, x); it is the
    affine group of type A2~, with growth series (1 + t + t^2)/(1 - t)^2,
    whose coefficients the sizes are: 3n new elements at each length
    n >= 1, so the count of elements of length at most 2n is
    6n^2 + 3n + 1.  A series count: LENGTH_CAP bounds it, no element cap.
    """
    _require_int("depth", max_n, 0, cap=LENGTH_CAP)
    return list(islice(_series_sizes(_CHAMBER_VECTOR, (2, 3, 4)), max_n + 1))


def stabilizer_cumulative_closed_form(n: int) -> int:
    """Closed form 6n^2 + 3n + 1 for stabilizer elements of length <= 2n."""
    _require_int("n", n, 0)
    return 6 * n * n + 3 * n + 1


Word = tuple[int, ...]


def extremal_word(n: int) -> Word:
    """The norm-extremal word of length n.

    For n = 4m + i the word is the length-i staircase prefix followed
    by m copies of the full descending cycle (4, 3, 2, 1); letters act
    on vectors right to left.  n is capped at LENGTH_CAP.
    """
    _require_int("length", n, 0, cap=LENGTH_CAP)
    m, i = divmod(n, 4)
    prefix = {0: (), 1: (1,), 2: (2, 1), 3: (3, 2, 1)}[i]
    return prefix + (4, 3, 2, 1) * m


def word_norm(word: Word, root: Quadruple) -> int:
    """Maximum entry of the word applied to a quadruple, letters right to left."""
    v = validate_quadruple(root)
    word = _as_tuple("word", word)
    _require_int("word length", len(word), cap=LENGTH_CAP)
    for letter in word:
        _require_int("generator index", letter, 1, 4)
    for letter in reversed(word):
        v = _reflect(v, letter)
    return max(v)


def _geodesic_words(layers: list[set[Vector4]], tops: list[Vector4]) -> Collection[Word]:
    """The least word of each element w with w(start) in tops, where
    tops lies in the last of the layers and the start is the first.

    Such a w has length n, the last layer's depth, so every reduced word
    of w is a path back from w(start) down one layer per letter, and
    every such path spells a reduced word.  A state is the vector
    reached and the inverse of the letters read so far applied to
    (1, 1, 1, 1), which tells elements apart.  States are met in the
    order of their least word, since each step extends the words in
    order by letters in order; so the first word kept for a state is
    its least.
    """
    paths = {(v, _CHAMBER_VECTOR): () for v in tops}
    for below in reversed(layers[:-1]):
        nxt: dict[tuple[Vector4, Vector4], Word] = {}
        for (v, key), word in paths.items():
            for i in GENERATOR_INDICES:
                u = _reflect(v, i)
                if u in below:
                    nxt.setdefault((u, _reflect(key, i)), word + (i,))
        paths = nxt
    return paths.values()


def max_norm_at_length(
    n: int,
    root: Quadruple,
    max_elements: int | None = None,
) -> tuple[int, list[Word]]:
    """Exhaustive maximum of the sup norm over the length-n elements.

    Returns (max over all length-n elements w of max(w r), sorted list
    of the lexicographically smallest reduced words of the w attaining
    it).  The elements through length n are counted from the growth
    series against the element cap before any vector is built.

    The answer lies in layer n of the orbit of r.  A length-n element
    sends r into a layer of depth at most n, and each vector of layer n
    is the image of one.  Let M_k be the largest entry of layer k; then
    M_0 < M_1 < ... (strict growth).  For a quadruple v with sorted
    entries a <= b <= c <= d, c > 0 (no valid quadruple has three
    zeros), so reflecting at a gives the entry b + c + d - a > d.  By
    induction, let M_0 < ... < M_k and take v in layer k with
    max(v) = M_k.  Its reflection at a is a neighbour of v with a
    larger maximum, so it is not v and lies in neither layer k - 1 nor
    layer k: it lies in layer k + 1, and M_{k+1} > M_k.  So the
    maximizers are the vectors of layer n with largest entry M_n.

    The words are read off the paths back from the maximizers through
    the layers, the least one per element (_geodesic_words).  Ties are
    recorded deterministically.
    """
    root = validate_quadruple(root)
    bfs_elements(n, max_elements)
    layers = [set(layer) for layer in _bfs(root, n, max_elements)]
    best = max(map(max, layers[-1]))
    tops = [v for v in layers[-1] if best in v]
    return best, sorted(_geodesic_words(layers, tops))


def coxeter_element() -> Mat4:
    """The product of all four generators in descending order."""
    return _word_matrix((4, 3, 2, 1))


def coxeter_char_poly() -> tuple[int, ...]:
    """det(tI - C) for the Coxeter element C, leading coefficient first."""
    return char_poly(coxeter_element())


def _poly_eval(coeffs: tuple[int, ...], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def spectral_radius(error_bound: Fraction = Fraction(1, 10**13)) -> Fraction:
    """Largest real root of the Coxeter element polynomial, by bisection.

    Sign evaluations are exact at rational points; the returned value is
    within error_bound of the root.  The polynomial is palindromic, so
    the reciprocal of the returned root is also a root.  error_bound must
    be a positive int or Fraction: at zero the bisection would never stop.
    """
    if not (isinstance(error_bound, Fraction) or _is_int(error_bound)) or error_bound <= 0:
        raise ValueError(f"error_bound must be a positive int or Fraction, got {error_bound!r}")
    coeffs = coxeter_char_poly()
    lo, hi = Fraction(8), Fraction(9)
    if not (_poly_eval(coeffs, lo) < 0 < _poly_eval(coeffs, hi)):
        raise AssertionError("root bracket [8, 9] lost")
    while hi - lo > error_bound:
        mid = (lo + hi) / 2
        if _poly_eval(coeffs, mid) < 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def spectral_radius_closed_form() -> float:
    """Closed form of the largest root of t^4 - 7t^3 - 15t^2 - 7t + 1.

    The palindromic quartic factors as (t^2 - at + 1)(t^2 - bt + 1) with
    a + b = 7 and ab = -17, so a = (7 + 3 sqrt 13)/2 and the largest
    root is (a + sqrt(a^2 - 4))/2.
    """
    a = (7 + 3 * math.sqrt(13)) / 2
    return (a + math.sqrt(a * a - 4)) / 2


def prime_factor_count(q: Quadruple) -> int | None:
    """Number of prime factors, with multiplicity, of the entry product.

    The count is completely additive, so it is summed over the entries
    and the product, which factorize may fail on, is never formed.
    Undefined (None) when any entry is zero: the product is then zero
    and the count has no meaning.
    """
    q = validate_quadruple(q)
    if any(x == 0 for x in q):
        return None
    return sum(sum(factorize(x).values()) for x in q)


def search_prime_factor_count(height_bound: int, max_count: int) -> list[tuple[Quadruple, int]]:
    """(quadruple, prime factor count) for the canonical primitive
    quadruples of bounded height whose entry product has at most
    max_count prime factors (zero-entry rows, which end in 0, excluded).
    Counted entry by entry, as in prime_factor_count, and each distinct
    entry is factored once: the rows share few values."""
    _require_int("max_count", max_count, 0)
    rows = [q for q in counting.list_by_height(height_bound, "canonical", True) if q[3]]
    omega = {x: sum(factorize(x).values()) for x in {x for q in rows for x in q}}
    counted = ((q, sum(map(omega.__getitem__, q))) for q in rows)
    return [(q, count) for q, count in counted if count <= max_count]
