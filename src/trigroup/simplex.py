"""The regular-simplex identity in n dimensions, over exact rationals.

For a regular n-simplex with squared side a0 and a point P in its
affine hull with squared vertex distances a1..a_{n+1}, the tuple
satisfies (n+1) * sum(a_i^2) = (sum(a_i))^2.  The identity follows from
the vanishing of the Gram determinant of the vertex vectors with P at
the origin; both the determinant and its closed form are computed here
and compared exactly.  The reflection replacing one distance entry by
(2/n) * (sum of the others) - entry preserves the identity; for n = 2
it coincides with the quadruple generators, and for n > 2 it does not
preserve integrality.

The residual and the determinant are homogeneous in the entries, of
degrees 2 and k = n + 1, so both are computed on the tuple scaled to
integers by the lcm m of its denominators and divided by m^2 and m^k
once: the elimination runs on ints, with no Fraction in it.  gram_det
builds its integer matrix itself, so it runs linalg's kernel, _bareiss,
directly, without checking the entries again.

Only n = 2 carries an orbit theory.  Entry reflections i != j are in
the roots e_i, e_j of the form (n+1) I - J (<e_i, e_i> = n,
<e_i, e_j> = -1), whose mirrors meet at theta with cos theta = 1/n.  At
n = 2 that is pi/3 and s_1 s_2 has order 3; for n >= 3, theta/pi is
irrational (Niven), so s_1 s_2 is a rotation of infinite order, the
group is not discrete and denominators along (s_1 s_2)^k grow without
bound.  as_entries rejects n = 1, the triple 2 sum a^2 = (sum a)^2.

Everything is done on squared quantities, so no irrational coordinate
ever appears.  A regular simplex with rational coordinates may need an
ambient dimension above the simplex dimension (the plane, for instance,
contains no rational equilateral triangle); the tests build theirs as
scale * e_i in dimension n + 1 (standard_configuration in
tests/simplex_oracle.py).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .core import _as_tuple, _rational, _require_int
from .linalg import _bareiss, rational_rank

Entries = tuple[Fraction, ...]


class NegativeEntryWarning(UserWarning):
    """A reflection produced a negative entry: algebraically fine, but the
    geometric reading as a squared distance is lost."""


def as_entries(values) -> Entries:
    """Coerce a sequence of Fractions, ints or fraction strings to exact
    rationals; any other entry raises ValueError."""
    entries = tuple(_rational("entry", v) for v in _as_tuple("entries", values))
    if len(entries) < 4:
        raise ValueError("a tuple needs at least 4 entries (dimension >= 2)")
    return entries


def dimension(entries: Entries) -> int:
    """Simplex dimension n for an (n+2)-entry tuple."""
    return len(entries) - 2


def _scaled(entries: Entries) -> tuple[list[int], int]:
    """The entries times m, the lcm of their denominators, as ints, and m."""
    m = math.lcm(*(e.denominator for e in entries))
    return [e.numerator * (m // e.denominator) for e in entries], m


def _residual(ints: list[int]) -> int:
    """(n+1) * sum of squares minus the squared sum, for n + 2 entries."""
    total = sum(ints)
    return (len(ints) - 1) * sum(x * x for x in ints) - total * total


def identity_residual(values) -> Fraction:
    """(n+1) * sum of squares minus the squared sum; zero iff the tuple is valid."""
    ints, m = _scaled(as_entries(values))
    return Fraction(_residual(ints), m * m)


def reflect(values, index: int) -> Entries:
    """Replace distance entry `index` (1-based; entry 0 is the squared side)
    by (2/n) * (sum of the other entries) - entry.

    The identity is quadratic in each distance entry, so this swaps the
    two roots: it preserves validity exactly and is an involution.  A
    negative result is allowed but triggers NegativeEntryWarning, since
    the tuple then has no distance interpretation.
    """
    entries = as_entries(values)
    n = dimension(entries)
    _require_int("index", index, 1, n + 1)
    ints, m = _scaled(entries)
    residual = _residual(ints)
    if residual != 0:
        raise ValueError(f"tuple does not satisfy the identity (residual {Fraction(residual, m * m)})")
    new_entry = Fraction(2 * (sum(ints) - ints[index]) - n * ints[index], n * m)
    if new_entry < 0:
        warnings.warn(
            f"reflection produced negative entry {new_entry} at index {index}",
            NegativeEntryWarning,
            stacklevel=2,
        )
    return entries[:index] + (new_entry,) + entries[index + 1 :]


def gram_det(values) -> Fraction:
    """Exact determinant of the (n+1) x (n+1) matrix with diagonal 2*a_i
    and off-diagonal a_i + a_j - a0, twice the vertex Gram matrix when P
    sits at the origin, by fraction-free elimination on the tuple scaled
    to integers."""
    (a0, *dist), m = _scaled(as_entries(values))
    rows = [[2 * x if i == j else x + y - a0 for j, y in enumerate(dist)] for i, x in enumerate(dist)]
    return Fraction(_bareiss(rows)[1], m ** len(dist))


def gram_closed_form(values) -> Fraction:
    """-a0^(n-1) times the identity residual: equals gram_det identically."""
    entries = as_entries(values)
    return -entries[0] ** (dimension(entries) - 1) * identity_residual(entries)


@dataclass(frozen=True)
class PointConfiguration:
    """n+1 vertex vectors and a point, exact rational coordinates; the
    constructor applies the rational rule to every coordinate, and
    tuple_from_configuration checks the geometry."""

    vertices: tuple[tuple[Fraction, ...], ...]
    point: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        vertices = tuple(map(_coordinates, _as_tuple("vertices", self.vertices)))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "point", _coordinates(self.point))


def _coordinates(values) -> tuple[Fraction, ...]:
    return tuple(_rational("coordinate", x) for x in _as_tuple("coordinates", values))


def _dist_squared(u, v) -> Fraction:
    return sum((a - b) ** 2 for a, b in zip(u, v))


def tuple_from_configuration(cfg: PointConfiguration) -> Entries:
    """(squared side a, squared distances from the point to each vertex).

    The configuration is checked here, once: n + 1 >= 3 vertices, one
    coordinate dimension, one squared side a > 0 between every two
    vertices, and the point in the affine hull of the vertices.  The
    ambient dimension may exceed the simplex dimension n (it must, for a
    rational regular simplex in most n).  Affine independence needs no
    test: the edges from vertex 0 have Gram matrix (a/2)(I + J), which
    is positive definite, so they have rank n, and the point lies in the
    hull exactly when its offset from vertex 0 keeps that rank.  The
    resulting tuple satisfies the identity exactly.
    """
    vertices, point = cfg.vertices, cfg.point
    if len(vertices) < 3:
        raise ValueError("need at least 3 vertices")
    if len({len(v) for v in vertices} | {len(point)}) != 1:
        raise ValueError("inconsistent coordinate dimensions")
    side, *others = {_dist_squared(u, v) for u, v in combinations(vertices, 2)}
    if others:
        raise ValueError(f"not a regular simplex: squared distances {side} and {others[0]}")
    if side == 0:
        raise ValueError("degenerate simplex: coincident vertices")
    offsets = [[x - y for x, y in zip(v, vertices[0])] for v in (*vertices[1:], point)]
    if rational_rank(offsets) != len(vertices) - 1:
        raise ValueError("point does not lie in the affine hull of the vertices")
    return (side,) + tuple(_dist_squared(point, v) for v in vertices)


def _pair_to_fraction(pair) -> Fraction:
    num, den = pair
    return Fraction(_require_int("numerator", num), _require_int("denominator", den))


def configuration_from_json(data) -> PointConfiguration:
    """A configuration from a dict of the form
    {"vertices": [[pair, ...], ...], "point": [pair, ...]}, where each
    coordinate is a [numerator, denominator] pair.

    A missing key, a pair that is not two ints or a zero denominator
    raises ValueError.
    """
    try:
        vertices = [[_pair_to_fraction(x) for x in vertex] for vertex in data["vertices"]]
        point = [_pair_to_fraction(x) for x in data["point"]]
    except (KeyError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed point configuration: {exc!r}") from None
    return PointConfiguration(vertices, point)


def load_configuration(path) -> PointConfiguration:
    with open(path, encoding="utf-8") as fh:
        return configuration_from_json(json.load(fh))
