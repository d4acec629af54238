"""The group as 2x2 Eisenstein matrices acting antilinearly on pairs.

An Eisenstein integer x + y*omega is the pair (x, y), with
omega^2 = -1 - omega, and N(x + y*omega) = x^2 - xy + y^2.  With the
triangle at 0, w and (1 + omega) w and the point at z, the spinor map

    phi(z, w) = (N(w), N(z), N(z - w), N(z - (1 + omega) w))

is a triangle quadruple for every pair (z, w).  Generator i acts on
pairs by v -> M_i conj(v), and phi carries that action to reflection i.
An element is a pair (A, a), acting by v -> A conj^a(v), where A is
taken modulo the six unit scalars, which phi cannot see; the product is
(A, a)(B, b) = (A conj^a(B), a xor b).
"""

ZERO, ONE, OMEGA = (0, 0), (1, 0), (0, 1)
OMEGA2 = (-1, -1)
UNITS = (ONE, OMEGA, OMEGA2, (-1, 0), (0, -1), (1, 1))


def add(p, q):
    return (p[0] + q[0], p[1] + q[1])


def sub(p, q):
    return (p[0] - q[0], p[1] - q[1])


def mul(p, q):
    (a, b), (c, d) = p, q
    return (a * c - b * d, a * d + b * c - b * d)


def conj(p):
    x, y = p
    return (x - y, -y)


def norm(p):
    x, y = p
    return x * x - x * y + y * y


def phi(z, w):
    return (norm(w), norm(z), norm(sub(z, w)), norm(sub(z, mul(add(ONE, OMEGA), w))))


# M_1 ... M_4, rows first
M = {
    1: ((ONE, ZERO), (sub(ONE, OMEGA), OMEGA)),
    2: ((ONE, sub(OMEGA, ONE)), (ZERO, OMEGA)),
    3: ((ONE, ZERO), (ZERO, OMEGA2)),
    4: ((ONE, ZERO), (ZERO, ONE)),
}


def act(i, v):
    """Generator i on the pair v = (z, w): M_i conj(v)."""
    v = tuple(map(conj, v))
    return tuple(add(mul(row[0], v[0]), mul(row[1], v[1])) for row in M[i])


def _mat_mul(a, b):
    return tuple(
        tuple(add(mul(a[i][0], b[0][j]), mul(a[i][1], b[1][j])) for j in range(2)) for i in range(2)
    )


def _mat_conj(m):
    return tuple(tuple(map(conj, row)) for row in m)


def _modulo_units(m):
    """The least of the six unit multiples of m, one representative per class."""
    return min(tuple(tuple(mul(u, e) for e in row) for row in m) for u in UNITS)


def compose(x, y):
    (a, a_bit), (b, b_bit) = x, y
    return (_modulo_units(_mat_mul(a, _mat_conj(b) if a_bit else b)), a_bit ^ b_bit)


IDENTITY_ELEMENT = (_modulo_units(M[4]), 0)
GENERATORS = tuple((_modulo_units(M[i]), 1) for i in (1, 2, 3, 4))


def element_layer_sizes(depth):
    """New elements per word length 0..depth, by a BFS over (A, a)."""
    seen = {IDENTITY_ELEMENT}
    layer = [IDENTITY_ELEMENT]
    sizes = [1]
    for _ in range(depth):
        nxt = []
        for x in layer:
            for g in GENERATORS:
                y = compose(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        sizes.append(len(nxt))
        layer = nxt
    return sizes
