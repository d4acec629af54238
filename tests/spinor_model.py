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

The translation S1 S2 S1 S3 is a word of even length, so it acts
linearly, by T = M_1 conj(M_2) M_1 conj(M_3).  T = omega (I + N) with
N^2 = 0, so T^n = omega^n (I + n N) in closed form.
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


def apply(m, v):
    """The 2x2 matrix m on the pair v, linearly: m v."""
    return tuple(add(mul(row[0], v[0]), mul(row[1], v[1])) for row in m)


def act(i, v):
    """Generator i on the pair v = (z, w): M_i conj(v)."""
    return apply(M[i], tuple(map(conj, v)))


def _mat_mul(a, b):
    return tuple(
        tuple(add(mul(a[i][0], b[0][j]), mul(a[i][1], b[1][j])) for j in range(2)) for i in range(2)
    )


def _mat_conj(m):
    return tuple(tuple(map(conj, row)) for row in m)


def _mat_scale(u, m):
    return tuple(tuple(mul(u, e) for e in row) for row in m)


def _modulo_units(m):
    """The least of the six unit multiples of m, one representative per class."""
    return min(_mat_scale(u, m) for u in UNITS)


def translation():
    """T = M_1 conj(M_2) M_1 conj(M_3), the pair action of S1 S2 S1 S3."""
    return _mat_mul(_mat_mul(_mat_mul(M[1], _mat_conj(M[2])), M[1]), _mat_conj(M[3]))


def nilpotent_part():
    """N = omega^2 T - I, so that T = omega (I + N)."""
    (a, b), (c, d) = _mat_scale(OMEGA2, translation())
    return ((sub(a, ONE), b), (c, sub(d, ONE)))


def translation_power(n):
    """T^n in closed form, omega^n (I + n N): N^2 = 0, and omega is a scalar."""
    (a, b), (c, d) = (tuple((n * x, n * y) for x, y in row) for row in nilpotent_part())
    return _mat_scale((ONE, OMEGA, OMEGA2)[n % 3], ((add(ONE, a), b), (c, add(ONE, d))))


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
