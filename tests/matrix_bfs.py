"""The group as exact 4x4 matrices: a BFS oracle for trigroup.orbit.

The library counts group elements as the orbit of (1, 1, 1, 1); these
helpers count them as deduplicated products of the generator matrices,
with no vector representation involved.
"""

from trigroup.core import IDENTITY, generator_matrix, mat_mul, mat_vec


def element_layers(generators, max_depth):
    """BFS layers of the group generated by involutive matrices.

    Layer n holds the exact matrices at word length n, sorted.  Every
    generator is an involution, so a product formed from a depth-n
    element can only coincide with elements at depth n-1, n or n+1.
    """
    layers = [[IDENTITY]]
    prev, cur = set(), {IDENTITY}
    for _ in range(max_depth):
        nxt = set()
        for m in cur:
            for g in generators:
                candidate = mat_mul(m, g)
                if candidate not in prev and candidate not in cur:
                    nxt.add(candidate)
        layers.append(sorted(nxt))
        prev, cur = cur, nxt
    return layers


def all_generators():
    return tuple(generator_matrix(i) for i in (1, 2, 3, 4))


def word_matrix(word):
    """Product of generator matrices in the written order."""
    result = IDENTITY
    for letter in word:
        result = mat_mul(result, generator_matrix(letter))
    return result


def smallest_reduced_words(max_depth):
    """Per length n, each group matrix of length n mapped to its
    lexicographically smallest reduced word, letters in the written order.

    Such a word ends in some letter l after the smallest word of m g_l,
    so keeping the smallest extension of each parent's word suffices.
    """
    gens = [(i, generator_matrix(i)) for i in (1, 2, 3, 4)]
    layers = [{IDENTITY: ()}]
    prev = {}
    for _ in range(max_depth):
        cur, nxt = layers[-1], {}
        for m, word in cur.items():
            for letter, g in gens:
                candidate = mat_mul(m, g)
                if candidate in prev or candidate in cur:
                    continue
                cand_word = word + (letter,)
                seen = nxt.get(candidate)
                if seen is None or cand_word < seen:
                    nxt[candidate] = cand_word
        layers.append(nxt)
        prev = cur
    return layers


def max_norm_profile(max_n, root):
    """Per-length (max entry of m r, sorted lexicographically smallest
    reduced words attaining it) over the matrices m of each length."""
    profile = []
    for layer in smallest_reduced_words(max_n):
        norms = {m: max(mat_vec(m, root)) for m in layer}
        best = max(norms.values())
        profile.append((best, sorted(word for m, word in layer.items() if norms[m] == best)))
    return profile


def det4(m):
    """Determinant by cofactor expansion; exact."""

    def det3(r):
        (a, b, c), (d, e, f), (g, h, i) = r
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)

    total = 0
    for j in range(4):
        minor = tuple(
            tuple(m[r][col] for col in range(4) if col != j) for r in range(1, 4)
        )
        total += (-1) ** j * m[0][j] * det3(minor)
    return total
