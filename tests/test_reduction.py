import math
import random

import pytest

from trigroup import core, reduction
from trigroup.core import apply_generator
from trigroup.counting import list_by_height
from trigroup.orbit import orbit_vectors
from trigroup.reduction import (
    ReductionTrace,
    gcd_content,
    is_primitive,
    is_root,
    reduce_step,
    reduce_to_root,
    same_orbit,
)
from conftest import cusp_quadruple, random_quadruples


@pytest.mark.parametrize(
    "q,expected",
    [
        ((0, 1, 1, 1), True),
        ((1, 1, 0, 1), True),
        ((1, 1, 3, 4), False),
        ((0, 5, 5, 5), True),
        ((3, 1, 1, 1), False),
    ],
)
def test_is_root(q, expected):
    assert is_root(q) is expected


def test_reduce_step_worked_example():
    assert reduce_step((1, 1, 3, 4)) == ((1, 1, 3, 1), 4)
    assert reduce_step((1, 1, 3, 1)) == ((1, 1, 0, 1), 3)
    assert reduce_step((0, 2, 2, 2)) is None


def test_reduce_step_tie_breaks_lowest_index():
    # (3,1,1,1) -> apply at position 1; (1,3,3,1)? not valid, use a real tie
    q = (3, 4, 7, 1)
    step = reduce_step(q)
    assert step is not None
    _, i = step
    assert i == 3  # unique max
    # tie case: (2,2,2,0) has maximal entries at positions 1,2,3
    assert reduce_step((6, 2, 2, 2)) == ((0, 2, 2, 2), 1)


def test_reduce_to_root_worked_examples():
    trace = reduce_to_root((1, 1, 3, 4))
    assert trace.root == (1, 1, 0, 1)
    assert len(trace.steps) == 2

    trace = reduce_to_root((7, 4, 9, 1))
    assert [q for _, q in trace.steps] == [
        (7, 4, 3, 1),
        (1, 4, 3, 1),
        (1, 1, 3, 1),
        (1, 1, 0, 1),
    ]
    assert trace.root == (1, 1, 0, 1)

    trace = reduce_to_root((0, 3, 3, 3))
    assert trace.steps == ()
    assert trace.root == (0, 3, 3, 3)


def _stepwise(q):
    """The trace of q from iterated reduce_step: the oracle for the
    inline loop of reduce_to_root."""
    start, steps = q, []
    while (step := reduce_step(q)) is not None:
        q, i = step
        steps.append((i, q))
    return ReductionTrace(start=start, steps=tuple(steps), root=q)


def test_inline_loop_matches_reduce_step_on_census_rows():
    # every order of every quadruple of height <= 120, tied largest
    # entries included
    rows = tuple(list_by_height(120, "ordered"))
    assert sum(sorted(q)[2] == max(q) and not is_root(q) for q in rows) > 100
    for q in rows:
        assert reduce_to_root(q) == _stepwise(q), q


def test_inline_loop_matches_reduce_step_on_random_words():
    rng = random.Random(22)
    for _ in range(200):
        g = rng.randint(1, 50)
        word = [rng.randint(1, 4) for _ in range(rng.randint(0, 400))]
        for p in range(4):
            q = [g] * 4
            q[p] = 0
            q = tuple(q)
            for i in word:
                q = core._reflect(q, i)
            assert reduce_to_root(q) == _stepwise(q), (g, p, word)


def test_inline_loop_matches_reduce_step_on_cusp_words():
    assert cusp_quadruple(10**5) == (67500450001, 22500300001, 22500150001, 22500000000)
    for k in range(301):
        q = cusp_quadruple(k)
        trace = reduce_to_root(q)
        assert trace == _stepwise(q), k
        assert len(trace.steps) == 3 * k + (k > 0)
        assert trace.root == (1, 1, 1, 0)


def test_step_cap_bounds_the_loop(monkeypatch):
    # the cap is read at call time; 91 steps pass a cap of 100, 121 do not
    monkeypatch.setattr(reduction, "REDUCTION_STEP_CAP", 100)
    assert len(reduce_to_root(cusp_quadruple(30)).steps) == 91
    assert len(reduce_to_root(cusp_quadruple(33)).steps) == 100
    with pytest.raises(core.ResourceLimitError, match="100 steps"):
        reduce_to_root(cusp_quadruple(40))


def test_inline_loop_breaks_ties_to_the_lowest_index():
    # (7, 7, 3, 1) reflects a 7 to s - 14 = 4; the first 7 goes
    assert reduce_to_root((7, 7, 3, 1)).steps[0] == (1, (4, 7, 3, 1))
    assert reduce_to_root((3, 7, 1, 7)).steps[0] == (2, (3, 4, 1, 7))
    assert reduce_to_root((1, 3, 7, 7)).steps[0] == (3, (1, 3, 4, 7))


@pytest.mark.parametrize("q", [(0, 1, 1, 1), (5, 0, 5, 5), (9, 9, 0, 9), (2**70, 2**70, 2**70, 0)])
def test_root_input_takes_no_steps(q):
    trace = reduce_to_root(q)
    assert trace.steps == ()
    assert trace.root == trace.start == q


@pytest.mark.parametrize(
    "q,expected",
    [((0, 2, 2, 2), 2), ((1, 1, 3, 4), 1), ((12, 4, 4, 4), 4)],
)
def test_gcd_content(q, expected):
    assert gcd_content(q) == expected


def test_gcd_invariant_under_generators():
    for q in random_quadruples(60):
        g = gcd_content(q)
        for i in range(1, 5):
            assert gcd_content(apply_generator(q, i)) == g


def test_trace_sums_strictly_decrease():
    for q in random_quadruples(60, seed=5):
        trace = reduce_to_root(q)
        sums = [sum(trace.start)] + [sum(step) for _, step in trace.steps]
        assert all(a > b for a, b in zip(sums, sums[1:]))


def test_root_is_permuted_gcd_root():
    for q in random_quadruples(60, seed=6):
        trace = reduce_to_root(q)
        x = gcd_content(q)
        assert sorted(trace.root) == [0, x, x, x]
        assert is_root(trace.root)


def test_trace_replay_round_trip():
    # generators are involutions: replaying the trace indices in reverse
    # order from the root walks back to the start
    for q in random_quadruples(60, seed=7):
        trace = reduce_to_root(q)
        cur = trace.root
        for i, _ in reversed(trace.steps):
            cur = apply_generator(cur, i)
        assert cur == trace.start


def test_primitivity_and_orbit_classification():
    assert is_primitive((7, 4, 3, 1))
    assert not is_primitive((0, 2, 2, 2))
    assert same_orbit((7, 4, 3, 1), (0, 1, 1, 1))
    assert not same_orbit((0, 2, 2, 2), (0, 1, 1, 1))
    for q in random_quadruples(30, seed=8):
        assert same_orbit(q, tuple(sorted(q)))


def _root_mod_3(q):
    """The ordered root of q read off mod 3: (0, g, g, g), g = gcd(q),
    with the zero at the one entry of q / g that is 0 mod 3."""
    g = math.gcd(*q)
    zeros = [x // g % 3 == 0 for x in q]
    assert zeros.count(True) == 1, q
    return tuple(0 if zero else g for zero in zeros)


def test_ordered_root_is_read_off_mod_3():
    # reflection i changes entry i by s - 3 v_i, and 3 divides s, so q is
    # congruent mod 3 to its root
    census = tuple(list_by_height(120, "ordered"))
    assert len(census) == 10192
    for q in census + tuple(random_quadruples(200, seed=12, max_scale=9, max_steps=40)):
        assert _root_mod_3(q) == reduce_to_root(q).root, q


@pytest.mark.parametrize("start", [(0, 1, 1, 1), (2, 2, 0, 2), (7, 4, 3, 1)] + random_quadruples(3, seed=14), ids=str)
def test_orbit_vectors_keep_their_start_mod_3(start):
    for layer in orbit_vectors(start, 7).layers:
        for v in layer:
            assert all((x - y) % 3 == 0 for x, y in zip(v, start)), v


def test_root_pattern_equivalence():
    # definitional root test agrees with the (0,x,x,x)-permutation pattern
    for q in random_quadruples(80, seed=9):
        pattern = sorted(q)[:1] == [0] and len(set(sorted(q)[1:])) == 1
        assert is_root(q) is (pattern and sorted(q)[1] == math.gcd(*q))


def test_reduce_rejects_float_and_bool_entries():
    # both satisfy the quadruple equation; neither is an int quadruple
    for q in ((1.5, 1.5, 1.5, 0.0), (True, True, True, False)):
        for fn in (reduce_to_root, reduce_step, is_root):
            with pytest.raises(ValueError):
                fn(q)


@pytest.mark.parametrize("fn", [reduce_to_root, reduce_step, is_root])
def test_public_reductions_validate_once(monkeypatch, fn):
    q = (0, 1, 1, 1)
    for letter in (1, 2, 3, 4) * 5:
        q = apply_generator(q, letter)
    assert len(reduce_to_root(q).steps) == 20
    calls = []
    validate = core.validate_quadruple

    def counting_validate(q):
        calls.append(q)
        return validate(q)

    for module in (core, reduction):
        monkeypatch.setattr(module, "validate_quadruple", counting_validate)
    fn(q)
    assert calls == [q]
