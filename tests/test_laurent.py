"""Exact Laurent arithmetic over the integers."""

import math
import random

import pytest

from catlattice import laurent as L


def rand_poly(rng, span=6, terms=4):
    p = {}
    for _ in range(rng.randint(0, terms)):
        p[rng.randint(-span, span)] = rng.randint(-5, 5)
    return {e: c for e, c in p.items() if c}


def test_zero_and_one():
    assert L.is_zero(L.ZERO)
    assert not L.is_zero(L.ONE)
    assert L.ONE == {0: 1}
    assert L.monomial(3, 2) == {3: 2}
    assert L.monomial(5, 0) == {}


def test_ring_identities():
    rng = random.Random(20240817)
    for _ in range(300):
        p, q, r = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        assert L.add(p, q) == L.add(q, p)
        assert L.mul(p, q) == L.mul(q, p)
        assert L.add(L.add(p, q), r) == L.add(p, L.add(q, r))
        assert L.mul(L.mul(p, q), r) == L.mul(p, L.mul(q, r))
        assert L.mul(p, L.add(q, r)) == L.add(L.mul(p, q), L.mul(p, r))
        assert L.sub(p, p) == L.ZERO
        assert L.add(p, L.neg(p)) == L.ZERO
        assert L.mul(p, L.ONE) == p
        assert L.mul(p, L.ZERO) == L.ZERO


def test_power():
    base = {0: 1, 1: 1}
    assert L.power(base, 0) == L.ONE
    assert L.power(base, 3) == {0: 1, 1: 3, 2: 3, 3: 1}
    with pytest.raises(ValueError, match="negative power"):
        L.power(base, -1)


def test_degrees():
    p = {-3: 2, 5: -1}
    assert L.min_degree(p) == -3
    assert L.max_degree(p) == 5
    with pytest.raises(ValueError, match="zero polynomial has no degree"):
        L.min_degree(L.ZERO)
    with pytest.raises(ValueError, match="zero polynomial has no degree"):
        L.max_degree(L.ZERO)


def test_monomial_shift_and_star():
    p = {0: 1, 2: 3}
    assert L.monomial_shift(p, -2) == {-2: 1, 0: 3}
    # star normalization drops the polynomial to minimal degree zero
    assert L.star_normalize({-4: 1, 0: 2, 4: 1}) == {0: 1, 4: 2, 8: 1}
    assert L.star_normalize(L.ZERO) == L.ZERO


def test_substitute_power():
    p = {0: 1, 1: 2, 3: -1}
    assert L.substitute_power(p, -4) == {0: 1, -4: 2, -12: -1}
    assert L.substitute_power(L.substitute_power(p, -1), -1) == p
    with pytest.raises(ValueError, match="substitution exponent must be nonzero"):
        L.substitute_power(p, 0)


def test_q_binomial_recurrences():
    assert L.q_binomial(0, 0) == L.ONE
    assert L.q_binomial(4, -1) == L.ZERO
    assert L.q_binomial(4, 5) == L.ZERO
    assert L.q_binomial(4, 2) == {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}
    for n in range(9):
        for k in range(n + 1):
            b = L.q_binomial(n, k)
            # symmetry and the q-Pascal rule
            assert b == L.q_binomial(n, n - k)
            if 0 < k < n:
                lhs = L.add(
                    L.q_binomial(n - 1, k - 1),
                    L.monomial_shift(L.q_binomial(n - 1, k), k),
                )
                assert b == lhs
            # evaluation at q=1 gives the plain binomial
            import math

            assert sum(b.values()) == math.comb(n, k)


def test_q_binomial_of_a_long_row():
    # the triangle is walked row by row, so a long row needs no recursion
    b = L.q_binomial(3000, 3)
    assert sum(b.values()) == math.comb(3000, 3)
    assert L.max_degree(b) == 3 * 2997


def test_q_binomial_returns_copies():
    a = L.q_binomial(5, 2)
    a[0] += 100
    assert L.q_binomial(5, 2)[0] == 1


def test_div_exact():
    rng = random.Random(99)
    for _ in range(200):
        p, q = rand_poly(rng), rand_poly(rng)
        if L.is_zero(p) or L.is_zero(q):
            continue
        prod = L.mul(p, q)
        assert L.mul(L.div_exact(prod, p), p) == prod
    with pytest.raises(ValueError, match="division by zero polynomial"):
        L.div_exact(L.ONE, L.ZERO)
    with pytest.raises(ValueError, match="not divisible"):
        L.div_exact({0: 1, 1: 1}, {0: 2})


render_cases = {
    "zero": (L.ZERO, "0"),
    "one": ({0: 1}, "1"),
    "neg-one": ({0: -1}, "-1"),
    "bare-var": ({1: 1}, "A"),
    "neg-var": ({1: -1}, "-A"),
    "plain": ({-14: 1, -10: 3, 2: 3, 6: 1}, "A^-14 + 3*A^-10 + 3*A^2 + A^6"),
    "minus": ({0: 1, 2: -2}, "1 - 2*A^2"),
    "coef-one-power": ({5: 1}, "A^5"),
}


@pytest.mark.parametrize(
    "poly, text", render_cases.values(), ids=render_cases.keys()
)
def test_render(poly, text):
    assert L.render(poly) == text


def test_render_parse_round_trip():
    rng = random.Random(7)
    for _ in range(300):
        p = rand_poly(rng, span=9, terms=6)
        assert L.parse(L.render(p)) == p
    assert L.parse("1 + q", var="q") == {0: 1, 1: 1}
    assert L.parse("q^2", var="q") == {2: 1}


@pytest.mark.parametrize(
    "bad, msg",
    [
        ("", "empty polynomial text"),
        ("   ", "empty polynomial text"),
        ("A + *3", "bad term"),
        ("2**A", "bad term"),
        ("A^", "bad term"),
        ("q", "unexpected variable"),
    ],
)
def test_parse_errors(bad, msg):
    with pytest.raises(ValueError, match=msg):
        L.parse(bad)
