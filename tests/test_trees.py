"""Plane rooted trees with delayed leaves and their plucking polynomials."""

import random

import pytest
from plucking_reference import plucking_by_definition

from catlattice import laurent as L
from catlattice import states as S
from catlattice import trees as T


def rand_tree(rng, depth, delays):
    if depth == 0 or rng.random() < 0.35:
        return T.Node((), rng.choice(delays))
    k = rng.randint(1, 3)
    return T.Node(tuple(rand_tree(rng, depth - 1, delays) for _ in range(k)))


def test_node_validation():
    with pytest.raises(ValueError, match="delay must be at least 1"):
        T.Node((), 0)
    with pytest.raises(ValueError, match="only leaves carry a delay"):
        T.Node((T.Node(),), 2)


def test_render_parse_round_trip():
    rng = random.Random(5)
    for _ in range(300):
        t = rand_tree(rng, 3, [1, 2, 3, 4])
        assert T.parse_tree(T.render_tree(t)) == t
    assert T.render_tree(T.Node((), 3)) == "():3"
    assert T.parse_tree(" ( ( ) ( ) ) ") == T.Node((T.Node(), T.Node()))


def test_node_hash_is_the_field_hash():
    rng = random.Random(6)
    for _ in range(200):
        t = rand_tree(rng, 4, [1, 2, 3])
        assert hash(t) == hash((t.children, t.delay))
        u = T.parse_tree(T.render_tree(t))
        assert u == t and hash(u) == hash(t)
    # each node hashes its children's stored hashes, so depth costs no stack
    assert hash(T.path_tree(5000)) == hash(T.path_tree(5000))


@pytest.mark.parametrize(
    "bad, msg",
    [
        ("(()", "unbalanced '\\(' in tree text"),
        ("(())x", "trailing text at position 4 in tree text"),
        ("():a", "expected delay digits at position 3"),
        ("(():)", "expected delay digits at position 4"),
        ("[()]", "expected '\\(' at position 0 in tree text"),
    ],
)
def test_parse_tree_errors(bad, msg):
    with pytest.raises(ValueError, match=msg):
        T.parse_tree(bad)


def test_path_tree():
    p = T.path_tree(3)
    assert T.render_tree(p) == "(((())))"
    assert T.vertex_count(p) == 4
    assert T.leaf_count(p) == 1
    assert T.plucking(p) == L.ONE
    assert T.plucking(T.path_tree(7)) == L.ONE


def test_subtree_at_and_mirror():
    t = T.parse_tree("((())())")
    assert T.subtree_at(t, ()) == t
    assert T.render_tree(T.subtree_at(t, (0,))) == "(())"
    m = T.mirror(t)
    assert T.render_tree(m) == "(()(()))"
    assert T.mirror(m) == t


def test_star_plucking_is_a_q_factorial():
    star = T.Node((T.Node(), T.Node(), T.Node()))
    assert T.render_tree(star) == "(()()())"
    want = L.mul(L.q_binomial(2, 1), L.q_binomial(3, 1))
    assert T.plucking(star) == want
    assert T.plucking(star) == {0: 1, 1: 2, 2: 2, 3: 1}


def test_wedge_of_paths_is_a_q_binomial():
    for a in range(1, 5):
        for b in range(1, 5):
            w = T.ordered_rooted_sum(T.path_tree(a), T.path_tree(b))
            assert T.plucking(w) == L.q_binomial(a + b, a), (a, b)


def test_pluckable_leaves_skip_delays():
    star = T.Node((T.Node(), T.Node(), T.Node()))
    assert T.pluckable_leaves(star) == [(0,), (1,), (2,)]
    d = T.parse_tree("(():2())")
    assert T.pluckable_leaves(d) == [(1,)]
    # the root alone is never a pluckable leaf
    assert T.pluckable_leaves(T.Node()) == []


def test_right_count():
    star = T.Node((T.Node(), T.Node(), T.Node()))
    assert T.right_count(star, (0,)) == 2
    assert T.right_count(star, (1,)) == 1
    assert T.right_count(star, (2,)) == 0
    with pytest.raises(ValueError, match="the root is not a leaf"):
        T.right_count(star, ())
    nested = T.parse_tree("((()())())")
    with pytest.raises(ValueError, match="path does not end at a leaf"):
        T.right_count(nested, (0,))


def test_pluck():
    star = T.Node((T.Node(), T.Node(), T.Node()))
    assert T.render_tree(T.pluck(star, (0,))) == "(()())"
    d = T.parse_tree("(():2())")
    # plucking the free leaf ticks the delayed one down to 1
    assert T.render_tree(T.pluck(d, (1,))) == "(())"
    with pytest.raises(ValueError, match="leaf is not pluckable"):
        T.pluck(d, (0,))


def test_plucking_recursion_matches_direct_sum():
    # Q(T) = sum over pluckable leaves v of q^rc(v) * Q(T - v)
    rng = random.Random(23)
    for _ in range(60):
        t = rand_tree(rng, 3, [1, 1, 2])
        leaves = T.pluckable_leaves(t)
        if not leaves:
            continue
        total = L.ZERO
        for path in leaves:
            term = L.monomial_shift(T.plucking(T.pluck(t, path)),
                                    T.right_count(t, path))
            total = L.add(total, term)
        assert total == T.plucking(t), T.render_tree(t)


def test_plucking_mirror_invariance_without_delays():
    rng = random.Random(11)
    for _ in range(200):
        t = rand_tree(rng, 3, [1])
        assert T.plucking(t) == T.plucking(T.mirror(t))


def test_plucking_mirror_sensitivity_with_delays():
    # delays tie plucking order to the plane embedding
    t = T.parse_tree("(()(():3(():2())():3))")
    assert T.plucking(t) != T.plucking(T.mirror(t))


def test_splitting_subtree():
    star = T.Node((T.Node(), T.Node(), T.Node()))
    sp = T.find_splitting_subtree(star)
    assert sp == T.Split(path=(), start=0, stop=2)
    assert T.render_tree(T.split_subtree(star, sp)) == "(()())"
    assert T.render_tree(T.complementary_tree(star, sp)) == "((())())"
    assert T.find_splitting_subtree(T.path_tree(4)) is None


def test_split_product_identity():
    rng = random.Random(17)
    checked = 0
    for _ in range(150):
        t = rand_tree(rng, 3, [1, 1, 2])
        sp = T.find_splitting_subtree(t)
        if sp is None:
            continue
        lhs = plucking_by_definition(t)
        rhs = L.mul(
            plucking_by_definition(T.split_subtree(t, sp)),
            plucking_by_definition(T.complementary_tree(t, sp)),
        )
        assert lhs == rhs, T.render_tree(t)
        assert T.plucking(t) == lhs, T.render_tree(t)
        checked += 1
    assert checked > 40, "sampling found too few splittable trees"


def test_plucking_equals_the_definition():
    rng = random.Random(29)
    for _ in range(120):
        t = rand_tree(rng, 3, [1, 2])
        assert T.plucking(t) == plucking_by_definition(t), T.render_tree(t)


def test_spider_beyond_the_recursion():
    # 14 one-edge legs on a root: the q-multinomial [28; 2, ..., 2].  The
    # pluck recursion alone visits every sequence of up to 14 one- and
    # two-vertex legs; the splitting-subtree product peels one leg a step
    spider = T.Node(tuple(T.path_tree(1) for _ in range(14)))
    want = L.ONE
    for i in range(1, 15):
        want = L.mul(want, L.q_binomial(2 * i, 2))
    assert T.plucking(spider) == want


def test_tree_from_state():
    C = S.parse_state("cat(2,3): T1-L1, T2-T3, L2-B1, R1-B2, R2-B3")
    t = T.tree_from_state(C)
    assert T.render_tree(t) == "((((()()))))"
    flipped = S.rotate_pi(C)
    with pytest.raises(ValueError, match="state has bottom returns"):
        T.tree_from_state(flipped)
