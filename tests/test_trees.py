"""Plane rooted trees with delayed leaves and their plucking polynomials."""

import random

import pytest
import plucking_reference as R
from plucking_reference import plucking_by_definition

from catlattice import laurent as L
from catlattice import states as S
from catlattice import trees as T


def rand_tree(rng, depth, delays):
    if depth == 0 or rng.random() < 0.35:
        return T.Node((), rng.choice(delays))
    k = rng.randint(1, 3)
    return T.Node(tuple(rand_tree(rng, depth - 1, delays) for _ in range(k)))


def rand_plane_tree(rng, max_vertices, delays):
    """Vertex i hangs under a random earlier vertex, as its last child."""
    kids = [[] for _ in range(rng.randint(1, max_vertices))]
    for i in range(1, len(kids)):
        kids[rng.randrange(i)].append(i)

    def build(v):
        if not kids[v]:
            return T.Node((), rng.choice(delays))
        return T.Node(tuple(build(c) for c in kids[v]))

    return build(0)


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


# the parsed tree's text or the exact error message: where whitespace may
# go, how delay digits read and which position each error names
@pytest.mark.parametrize(
    "text, expected",
    [
        (" ( ( ) : 2 ) ", "(():2)"),
        ("(():2 )", "(():2)"),
        ("(() :2)", "(():2)"),
        ("(():  7)", "(():7)"),
        ("(():02)", "(():2)"),
        ("( )", "()"),
        ("(\t()\n)", "(())"),
        ("(():2:3)", "expected '(' at position 5 in tree text"),
        ("(():2 3)", "expected '(' at position 6 in tree text"),
        ("(() x", "expected '(' at position 4 in tree text"),
        ("((:2))", "expected '(' at position 2 in tree text"),
        (")", "expected '(' at position 0 in tree text"),
        ("", "expected '(' at position 0 in tree text"),
        ("(()))", "trailing text at position 4 in tree text"),
        ("((", "unbalanced '(' in tree text"),
        ("(():0)", "delay must be at least 1"),
        ("(()):2", "only leaves carry a delay"),
        ("((()):2)", "only leaves carry a delay"),
    ],
)
def test_parse_tree_edge_cases(text, expected):
    try:
        got = T.render_tree(T.parse_tree(text))
    except ValueError as e:
        got = str(e)
    assert got == expected


def _vertex_paths(t):
    out = [()]
    for path in out:
        out.extend(path + (k,) for k in range(len(T.subtree_at(t, path).children)))
    return out


def _counts(t):
    # (size, leaves, lo, hi) by recursion over the children
    if not t.children:
        return 1, 1, t.delay, t.delay
    below = [_counts(c) for c in t.children]
    return (
        1 + sum(b[0] for b in below),
        sum(b[1] for b in below),
        min(b[2] for b in below),
        max(b[3] for b in below),
    )


def test_stored_counts_match_their_recursive_definitions():
    rng = random.Random(31)
    for _ in range(300):
        t = rand_plane_tree(rng, 14, [1, 2, 3, 4])
        for path in _vertex_paths(t):
            v = T.subtree_at(t, path)
            assert (v.size, v.leaves, v.lo, v.hi) == _counts(v), T.render_tree(v)
    # an inner vertex whose leaves all wait: its own delay of 1 is no leaf's
    t = T.parse_tree("((():3():2)())")
    inner = t.children[0]
    assert (inner.size, inner.leaves, inner.lo, inner.hi) == (3, 2, 2, 3)
    assert (t.size, t.leaves, t.lo, t.hi) == (5, 3, 1, 3)


def test_counts_of_a_deep_path_need_no_recursion():
    p = T.path_tree(5000)
    assert p.size == 5001
    assert p.leaves == 1
    assert (p.lo, p.hi) == (1, 1)


def test_deep_text_parses_and_plucks_without_recursion():
    t = T.parse_tree("(" * 5000 + ")" * 5000)
    assert t.size == 5000
    assert t == T.path_tree(4999)
    assert T.pluckable_leaves(t) == [(0,) * 4999]
    assert T.plucking(t) == L.ONE


def test_path_tree():
    p = T.path_tree(3)
    assert T.render_tree(p) == "(((())))"
    assert p.size == 4
    assert p.leaves == 1
    assert T.plucking(p) == L.ONE
    assert T.plucking(T.path_tree(7)) == L.ONE


def test_one_leaf_trees_are_answered_without_plucking():
    # a path plucks its leaf down to the root (Q = 1) unless the leaf waits
    for depth in range(6):
        for delay in (1, 2, 3):
            t = T.Node((), delay)
            for _ in range(depth):
                t = T.Node((t,))
            assert T.plucking(t) == plucking_by_definition(t), T.render_tree(t)
    waiting = T.Node((), 3)
    for _ in range(5000):  # far past the recursion limit
        waiting = T.Node((waiting,))
    assert T.plucking(T.path_tree(5000)) == L.ONE
    assert T.plucking(waiting) == L.ZERO


def hung(t, k):
    """t below a root path of k vertices."""
    for _ in range(k):
        t = T.Node((t,))
    return t


def test_deep_trees_compare_without_recursion():
    # two separately built paths: the plucking memo compares them node by node
    a, b = hung(T.Node(), 3000), hung(T.Node(), 3000)
    assert a is not b and a == b
    assert T.plucking(a) == L.ONE
    assert T.plucking(b) == L.ONE
    assert a != hung(T.Node((), 2), 3000)
    assert a != hung(T.Node(), 2999)
    # equal stored hashes (forced here) do not hide a child missing at the end
    leaf = T.Node()
    short, long = T.Node((leaf,)), T.Node((leaf, leaf))
    object.__setattr__(short, "_hash", long._hash)
    assert short != long and long != short


def test_a_root_path_plucks_last():
    # Q(T) = Q(T_v), v the first vertex with two or more children
    rng = random.Random(47)
    checked = 0
    for _ in range(60):
        t = rand_tree(rng, 3, [1, 2, 3])
        if t.size > 14:
            continue  # the definition's cost grows fast with the size
        if not t.children and t.delay > 1:
            continue  # a lone leaf plucks to 1, a path ending in it to 0
        want = plucking_by_definition(t)
        # the identity holds for the definition itself, not only the library
        assert plucking_by_definition(hung(t, 1)) == want, T.render_tree(t)
        for k in (1, 2, 3):
            assert T.plucking(hung(t, k)) == want, T.render_tree(t)
        assert T.plucking(hung(t, 3000)) == want, T.render_tree(t)
        checked += 1
    assert checked > 40
    assert T.plucking(T.parse_tree("((():2))")) == L.ZERO
    assert T.plucking(T.parse_tree("():3")) == L.ONE


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
    # the parent that loses its last child becomes a leaf of delay 1, while
    # the old leaves tick down
    t = T.parse_tree("((())():3)")
    assert T.render_tree(T.pluck(t, (0, 0))) == "(()():2)"
    # empty, negative, out of range, a delayed leaf, an inner vertex, and a
    # path running past a leaf
    t = T.parse_tree("(():2(()()))")
    for path in [(), (-1,), (2,), (0,), (1,), (1, 0, 0)]:
        with pytest.raises(ValueError, match="leaf is not pluckable"):
            T.pluck(t, path)


def test_pluck_and_sites_match_the_former_walks():
    # differential against the copies in plucking_reference, which re-walk
    # the tree; equal values alone would not catch a moved site
    rng = random.Random(20261019)
    sites = 0
    for _ in range(2000):
        t = rand_plane_tree(rng, 13, [1, 2, 3, 4])
        got = T.find_splitting_subtree(t)
        assert got == R.find_splitting_subtree(t), T.render_tree(t)
        sites += got is not None
        assert T.pluckable_leaves(t) == R.pluckable_leaves(t)
        for path in R.pluckable_leaves(t):
            assert T.pluck(t, path) == R.pluck(t, path), (T.render_tree(t), path)
            assert T.right_count(t, path) == R.right_count(t, path)
    assert sites > 500, "sampling found too few splitting sites"


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


@pytest.mark.parametrize(
    "split",
    [
        T.Split((), 1, 1),  # an empty run: once a tree with an extra leaf
        T.Split((), 2, 1),  # a reversed run: once two extra leaves
        T.Split((), 0, 3),
        T.Split((), -1, 1),
        T.Split((2,), 0, 1),  # once a bare IndexError
        T.Split((-1,), 0, 1),
        T.Split((0,), 0, 1),  # a leaf has no children to split off
    ],
)
def test_split_sites_are_checked(split):
    cherry = T.parse_tree("(()())")
    for edit in (T.split_subtree, T.complementary_tree):
        with pytest.raises(ValueError, match="split site not in tree"):
            edit(cherry, split)


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


def test_edits_far_below_the_root_need_no_recursion():
    # a star with leaf delays (1, 1, 2) under a 3,000-vertex path: both
    # edits rebuild the path above the star in one loop
    star = T.Node((T.Node(), T.Node(), T.Node((), 2)))
    t, depth = hung(star, 3000), (0,) * 3000
    split = T.Split(depth, 0, 2)
    assert T.complementary_tree(t, split) == hung(
        T.Node((T.path_tree(1), T.Node((), 2))), 3000
    )
    assert T.pluck(t, depth + (0,)) == hung(T.Node((T.Node(), T.Node())), 3000)


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
    assert T.render_tree(T.arch_tree(C)) == "(()())"
    flipped = S.rotate_pi(C)
    with pytest.raises(ValueError, match="state has bottom returns"):
        T.tree_from_state(flipped)


def test_arch_tree_of_deep_nesting_needs_no_recursion():
    # the rainbow L_i-R_i of Cat(3000, 0): 3000 arches, each in the next
    m = 3000
    C = S.new_connection(m, 0, 0, [(("L", i), ("R", i)) for i in range(1, m + 1)])
    t = T.arch_tree(C)
    assert (t.size, t.leaves, t.lo, t.hi) == (m + 1, 1, 1, 1)
    assert T.tree_from_state(C) == t
    assert T.plucking(t) == L.ONE
