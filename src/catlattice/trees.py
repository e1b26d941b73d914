"""Plane rooted trees with leaf delays and their plucking polynomials.

Text form: ``tree = '(' tree* ')' delay?`` where ``delay = ':' k`` may only
follow a leaf and defaults to 1.  ``()`` is a single vertex, ``(()())`` a
root with two leaf children (a cherry), ``((():3))`` a path whose leaf must
wait for two plucks elsewhere before it becomes removable.

The plucking polynomial Q(T) sums q^(right count) over all ways of
repeatedly plucking a currently-allowed leaf, where plucking ticks every
other leaf's delay down (never below 1) and a leaf is allowed when its
delay is 1.  :func:`plucking` strips the root path, Q(T) = Q(T_v) at the
first vertex v with two or more children, then factors at splitting
subtrees, Q(T) = Q(T') Q(T''), and sums over plucks only where no split
exists.  A run of sibling subtrees T' splits off when its greatest leaf
delay is at most the least leaf delay outside it.

Both identities rewrite a tree above one vertex: plucking a leaf drops it
and ticks every other leaf, and a split's complementary tree T'' puts a
bare path with as many vertices in place of T'.  One helper
(:func:`_respine`) makes both edits and rebuilds the path above the vertex
in one loop, so the vertex may lie at any depth.

Every node stores its counts at construction, from its children's:
vertex count ``size``, ``leaves``, and the least and greatest leaf delay
``lo`` and ``hi`` (an inner node's own delay of 1 is not a leaf delay).
So no question about a tree's size or delays walks it.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate
from typing import NamedTuple, Optional

from .laurent import Laurent, ONE, ZERO, add, monomial_shift, mul
from .states import _Value, _set, _shape, classify


class Node(_Value):
    """A vertex with its children in plane order and, if a leaf, a delay."""

    __slots__ = ("children", "delay", "_hash", "size", "leaves", "lo", "hi")
    __hash__ = _Value.__hash__  # defining __eq__ would otherwise unset it

    def __init__(self, children: tuple[Node, ...] = (), delay: int = 1):
        if delay < 1:
            raise ValueError("delay must be at least 1")
        if not children:
            size, leaves, lo, hi = 1, 1, delay, delay
        elif delay != 1:
            raise ValueError("only leaves carry a delay")
        else:
            size, leaves, lo, hi = 1, 0, children[0].lo, children[0].hi
            for c in children:
                size += c.size
                leaves += c.leaves
                if c.lo < lo:
                    lo = c.lo
                if c.hi > hi:
                    hi = c.hi
        _set(self, "children", children)
        _set(self, "delay", delay)
        # the plucking memo hashes every tree it meets, so each node keeps the
        # hash of (children, delay), built on its children's, as its counts are
        _set(self, "_hash", hash((children, delay)))
        _set(self, "size", size)
        _set(self, "leaves", leaves)
        _set(self, "lo", lo)
        _set(self, "hi", hi)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = [(self, other)]  # a loop, so trees of any depth compare
        for a, b in pairs:
            if a is not b:
                if (a._hash != b._hash or a.delay != b.delay
                        or len(a.children) != len(b.children)):
                    return False
                pairs.extend(zip(a.children, b.children))
        return True

    def __repr__(self):
        return f"Node({render_tree(self)!r})"

    def __reduce__(self):
        return Node, (self.children, self.delay)


Path = tuple[int, ...]


def render_tree(t: Node) -> str:
    if not t.children:
        return "()" if t.delay == 1 else f"():{t.delay}"
    return "(" + "".join(render_tree(c) for c in t.children) + ")"


def parse_tree(text: str) -> Node:
    i = 0

    def skip_ws():
        nonlocal i
        while i < len(text) and text[i].isspace():
            i += 1

    def node() -> Node:
        nonlocal i
        skip_ws()
        if i >= len(text) or text[i] != "(":
            raise ValueError(f"expected '(' at position {i} in tree text")
        i += 1
        kids = []
        while True:
            skip_ws()
            if i >= len(text):
                raise ValueError("unbalanced '(' in tree text")
            if text[i] == ")":
                i += 1
                break
            kids.append(node())
        delay = 1
        skip_ws()
        if i < len(text) and text[i] == ":":
            i += 1
            skip_ws()
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i:
                raise ValueError(f"expected delay digits at position {i}")
            delay = int(text[i:j])
            i = j
        return Node(tuple(kids), delay)  # checks the delay

    out = node()
    skip_ws()
    if i != len(text):
        raise ValueError(f"trailing text at position {i} in tree text")
    return out


def subtree_at(t: Node, path: Path) -> Optional[Node]:
    """The vertex at ``path``, or None if t has no such vertex."""
    for k in path:
        if not 0 <= k < len(t.children):
            return None
        t = t.children[k]
    return t


def mirror(t: Node) -> Node:
    if not t.children:
        return t
    return Node(tuple(mirror(c) for c in reversed(t.children)))


@lru_cache(maxsize=256)
def path_tree(k: int) -> Node:
    """A path with k edges; its single leaf has delay 1.  Cached: every
    complementary tree of the same size shares one chain."""
    t = Node()
    for _ in range(k):
        t = Node((t,))
    return t


def ordered_rooted_sum(t1: Node, t2: Node) -> Node:
    """Identify the two roots, t1's children first."""
    return Node(t1.children + t2.children)


def pluckable_leaves(t: Node) -> list[Path]:
    """Paths of the delay-1 leaves, in plane left-to-right order."""
    out: list[Path] = []

    def walk(node: Node, path: Path):
        if node.lo > 1:
            return
        if path and not node.children:
            out.append(path)
        for k, c in enumerate(node.children):
            walk(c, path + (k,))

    walk(t, ())
    return out


def right_count(t: Node, path: Path) -> int:
    """Vertices strictly to the right of the root-to-leaf path — the
    q-exponent contributed by plucking that leaf."""
    if not path:
        raise ValueError("the root is not a leaf")
    total = 0
    node = t
    for k in path:
        total += sum(c.size for c in node.children[k + 1 :])
        node = node.children[k]
    if node.children:
        raise ValueError("path does not end at a leaf")
    return total


def _ticked(t: Node) -> Node:
    """t with every leaf's delay one lower, never below 1."""
    if t.hi == 1:
        return t
    if not t.children:
        return Node((), t.delay - 1)
    return Node(tuple(_ticked(c) for c in t.children))


def _respine(t: Node, path: Path, start: int, stop: int, run, other) -> Node:
    """t with children[start:stop] of the vertex at ``path`` replaced by
    ``run``, and ``other`` applied to every other child of that vertex and
    of the vertices above it, which one loop rebuilds from the bottom up."""
    spine = [t]  # the vertices from the root down to the one at path
    for k in path:
        spine.append(spine[-1].children[k])
    cuts = [(k, k + 1) for k in path] + [(start, stop)]
    for node, (a, b) in zip(reversed(spine), reversed(cuts)):
        kids = node.children
        run = (Node((*map(other, kids[:a]), *run, *map(other, kids[b:]))),)
    return run[0]


def pluck(t: Node, path: Path) -> Node:
    """Remove a pluckable leaf and tick every other leaf's delay down.

    A vertex that loses its last child becomes a leaf of delay 1.
    """
    leaf = subtree_at(t, path)
    if not path or leaf is None or leaf.children or leaf.delay != 1:
        raise ValueError("leaf is not pluckable")
    k = path[-1]
    return _respine(t, path[:-1], k, k + 1, (), _ticked)


# -- factoring through splitting subtrees ---------------------------------


class Split(NamedTuple):
    """A factoring site: vertex ``path`` plus its children[start:stop]."""

    path: Path
    start: int
    stop: int


def _site(t: Node, split: Split) -> tuple[Node, ...]:
    """The run of children a split names; raises ValueError unless its
    path exists in t and 0 <= start < stop <= the vertex's child count."""
    v = subtree_at(t, split.path)
    if v is None or not 0 <= split.start < split.stop <= len(v.children):
        raise ValueError("split site not in tree")
    return v.children[split.start : split.stop]


def split_subtree(t: Node, split: Split) -> Node:
    """The factor T': the split vertex with the chosen run of children."""
    return Node(_site(t, split))


def complementary_tree(t: Node, split: Split) -> Node:
    """T with the split's children replaced by an equal-size bare path."""
    chain = path_tree(sum(c.size for c in _site(t, split)) - 1)
    return _respine(t, split.path, split.start, split.stop, (chain,), lambda c: c)


def find_splitting_subtree(t: Node) -> Optional[Split]:
    """First factoring site in breadth-first, widest-interval order.

    A site qualifies when every leaf inside waits no longer than any leaf
    outside (so the inside can be plucked clean first), and when taking it
    makes progress: at least two leaves inside and not the whole tree.
    Each queued vertex carries the least leaf delay outside it.
    """
    queue: list[tuple[Path, Node, float]] = [((), t, math.inf)]
    for path, node, outside in queue:
        if node.leaves < 2:
            continue  # no run below here holds two leaves
        kids = node.children
        k = len(kids)
        # least delay outside node or in kids[:i], and in kids[i:]
        before = list(accumulate((c.lo for c in kids), min, initial=outside))
        after = list(accumulate((c.lo for c in kids[::-1]), min, initial=math.inf))
        after.reverse()
        for width in range(k if path else k - 1, 0, -1):  # T' = T: no progress
            for start in range(k - width + 1):
                run = kids[start : start + width]
                least = min(before[start], after[start + width])
                if sum(c.leaves for c in run) > 1 and max(c.hi for c in run) <= least:
                    return Split(path, start, start + width)
        for j, c in enumerate(kids):
            queue.append((path + (j,), c, min(before[j], after[j + 1])))
    return None


def plucking(t: Node) -> Laurent:
    """The plucking polynomial Q(T) in the variable q.

    Q(T) = Q(T_v) at the first vertex v with two or more children (the root
    path plucks last, at q^0); below it Q(T) = Q(T') * Q(T'') at the first
    splitting subtree T' (T'' is its complementary tree); with no split,
    Q(T) sums q^(right count) * Q(T - v) over the pluckable leaves v.
    """
    return dict(_plucking(t))


@lru_cache(maxsize=4096)
def _plucking(t: Node) -> Laurent:
    """:func:`plucking`, one per distinct tree (shared between callers, so
    read only)."""
    if not t.children:  # a lone root, whatever its delay
        return dict(ONE)
    while len(t.children) == 1:
        t = t.children[0]
    if not t.children:  # a path: its leaf plucks down to the root, or never
        return dict(ONE if t.delay == 1 else ZERO)
    split = find_splitting_subtree(t)
    if split is not None:
        return mul(
            _plucking(split_subtree(t, split)),
            _plucking(complementary_tree(t, split)),
        )
    out = dict(ZERO)
    for path in pluckable_leaves(t):
        out = add(out, monomial_shift(_plucking(pluck(t, path)), right_count(t, path)))
    return out


#: Former name of :func:`plucking`, still called by the benchmark.
plucking_factored = plucking


# -- reading a tree off a Catalan state ------------------------------------


def arch_tree(C) -> Node:
    """T(C) below its root path: the vertex under the n strand vertices of
    :func:`tree_from_state`, with every arch below it.  That path plucks
    last, at q^0, so both trees have one plucking polynomial.

    Unfold the side points over the top: the clockwise word L_m..L_1,
    T_1..T_n, R_1..R_m becomes one top edge, so the state is arches over
    that word plus strands dropping to the bottom edge.  Each arch hangs
    under the arch directly enclosing it, else under this vertex, in word
    order; one pass makes its node when the walk meets its right end.  A
    leaf arch that was a side return starts with its lower end's index as
    its delay.
    """
    n, m = C.n, C.m
    if classify(C).bottom_returns:
        raise ValueError("state has bottom returns")
    points, mate = _shape(m, n, n)[0], C.mate
    first, size = 2 * n + m, 2 * m + n  # L_m's clockwise position; word length
    stack: list = [[]]  # children of this vertex, then of each open arch
    for a in range(size):
        k = (first + a) % len(points)
        b = (mate[k] - first) % len(points)
        if a < b < size:
            stack.append([])
        elif b < a:  # the arch from b closes (a strand's b is past the word)
            kids, (s, i), (t, j) = stack.pop(), points[k], points[mate[k]]
            delay = max(i, j) if s == t in ("L", "R") and not kids else 1
            stack[-1].append(Node(tuple(kids), delay))
    return Node(tuple(stack[0]))


def tree_from_state(C) -> Node:
    """The plane rooted tree T(C) of a Catalan state without bottom returns:
    :func:`arch_tree` below n strand vertices (deepest: leftmost bottom)."""
    node = arch_tree(C)
    for _ in range(C.n):
        node = Node((node,))
    return node
