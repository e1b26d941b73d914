"""Plane rooted trees with leaf delays and their plucking polynomials.

Text form: ``tree = '(' tree* ')' delay?`` where ``delay = ':' k`` may only
follow a leaf and defaults to 1.  ``()`` is a single vertex, ``(()())`` a
root with two leaf children (a cherry), ``((():3))`` a path whose leaf must
wait for two plucks elsewhere before it becomes removable.

The plucking polynomial Q(T) sums q^(right count) over all ways of
repeatedly plucking a currently-allowed leaf, where plucking ticks every
other leaf's delay down (never below 1) and a leaf is allowed when its
delay is 1.  :func:`plucking` evaluates it by factoring at splitting
subtrees, Q(T) = Q(T') Q(T''), and sums over plucks only where no
splitting subtree exists.  A run of sibling subtrees T' splits off when
its greatest leaf delay is at most the least leaf delay outside it.

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
        return (self._hash == other._hash and self.delay == other.delay
                and self.children == other.children)

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


def subtree_at(t: Node, path: Path) -> Node:
    for k in path:
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


def pluck(t: Node, path: Path) -> Node:
    """Remove a pluckable leaf and tick every other leaf's delay down.

    A vertex that loses its last child becomes a leaf of delay 1.
    """
    spine = [t]  # the vertices on the path, root first
    for k in path:
        kids = spine[-1].children
        if not 0 <= k < len(kids):
            raise ValueError("leaf is not pluckable")
        spine.append(kids[k])
    leaf = spine.pop()
    if not path or leaf.children or leaf.delay != 1:
        raise ValueError("leaf is not pluckable")
    below: tuple[Node, ...] = ()  # the rebuilt path child; none for the leaf
    for node, k in zip(reversed(spine), reversed(path)):
        kids = node.children
        left, right = map(_ticked, kids[:k]), map(_ticked, kids[k + 1 :])
        below = (Node((*left, *below, *right)),)
    return below[0]


# -- factoring through splitting subtrees ---------------------------------


class Split(NamedTuple):
    """A factoring site: vertex ``path`` plus its children[start:stop]."""

    path: Path
    start: int
    stop: int


def split_subtree(t: Node, split: Split) -> Node:
    """The factor T': the split vertex with the chosen run of children."""
    v = subtree_at(t, split.path)
    return Node(v.children[split.start : split.stop])


def complementary_tree(t: Node, split: Split) -> Node:
    """T with the split's children replaced by an equal-size bare path."""
    run = subtree_at(t, split.path).children[split.start : split.stop]
    chain = (path_tree(sum(c.size for c in run) - 1),)

    def rebuild(node: Node, p: Path) -> Node:
        if not p:
            kids = node.children
            return Node(kids[: split.start] + chain + kids[split.stop :])
        k = p[0]
        kids = list(node.children)
        kids[k] = rebuild(kids[k], p[1:])
        return Node(tuple(kids))

    return rebuild(t, split.path)


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

    Q(T) = Q(T') * Q(T'') at the first splitting subtree T' (T'' is its
    complementary tree); with no split, Q(T) sums q^(right count) * Q(T - v)
    over the pluckable leaves v.
    """
    return dict(_plucking(t))


@lru_cache(maxsize=4096)
def _plucking(t: Node) -> Laurent:
    """:func:`plucking`, one per distinct tree (shared between callers, so
    read only)."""
    if not t.children:
        return dict(ONE)
    if t.leaves == 1:  # a path: its leaf plucks down to the root, or never
        return dict(ONE if t.hi == 1 else ZERO)
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


def tree_from_state(C) -> Node:
    """Plane rooted tree of a Catalan state without bottom returns.

    Unfold the side points over the top: the clockwise word L_m..L_1,
    T_1..T_n, R_1..R_m becomes one top edge, so the state is arches over
    that word plus strands dropping to the bottom edge.  The strands form a
    path below the root (deepest strand = leftmost bottom point); every
    arch hangs under the deepest strand vertex, or under the arch directly
    enclosing it, keeping word order.  A leaf arch that was a side return
    of the original state starts with delay equal to its lower end's index.
    """
    n = C.n
    if classify(C).bottom_returns:
        raise ValueError("state has bottom returns")
    m = C.m
    points, mate = _shape(m, n, n)[0], C.mate
    first, size = 2 * n + m, 2 * m + n  # L_m's clockwise position; word length

    # arches by word position of their left end, grouped into a nesting
    # forest, children in word order
    roots: list = []
    stack: list = []  # (right end, delay, children)
    for a in range(size):
        k = (first + a) % len(points)
        b = (mate[k] - first) % len(points)
        if not a < b < size:
            continue
        p, q = points[k], points[mate[k]]
        rec = (b, max(p[1], q[1]) if p[0] == q[0] in ("L", "R") else 1, [])
        while stack and stack[-1][0] < a:
            stack.pop()
        if stack:
            stack[-1][2].append(rec)
        else:
            roots.append(rec)
        stack.append(rec)

    def build(rec) -> Node:
        _, delay, kids = rec
        if not kids:
            return Node((), delay)
        return Node(tuple(build(kid) for kid in kids))

    top = [build(r) for r in roots]
    node = Node(tuple(top)) if top or n == 0 else Node((), 1)
    for _ in range(n):
        node = Node((node,))
    return node
