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
splitting subtree exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

from .laurent import Laurent, ONE, ZERO, add, monomial_shift, mul

#: Child order used when a tree is built from a state: word order
#: (left-to-right along the unfolded top).  Flipping mirrors every level.
CHILDREN_LEFT_TO_RIGHT = True

#: Count vertices to the right of the root-to-leaf path (the calibrated
#: choice); flipping counts to the left.
COUNT_RIGHT_OF_PATH = True


@dataclass(frozen=True)
class Node:
    children: tuple["Node", ...] = ()
    delay: int = 1

    def __post_init__(self):
        if self.delay < 1:
            raise ValueError("delay must be at least 1")
        if self.children and self.delay != 1:
            raise ValueError("only leaves carry a delay")


EMPTY = Node()

Path = tuple[int, ...]


def render_tree(t: Node) -> str:
    if not t.children:
        return "()" if t.delay == 1 else f"():{t.delay}"
    return "(" + "".join(render_tree(c) for c in t.children) + ")"


def parse_tree(s: str) -> Node:
    text = s
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
            if kids:
                raise ValueError("only leaves carry a delay")
            if delay < 1:
                raise ValueError("delay must be at least 1")
        return Node(tuple(kids), delay)

    out = node()
    skip_ws()
    if i != len(text):
        raise ValueError(f"trailing text at position {i} in tree text")
    return out


def vertex_count(t: Node) -> int:
    return 1 + sum(vertex_count(c) for c in t.children)


def leaf_count(t: Node) -> int:
    if not t.children:
        return 1
    return sum(leaf_count(c) for c in t.children)


def subtree_at(t: Node, path: Path) -> Node:
    for k in path:
        t = t.children[k]
    return t


def mirror(t: Node) -> Node:
    if not t.children:
        return t
    return Node(tuple(mirror(c) for c in reversed(t.children)))


def path_tree(k: int) -> Node:
    """A path with k edges; its single leaf has delay 1."""
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
        if not node.children:
            if path and node.delay == 1:
                out.append(path)
            return
        for k, c in enumerate(node.children):
            walk(c, path + (k,))

    walk(t, ())
    return out


def right_count(t: Node, path: Path) -> int:
    """Vertices strictly to one side of the root-to-leaf path (right, by
    calibration) — the q-exponent contributed by plucking that leaf."""
    if not path:
        raise ValueError("the root is not a leaf")
    total = 0
    node = t
    for k in path:
        flank = node.children[k + 1 :] if COUNT_RIGHT_OF_PATH else node.children[:k]
        total += sum(vertex_count(c) for c in flank)
        node = node.children[k]
    if node.children:
        raise ValueError("path does not end at a leaf")
    return total


def pluck(t: Node, path: Path) -> Node:
    """Remove a pluckable leaf and tick every other leaf's delay down."""
    if path not in pluckable_leaves(t):
        raise ValueError("leaf is not pluckable")

    def rebuild(node: Node, p: Path) -> Optional[Node]:
        if not p:
            return None
        k = p[0]
        kids = list(node.children)
        replacement = rebuild(kids[k], p[1:])
        if replacement is None:
            del kids[k]
        else:
            kids[k] = replacement
        if kids:
            return Node(tuple(kids))
        # node just lost its last child: it becomes a fresh leaf
        return Node((), 1)

    stripped = rebuild(t, path)
    if stripped is None:
        return EMPTY

    # tick delays only on leaves that were already leaves before the pluck;
    # rebuild() marks the possibly-new leaf with delay 1, and ticking it
    # once more would be wrong, so locate it and protect it.
    parent_path = path[:-1]

    def tick(node: Node, p: Path, protected: Path) -> Node:
        if not node.children:
            if p == protected and subtree_at(t, p).children:
                return node
            return Node((), max(1, node.delay - 1))
        return Node(
            tuple(tick(c, p + (k,), protected) for k, c in enumerate(node.children))
        )

    return tick(stripped, (), parent_path)


# -- factoring through splitting subtrees ---------------------------------


class Split(NamedTuple):
    """A factoring site: vertex ``path`` plus its children[start:stop]."""

    path: Path
    start: int
    stop: int


def _delays(t: Node) -> list[int]:
    if not t.children:
        return [t.delay]
    out = []
    for c in t.children:
        out.extend(_delays(c))
    return out


def split_subtree(t: Node, split: Split) -> Node:
    """The factor T': the split vertex with the chosen run of children."""
    v = subtree_at(t, split.path)
    return Node(v.children[split.start : split.stop])


def complementary_tree(t: Node, split: Split) -> Node:
    """T with the split's children replaced by an equal-size bare path."""
    sub = split_subtree(t, split)
    chain = path_tree(vertex_count(sub) - 1)

    def rebuild(node: Node, p: Path) -> Node:
        if not p:
            kids = (
                node.children[: split.start]
                + chain.children
                + node.children[split.stop :]
            )
            return Node(kids) if kids else Node((), 1)
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
    """
    all_delays = sorted(_delays(t))
    queue: list[tuple[Path, Node]] = [((), t)]
    while queue:
        path, node = queue.pop(0)
        k = len(node.children)
        for width in range(k, 0, -1):
            for start in range(0, k - width + 1):
                stop = start + width
                if not path and width == k:
                    continue  # T' = T: no progress
                sub = Node(node.children[start:stop])
                if leaf_count(sub) < 2:
                    continue
                inside = sorted(_delays(sub))
                outside = list(all_delays)
                for d in inside:
                    outside.remove(d)
                if not outside or max(inside) <= min(outside):
                    return Split(path, start, stop)
        for k2, c in enumerate(node.children):
            queue.append((path + (k2,), c))
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
    from .states import classify, view

    n = C.n
    if classify(C).bottom_returns:
        raise ValueError("state has bottom returns")
    m = C.m
    points, mate = view(C).points, C.mate
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
        ordered = kids if CHILDREN_LEFT_TO_RIGHT else list(reversed(kids))
        return Node(tuple(build(kid) for kid in ordered))

    top = [build(r) for r in (roots if CHILDREN_LEFT_TO_RIGHT else reversed(roots))]
    node = Node(tuple(top)) if top or n == 0 else Node((), 1)
    for _ in range(n):
        node = Node((node,))
    return node
