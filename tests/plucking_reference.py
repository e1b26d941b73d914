"""The plucking polynomial by its recursive definition, for the tests.

Q(T) sums q^(right count of v) * Q(T - v) over the pluckable leaves v, with
Q(single vertex) = 1.  The library's ``trees.plucking`` factors at
splitting subtrees instead; this copy never does, so identities such as
Q(T) = Q(T') Q(T'') are checked against the definition rather than against
the evaluator that uses them.  It has its own memo.

The tree walks below are kept as they were before nodes stored their
counts: they re-walk the tree for every size and delay, and share only
``Node`` with the library.  ``find_splitting_subtree`` here is the
library's former site search, kept as a differential reference.
"""

from typing import Optional

from catlattice.laurent import ONE, ZERO, add, monomial_shift
from catlattice.trees import Node, Split

EMPTY = Node()


def vertex_count(t):
    return 1 + sum(vertex_count(c) for c in t.children)


def leaf_count(t):
    if not t.children:
        return 1
    return sum(leaf_count(c) for c in t.children)


def subtree_at(t, path):
    for k in path:
        t = t.children[k]
    return t


def pluckable_leaves(t):
    """Paths of the delay-1 leaves, in plane left-to-right order."""
    out = []

    def walk(node, path):
        if not node.children:
            if path and node.delay == 1:
                out.append(path)
            return
        for k, c in enumerate(node.children):
            walk(c, path + (k,))

    walk(t, ())
    return out


def right_count(t, path):
    """Vertices strictly to the right of the root-to-leaf path (the
    calibrated side)."""
    if not path:
        raise ValueError("the root is not a leaf")
    total = 0
    node = t
    for k in path:
        total += sum(vertex_count(c) for c in node.children[k + 1 :])
        node = node.children[k]
    if node.children:
        raise ValueError("path does not end at a leaf")
    return total


def pluck(t, path):
    """Remove a pluckable leaf and tick every other leaf's delay down."""
    if path not in pluckable_leaves(t):
        raise ValueError("leaf is not pluckable")

    def rebuild(node, p):
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

    def tick(node, p, protected):
        if not node.children:
            if p == protected and subtree_at(t, p).children:
                return node
            return Node((), max(1, node.delay - 1))
        return Node(
            tuple(tick(c, p + (k,), protected) for k, c in enumerate(node.children))
        )

    return tick(stripped, (), parent_path)


def _delays(t):
    if not t.children:
        return [t.delay]
    out = []
    for c in t.children:
        out.extend(_delays(c))
    return out


def find_splitting_subtree(t) -> Optional[Split]:
    """First factoring site in breadth-first, widest-interval order."""
    all_delays = sorted(_delays(t))
    queue = [((), t)]
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


_MEMO = {}


def plucking_by_definition(t):
    got = _MEMO.get(t)
    if got is not None:
        return dict(got)
    if not t.children:
        out = dict(ONE)
    else:
        out = dict(ZERO)
        for path in pluckable_leaves(t):
            term = monomial_shift(
                plucking_by_definition(pluck(t, path)), right_count(t, path)
            )
            out = add(out, term)
    _MEMO[t] = dict(out)
    return out
