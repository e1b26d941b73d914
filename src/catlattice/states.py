"""Noncrossing boundary connections of a rectangular grid.

A connection pairs up the boundary points of an m-row grid piece: top
points T1..Tn_t (left to right), bottom points B1..Bn_b (left to right),
left points L1..Lm and right points R1..Rm (both top to bottom).  Pairs
never cross inside the rectangle.  A *Catalan state* is a connection with
equal top and bottom width.

Text form (Catalan states only)::

    cat(1,2): T1-T2, L1-B1, R1-B2

Points are written T<i>, B<i>, L<i>, R<i>; pairs are listed in reading
order (top, left, right, then bottom points, index ascending), with the
earlier endpoint of each pair written first.

A connection is its shape plus ``mate``: ``mate[k]`` is the position of
the partner of the point at position k of :func:`boundary_points` order
(T1..Tn_t, R1..Rm, Bn_b..B1, Lm..L1, positions 0..N-1).  The pairs are
derived from it on each read, never stored: the text form and the repr
read them, and no engine path does.  Every connection goes through
:func:`_from_mate`, which checks ``mate``; :func:`new_connection` maps
outside pairs to positions.  Inside the module an arc is its two
positions: points appear only in text, public arguments and returned
pairs, ``_shape`` alone maps them to positions, and :func:`_arc` is the
one checked lookup of a point pair.

Boundary questions -- cut lines, the arc census, removable arcs, local
families, the tree of a state -- read ``mate`` against tables built once
per shape and indexed by clockwise position: each point's side bit, row
depth and column depth (:func:`_shape`) and side-walk levels
(:func:`_side_walks`).  A cut line is a stretch [a, b) of the clockwise
order, and the arcs it crosses are the arcs with exactly one end in the
stretch.  Horizontal cut i (below L_i and R_i) is the stretch
[n_t+i, n_t+2m+n_b-i), the positions of row depth above i, and vertical
cut j (right of T_j and B_j) is [j, 2n+m-j), those of column depth above
j, so one pass over the arcs gives the census and every cut count: the
cached :func:`view`.  The side-walk levels are prefix-summed multiset
ints (:func:`_level_prefix`, one uncached pass over ``mate``), so the
levels of any stretch are one subtraction.  The side walks are the
clockwise order cut at the right and the left side, so an arc has a
side-walk level only where its ends are clockwise neighbours.

Symmetries, tau-shifts, arc removal and the blocks between saturated
horizontal lines are relabellings of positions.  The half turn, the
quarter turn and the tau-shifts keep the clockwise order of the points,
and arc removal and the blocks keep it for the points they leave: each
reads the clockwise word from some position, skips the removed arcs, if
any, and lays the rest onto the positions of a new shape
(:func:`_relabel`).  The reflection reverses the order.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import accumulate
from operator import sub
from typing import AbstractSet, Iterator, NamedTuple, Optional

Point = tuple[str, int]
Pair = tuple[Point, Point]
_LEVEL_BITS = 2  # bits per level digit of a multiset int (see _side_walks)
_set = object.__setattr__  # how a value class sets its own fields


class _Value:
    """Immutable, with the hash of its fields stored in ``_hash``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


class Connection(_Value):
    """A noncrossing perfect matching of grid boundary points.

    Build through :func:`new_connection` (pairs of points) or
    :func:`_from_mate` (positions), which validate; the constructor itself
    trusts its arguments.  Immutable; stores the hash of its fields.

    Attributes:
        m: number of rows (points per vertical side).
        n_t: top width.
        n_b: bottom width.
        mate: ``mate[k]`` is the clockwise position of the partner of the
            point at position k of ``boundary_points(m, n_t, n_b)``.
    """

    __slots__ = ("m", "n_t", "n_b", "mate", "_hash")
    __hash__ = _Value.__hash__  # defining __eq__ would otherwise unset it

    def __init__(self, m: int, n_t: int, n_b: int, mate: tuple[int, ...]):
        _set(self, "m", m)
        _set(self, "n_t", n_t)
        _set(self, "n_b", n_b)
        _set(self, "mate", mate)
        _set(self, "_hash", hash((m, n_t, n_b, mate)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._hash == other._hash and self.mate == other.mate and (
            self.m, self.n_t, self.n_b) == (other.m, other.n_t, other.n_b)

    def __reduce__(self):
        return Connection, (self.m, self.n_t, self.n_b, self.mate)

    @property
    def pairs(self) -> tuple[Pair, ...]:
        """The matched pairs in reading order (top, left, right, then
        bottom points, index ascending), the earlier end of each first;
        derived from ``mate`` on each read."""
        points = _shape(self.m, self.n_t, self.n_b)[0]
        return tuple((points[k], points[j]) for k, j in _reading_arcs(self))

    @property
    def n(self) -> int:
        """Common width of a Catalan state."""
        if self.n_t != self.n_b:
            raise ValueError("connection is not a Catalan state")
        return self.n_t

    @property
    def is_catalan(self) -> bool:
        return self.n_t == self.n_b

    def __repr__(self):
        if self.is_catalan:
            return render_state(self)
        body = ", ".join(map(_arc_text, self.pairs))
        return f"conn({self.m},{self.n_t},{self.n_b}): {body}"


def boundary_points(m: int, n_t: int, n_b: int) -> list[Point]:
    """All boundary points in clockwise order starting at the top left."""
    out: list[Point] = [("T", i) for i in range(1, n_t + 1)]
    out += [("R", j) for j in range(1, m + 1)]
    out += [("B", i) for i in range(n_b, 0, -1)]
    out += [("L", j) for j in range(m, 0, -1)]
    return out


def _point_text(p: Point) -> str:
    return f"{p[0]}{p[1]}"


def _arc_text(arc: Pair) -> str:
    return f"{_point_text(arc[0])}-{_point_text(arc[1])}"


_SIDE_RANK = {"T": 0, "L": 1, "R": 2, "B": 3}
_SIDE_BIT = {"T": 1, "B": 2, "L": 4, "R": 8}  # an arc's kind: OR of its ends'
_CENSUS = (1, 2, 4, 8, 3)  # the kinds TT, BB, LL, RR and TB of a StateClass
_IMPROPER = 1 << 3 | 1 << 4 | 1 << 8  # TB, LL and RR, one bit per kind


def _rank(p: Point) -> tuple[int, int]:
    """Reading order used for the canonical pair list: T, L, R, then B."""
    return (_SIDE_RANK[p[0]], p[1])


@lru_cache(maxsize=256)
def _shape(m: int, n_t: int, n_b: int) -> tuple:
    """A shape's points in clockwise order, each point's position, the
    reading rank of each position, the positions in reading order, and
    (side, row, col), each position's side bit, row depth and column depth:
    row depth 0 on T, i on L_i and R_i, m + 1 on B; column depth 0 on L, i
    on T_i and B_i, past every column on R (read only)."""
    points = tuple(boundary_points(m, n_t, n_b))
    rank = tuple(_rank(p) for p in points)
    order = tuple(sorted(range(len(points)), key=rank.__getitem__))
    side = tuple(_SIDE_BIT[s] for s, _ in points)
    row = tuple({"T": 0, "B": m + 1}.get(s, i) for s, i in points)
    col = tuple({"L": 0, "R": n_t + n_b + 1}.get(s, i) for s, i in points)
    return points, {p: k for k, p in enumerate(points)}, rank, order, (side, row, col)


def _reading_arcs(C: Connection) -> Iterator[tuple[int, int]]:
    """The arcs of C as clockwise positions (k, j), in reading order of
    their earlier-read end k."""
    _, _, rank, order, _ = _shape(C.m, C.n_t, C.n_b)
    return ((k, C.mate[k]) for k in order if rank[k] < rank[C.mate[k]])


def _from_mate(m: int, n_t: int, n_b: int, mate) -> Connection:
    """The connection of an (m, n_t, n_b) shape with clockwise partner array
    ``mate``; raises ValueError unless ``mate`` is a noncrossing
    fixed-point-free involution of the shape's positions."""
    mate = tuple(mate)
    N = 2 * m + n_t + n_b
    # arcs nest iff each closing end meets the innermost open one
    stack: list[int] = []
    for k, j in enumerate(mate):
        if j > k:
            stack.append(k)
        elif not stack or stack.pop() != j or mate[j] != k:
            break
    else:
        if len(mate) == N and not stack:
            return Connection(m, n_t, n_b, mate)
    if len(mate) != N or any(
        not 0 <= j < N or j == k or mate[j] != k for k, j in enumerate(mate)
    ):
        raise ValueError(f"not a perfect matching of the {N} boundary points")
    # name the crossing with the first left end, as a scan would
    a, c = next((a, c) for a in range(N) for c in range(a + 1, mate[a])
                if mate[c] > mate[a])
    points = _shape(m, n_t, n_b)[0]
    ab, cd = (_arc_text((points[k], points[mate[k]])) for k in (a, c))
    raise ValueError(f"crossing pair {ab} / {cd}")


def new_connection(m: int, n_t: int, n_b: int, pairs) -> Connection:
    """Validate a set of pairs of points and build their Connection.

    Args:
        m: rows; n_t / n_b: top and bottom widths.
        pairs: iterable of 2-tuples of points.

    Raises:
        ValueError: on a negative size, an unknown point, a duplicate
            point, an unmatched point, or a crossing pair.
    """
    if min(m, n_t, n_b) < 0:
        raise ValueError(f"negative grid size in ({m}, {n_t}, {n_b})")
    points, pos = _shape(m, n_t, n_b)[:2]
    mate = [-1] * len(points)
    for p, q in pairs:
        for pt in (p, q):
            if pt not in pos:
                raise ValueError(f"unknown point {_point_text(pt)}")
            if mate[pos[pt]] >= 0:
                raise ValueError(f"duplicate point {_point_text(pt)}")
            mate[pos[pt]] = pos[pt]  # seen; the partner comes next
        mate[pos[p]], mate[pos[q]] = pos[q], pos[p]
    if -1 in mate:
        missing = points[mate.index(-1)]
        raise ValueError(f"unmatched point {_point_text(missing)}")
    return _from_mate(m, n_t, n_b, mate)


def render_state(C: Connection) -> str:
    """Canonical text form of a Catalan state."""
    if not C.is_catalan:
        raise ValueError("only Catalan states have a text form")
    body = ", ".join(map(_arc_text, C.pairs))
    return f"cat({C.m},{C.n_t}):" + (" " + body if body else "")


_STATE_HEAD = re.compile(r"^\s*cat\s*\(\s*(\d+)\s*,\s*(\d+)\s*\)\s*:\s*(.*?)\s*$", re.S)
_PAIR_RE = re.compile(r"^\s*([TBLR])\s*(\d+)\s*-\s*([TBLR])\s*(\d+)\s*$")


def parse_state(s: str) -> Connection:
    """Parse the ``cat(m,n): P-P, ...`` text form."""
    head = _STATE_HEAD.match(s)
    if not head:
        raise ValueError(f"state text must start with 'cat(m,n):', got {s!r}")
    m, n, tail = int(head.group(1)), int(head.group(2)), head.group(3)
    pairs = []
    if tail:
        for chunk in tail.split(","):
            pm = _PAIR_RE.match(chunk)
            if not pm:
                raise ValueError(f"bad pair {chunk.strip()!r} in state text")
            pairs.append(
                ((pm.group(1), int(pm.group(2))), (pm.group(3), int(pm.group(4))))
            )
    return new_connection(m, n, n, pairs)


def identity_state(n: int) -> Connection:
    """The Cat(0,n) state wiring Ti (position i-1) down to Bi (position 2n-i)."""
    if n < 0:
        raise ValueError(f"negative grid size in (0, {n}, {n})")
    return _from_mate(0, n, n, range(2 * n - 1, -1, -1))


def enumerate_catalan(m: int, n: int) -> Iterator[Connection]:
    """Yield every Catalan state of Cat(m,n) in a fixed lexicographic order.

    The order sorts by the canonical pair list under the clockwise position
    encoding: position lo meets each later position k it can, in turn, and
    [lo+1, k) and [k+1, hi) are matched alike; the count is Catalan(m+n).
    """
    if min(m, n) < 0:
        raise ValueError(f"negative grid size in ({m}, {n}, {n})")
    mate = [0] * (2 * (m + n))

    def match(lo: int, hi: int) -> Iterator[None]:  # fill mate on [lo, hi)
        if lo == hi:
            yield
            return
        for k in range(lo + 1, hi, 2):
            mate[lo], mate[k] = k, lo
            for _ in match(lo + 1, k):
                yield from match(k + 1, hi)

    for _ in match(0, len(mate)):
        yield _from_mate(m, n, n, mate)


def coordinate(p: Point, m: int, n: int) -> int:
    """Boundary coordinate used by the exponent-counting formulas.

    Right points R_i get i, left points L_i get 1-n-i, top points T_i get
    i-n; bottom points have no coordinate.
    """
    side, i = p
    if side == "R":
        return i
    if side == "L":
        return 1 - n - i
    if side == "T":
        return i - n
    raise ValueError("bottom point has no coordinate")


class StateClass(NamedTuple):
    """Arc census of a state (returns = arcs with both ends on one edge)."""

    top_returns: int
    bottom_returns: int
    left_returns: int
    right_returns: int
    top_bottom_arcs: int


class BoundaryView(NamedTuple):
    """Boundary data of one connection beyond its ``mate`` (see :func:`view`).

    ``census`` counts the arcs by the sides of their ends, and
    ``horizontal[i]`` and ``vertical[j]`` count the arcs crossing cut lines
    i and j; ``vertical`` is None unless the connection is a Catalan state.
    """

    census: StateClass
    horizontal: tuple[int, ...]
    vertical: Optional[tuple[int, ...]]


def _cut(C: Connection, orientation: str, i: int) -> tuple[int, int]:
    """The stretch [a, b) of clockwise positions on the far side of a cut."""
    if orientation == "horizontal":
        if not 0 <= i <= C.m:
            raise ValueError("line index out of range")
        return C.n_t + i, C.n_t + 2 * C.m + C.n_b - i
    if orientation == "vertical":
        n = C.n  # vertical cuts need a Catalan state
        if not 0 <= i <= n:
            raise ValueError("line index out of range")
        return i, 2 * n + C.m - i
    raise ValueError(f"unknown orientation {orientation!r}")


# one coefficient call asks about some ten distinct states
@lru_cache(maxsize=128)
def view(C: Connection) -> BoundaryView:
    """The clockwise boundary view of C (shared between callers, so read only).

    An arc crosses the cuts from the lesser depth of its ends up to, not
    including, the greater.  So cut i is crossed by the ends of depth at
    most i (n_t + 2i, or m + 2i) less twice the arcs of greater depth at
    most i, and one pass counts the arcs by greater depth (:func:`_shape`).
    """
    m, n_t, n_b, mate = C.m, C.n_t, C.n_b, C.mate
    side, row, col = _shape(m, n_t, n_b)[4]
    kinds = [0] * 13  # arcs by kind, the OR of two side bits
    rows = [0] * (m + 2)  # twice the arcs by greater row depth
    cols = [0] * (n_t + n_b + 2)
    for k, j in enumerate(mate):
        if k < j:
            kinds[side[k] | side[j]] += 1
            r, q = row[k], row[j]
            rows[r if r > q else q] += 2
            r, q = col[k], col[j]
            cols[r if r > q else q] += 2
    horizontal = tuple(map(sub, range(n_t, n_t + 2 * m + 1, 2), accumulate(rows)))
    vertical = None
    if C.is_catalan:
        vertical = tuple(map(sub, range(m, m + 2 * n_t + 1, 2), accumulate(cols)))
    census = StateClass(*(kinds[s] for s in _CENSUS))
    return BoundaryView(census, horizontal, vertical)


def _level_prefix(C: Connection) -> list[int]:
    """Prefix sums P of a Catalan state's side-walk levels (``unit`` of
    :func:`_side_walks`, keyed by each arc's clockwise-earlier end) along
    its doubled clockwise word: a stretch [a, b), b - a <= N, keys
    ``P[b] - P[a]``.  Not cached or stored on the state."""
    mate, N = C.mate, len(C.mate)
    unit = _side_walks(C.m, C.n)[2]
    # the one arc of a two-point state counts once, from 0
    keyed = [unit[k] if mate[k] == (k + 1) % N != k - 1 else 0 for k in range(N)]
    return list(accumulate(keyed + keyed, initial=0))


def line_intersections(C: Connection, orientation: str, i: int) -> int:
    """Number of arcs crossing a horizontal or vertical cut line.

    Horizontal line i (0 <= i <= m) separates the top edge plus the first
    i points of each vertical side; vertical line j (0 <= j <= n) separates
    the left edge plus the first j points of top and bottom.
    """
    _cut(C, orientation, i)  # rejects a bad line, and vertical non-Catalan cuts
    v = view(C)
    return (v.horizontal if orientation == "horizontal" else v.vertical)[i]


def is_realizable(C: Connection) -> bool:
    """Whether the state is reachable by smoothing an m x n crossing grid.

    True iff no interior horizontal line is crossed more than n times and
    no interior vertical line more than m times.
    """
    n, v = C.n, view(C)
    if any(k > n for k in v.horizontal[1 : C.m]):
        return False
    return all(k <= C.m for k in v.vertical[1:n])


def classify(C: Connection) -> StateClass:
    return view(C).census


def is_proper_arc(C: Connection, c: Pair) -> bool:
    """Proper arcs may be removed: no top-to-bottom strands, no side returns."""
    return not _IMPROPER >> (_SIDE_BIT[c[0][0]] | _SIDE_BIT[c[1][0]]) & 1


# -- symmetries ---------------------------------------------------------


def _relabel(
    C: Connection,
    start: int,
    m: int,
    n_t: int,
    n_b: int,
    at: int = 0,
    drop: AbstractSet[int] = frozenset(),
) -> Connection:
    """Lay C's clockwise word onto the positions of an (m, n_t, n_b) piece.

    The word is read from clockwise position ``start``, skipping the
    positions in ``drop`` (the ends of whole arcs), and goes to the new
    piece's positions from ``at`` on.  The order is kept, so arcs stay
    noncrossing; the result is still checked by :func:`_from_mate`.
    """
    N = len(C.mate)
    word = [k % N for k in range(start, start + N) if k % N not in drop]
    new = [0] * N  # old position -> new position
    for j, k in enumerate(word):
        new[k] = (at + j) % len(word)
    mate = [0] * len(word)
    for k in word:
        mate[new[k]] = new[C.mate[k]]
    return _from_mate(m, n_t, n_b, mate)


def _rainbow(mate, start: int, length: int) -> tuple[int, ...]:
    """``mate`` with the clockwise interval [start, start + length) re-matched
    as nested arches, the outermost joining its two ends."""
    N = len(mate)
    out = list(mate)
    for k in range(length):
        out[(start + k) % N] = (start + length - 1 - k) % N
    return tuple(out)


def rotate_pi(C: Connection) -> Connection:
    """Rotate the rectangle by a half turn (an involution)."""
    return _relabel(C, C.n_t + C.m, C.m, C.n_b, C.n_t)


def reflect(C: Connection) -> Connection:
    """Reflect across the vertical axis (an involution): the clockwise order
    reverses, position k going to n_t - 1 - k."""
    N = len(C.mate)
    mate = [0] * N
    for k, j in enumerate(C.mate):
        mate[(C.n_t - 1 - k) % N] = (C.n_t - 1 - j) % N
    return _from_mate(C.m, C.n_t, C.n_b, mate)


def rotate_quarter(C: Connection) -> Connection:
    """Rotate a Catalan state clockwise by a quarter turn: Cat(m,n) -> Cat(n,m)."""
    n = C.n
    return _relabel(C, 2 * n + C.m, n, C.m, C.m)


# -- gluing ------------------------------------------------------------------


def glue_vertical(C1: Connection, C2: Connection) -> tuple[Connection, int]:
    """Stack C1 on top of C2, joining C1's bottom to C2's top.

    Returns the glued connection together with the number of closed loops
    swallowed at the interface.  Widths must agree.
    """
    if C1.n_b != C2.n_t:
        raise ValueError("widths do not match")
    m1, m2, n_t, w, n_b = C1.m, C2.m, C1.n_t, C1.n_b, C2.n_b
    a, N = n_t + m1, n_t + 2 * (m1 + m2) + n_b
    # each piece's positions on the product, None on the interface: C1's T
    # and R keep theirs and its L close the word, C2's R, B and L follow
    # C1's R.  C1's B_i (at a + w - i) meets C2's T_i (at i - 1), so an
    # interface node j faces a + w - 1 - j in the other piece.
    outer = (
        [*range(a), *[None] * w, *range(N - m1, N)],
        [*[None] * w, *range(a, N - m1)],
    )
    mates = (C1.mate, C2.mate)
    touched = set()

    def walk(t: int, j: int) -> tuple[int, int]:
        """Follow a strand from node (t, j) of piece t through the interface
        to a product point, or round a loop back to a node passed before."""
        while outer[t][j] is None and (t, j) not in touched:
            touched.add((t, j))
            t, j = 1 - t, a + w - 1 - j
            touched.add((t, j))
            j = mates[t][j]
        return t, j

    mate = [-1] * N
    for t in (0, 1):
        for k, p in enumerate(outer[t]):
            if p is not None and mate[p] < 0:
                end, j = walk(t, mates[t][k])
                mate[p], mate[outer[end][j]] = outer[end][j], p
    loops = 0
    for j in range(a, a + w):
        if (0, j) not in touched:
            loops += 1
            walk(0, j)
    return _from_mate(m1 + m2, n_t, n_b, mate), loops


# -- sliding side points over the top edge --------------------------------


def tau_shift(C: Connection, t: int) -> Connection:
    """Slide t points of each side onto the top edge (t < 0 folds back down).

    Positive t turns the first t left points and first t right points into
    new top corners, giving a connection with m-t rows and top width
    n_t + 2t: the clockwise word read from L_t becomes the new one from T1.
    Negative t = -s folds the s outermost top points of each corner down
    the sides: the word read from T_(s+1) does.  The bottom edge never
    moves.
    """
    if t == 0:
        return C
    if t > 0:
        if t > C.m:
            raise ValueError("shift out of range")
        start = C.n_t + C.n_b + 2 * C.m - t
    else:
        if -2 * t > C.n_t:
            raise ValueError("shift out of range")
        start = -t
    return _relabel(C, start, C.m - t, C.n_t + 2 * t, C.n_b)


# -- arc removal ----------------------------------------------------------


def _arc(C: Connection, c) -> tuple[int, int]:
    """The clockwise positions (a < b) of the ends of c, a pair of points
    in either order; raises ValueError unless c is an arc of C."""
    pos = _shape(C.m, C.n_t, C.n_b)[1]
    p, q = c
    a, b = pos.get(p, -1), pos.get(q, -1)
    if a < 0 or C.mate[a] != b:  # no position is -1 or its own mate
        raise ValueError("arc not in state")
    return (a, b) if a < b else (b, a)


def remove_arc(C: Connection, c) -> Connection:
    """Delete a proper arc, absorbing one row: Cat(m,n) -> Cat(m-1,n).

    Read the clockwise view from the corner of the edge that stays fixed
    -- L_m (the bottom edge stays) for an arc with no bottom end, R_1 (the
    top edge stays) for one with a bottom end -- drop the arc's two points
    and lay the rest onto Cat(m-1,n) from its L_(m-1) or R_1.
    """
    if C.m == 0:
        raise ValueError("no rows left to absorb a removal")
    ends = _arc(C, c)
    if not is_proper_arc(C, c):
        raise ValueError("arc is not proper")
    return _remove(C, *ends)


def _remove(C: Connection, a: int, b: int) -> Connection:
    """C less its proper arc at positions a and b (see :func:`remove_arc`)."""
    n, m = C.n, C.m
    side = _shape(m, n, n)[4][0]
    if (side[a] | side[b]) & _SIDE_BIT["B"]:
        start, at = n, n
    else:
        start, at = 2 * n + m, 2 * n + m - 1
    return _relabel(C, start, m - 1, n, n, at, {a, b})


# -- extended labels and removability -------------------------------------


def extended_labels(C: Connection, c) -> tuple[int, int]:
    """Labels (a, b) writing a proper arc as joining L_a to R_b.

    The left and bottom edges extend the left-side numbering (top points
    count down from 0, bottom points continue past m); symmetrically for
    the right side.  a is the left-walk index of the end further left (the
    lesser column depth, see :func:`_shape`) and b the right-walk index of
    the other end.  Top-to-bottom strands and side returns are rejected.
    """
    ends = _arc(C, c)
    if not is_proper_arc(C, c):
        raise ValueError("arc has no extended labels")
    return _labels(C, *ends)


def _labels(C: Connection, a: int, b: int) -> tuple[int, int]:
    """The extended labels of C's proper arc at positions a and b."""
    col, (left, right, _) = _shape(C.m, C.n, C.n)[4][2], _side_walks(C.m, C.n)
    k, j = (a, b) if col[a] < col[b] else (b, a)  # k further left
    return left[k], right[j]


@lru_cache(maxsize=256)
def _side_walks(m: int, n: int) -> tuple[list, list, list]:
    """Side-walk data of Cat(m,n) by clockwise position k (read only).

    Each walk is the clockwise order cut at one vertical side, and has no
    index (None) there.  The left walk (cut at R) numbers Tn..T1 from 1-n
    to 0, then L1..Lm and B1..Bn from 1 to m+n; the right walk (cut at L)
    numbers T1..Tn from 1-n to 0, then R1..Rm and Bn..B1 from 1 to m+n.
    ``unit[k]`` holds the levels of an arc joining k to k+1, the lower of
    the two indices on each walk where they are consecutive (which drops a
    walk's wrap across an empty side), as a multiset int: level j counts in
    digit j + n of ``_LEVEL_BITS`` bits.  A level occurs at no more than two
    positions of a shape, once per walk, so no sum of stretches carries.
    """
    N = 2 * (m + n)
    left = [-k if k < n else None if k < n + m else N - k for k in range(N)]
    right = [k - n + 1 if k < 2 * n + m else None for k in range(N)]
    unit = []
    for k in range(N):
        ends = [(walk[k], walk[(k + 1) % N]) for walk in (left, right)]
        js = {min(u, w) for u, w in ends if None not in (u, w) and abs(u - w) == 1}
        unit.append(sum(1 << _LEVEL_BITS * (j + n) for j in js))
    return left, right, unit


def _removable(C: Connection, arcs) -> Iterator[tuple[int, int]]:
    """The removable arcs among ``arcs``, each the clockwise positions of
    the two ends of an arc of C in either order, yielded in their order.

    An arc c splits the other arcs into those strictly inside its clockwise
    interval and those outside.  The inside is c's bottom side when c has a
    bottom end or its interval covers the R_m/B_n corner, its top side
    otherwise.  c is removable when it is proper and every side-walk level
    on its top side is smaller (higher up) than every level on its bottom
    side, level 0 counting as top and level m as bottom (so nothing is
    removable at m=0).  Each side's levels are a difference of prefix sums
    (:func:`_level_prefix`); properness and the bottom end are read off
    the side bits of the ends.
    """
    m, n, D, bottom_bit = C.m, C.n, _LEVEL_BITS, _SIDE_BIT["B"]
    side = _shape(m, n, n)[4][0]
    P = _level_prefix(C)
    level_0, level_m = 1 << D * n, 1 << D * (m + n)  # level j is digit j + n
    for arc in arcs:
        a, b = arc
        if a > b:
            a, b = b, a
        kind = side[a] | side[b]
        if _IMPROPER >> kind & 1:
            continue
        top = P[b] - P[a + 1]
        # [a, b] holds the arc's own key: a, or N - 1 for the arc (0, N - 1)
        bottom = P[len(C.mate)] - (P[b + 1] - P[a])
        if kind & bottom_bit or a < n + m <= b:
            top, bottom = bottom, top
        bottom |= level_m
        # every top level lies below the digit of the lowest bottom level
        if not (top | level_0) >> D * (((bottom & -bottom).bit_length() - 1) // D):
            yield arc


def is_removable(C: Connection, c) -> bool:
    """Whether deleting c costs only a monomial factor.

    True when c is proper and the side-walk neighbours of every other arc
    can be swept to one region: everything that hugs the boundary above
    some level j0 sits on c's top side, everything below on its bottom
    side.
    """
    return C.m > 0 and any(_removable(C, [_arc(C, c)]))


def find_removable_arcs(C: Connection) -> list[Pair]:
    """All removable arcs, in canonical pair order: the scan that
    ``coeff.reduce_removable`` stops at its first hit, run to the end."""
    points = _shape(C.m, C.n, C.n)[0]
    return [(points[k], points[j]) for k, j in _removable(C, _reading_arcs(C))]


# -- saturated horizontal lines -------------------------------------------


def is_vertically_decomposable(C: Connection) -> Optional[int]:
    """Smallest i with n arcs crossing horizontal line i, if any (0..m)."""
    n = C.n
    return next((i for i, k in enumerate(view(C).horizontal) if k == n), None)


def _block(C: Connection, i0: int, i1: int) -> Connection:
    """Rows i0+1..i1 of C, between saturated horizontal lines i0 < i1: C's
    clockwise word from L_i0 (T1 if i0 = 0) laid onto Cat(i1 - i0, n) from
    T1, less the arcs with both ends above line i0 (row depth at most i0)
    or both below line i1.  The n arcs crossing each line keep both ends,
    the block's top or bottom points; the grid's own top and bottom edges
    stay in the outer blocks."""
    m, n, mate = C.m, C.n, C.mate
    row = _shape(m, n, n)[4][1]
    top = i0 if i0 else -1  # line 0 leaves the top edge in
    bottom = i1 if i1 < m else m + 1  # and line m the bottom edge
    drop = {k for k, j in enumerate(mate)
            if row[k] <= top and row[j] <= top or row[k] > bottom and row[j] > bottom}
    return _relabel(C, len(mate) - i0, i1 - i0, n, n, drop=drop)


def split_at(C: Connection, i: int) -> tuple[Connection, Connection]:
    """Cut along a saturated horizontal line into Cat(i,n) * Cat(m-i,n)."""
    n = C.n
    if line_intersections(C, "horizontal", i) != n:
        raise ValueError("line is not saturating")
    return _block(C, 0, i), _block(C, i, C.m)


def vertical_decompose(C: Connection) -> list[Connection]:
    """Indecomposable blocks between consecutive saturated interior lines."""
    n, m, counts = C.n, C.m, view(C).horizontal
    lines = [0, *(i for i in range(1, m) if counts[i] == n), m]
    if len(lines) == 2:
        return [C]
    return [_block(C, i0, i1) for i0, i1 in zip(lines, lines[1:])]
