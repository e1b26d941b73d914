"""Earlier forms of ``states`` code, kept for the tests.

``vertical_product`` and its absorbing zero ``K0`` stack two states, and
the tests use them as the inverse of ``split_at`` and
``vertical_decompose`` and to build decomposable states; no library path
needs them.

``split_at`` is the cut at a saturated line as it was before every block
became one relabelling (``states._block``): hand-built index arithmetic
that lays the two sides of the line onto two new partner arrays.

``view`` is the boundary view as it was before the per-shape depth table:
a scan of each stretch per cut line and a census of side-letter strings.
``find_removable_arcs``, ``extended_labels`` and ``remove_arc`` are the
removable-arc trio that ``coeff.reduce_removable`` (here as it was) called
before it became one first-hit scan over positions: every removable arc
listed to use the first, a set of side letters for properness
(``is_proper_arc``) and three lookups of the arc.  The bodies are kept unchanged but for the docstrings,
``_shape(...)[:4]`` and the level scan of ``levels_reference._removable``
in place of the prefix sums.
"""

from catlattice.laurent import monomial
from catlattice.states import (
    BoundaryView,
    Connection,
    Pair,
    StateClass,
    _arc,
    _cut,
    _from_mate,
    _relabel,
    _shape,
    _side_walks,
    glue_vertical,
    line_intersections,
)
from levels_reference import _removable


class _Zero:
    """Absorbing zero for the vertical product (loop or width mismatch)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "K0"


K0 = _Zero()


def vertical_product(C1, C2):
    """Stack two states; K0 absorbs width mismatches and closed loops."""
    if C1 is K0 or C2 is K0:
        return K0
    if C1.n_b != C2.n_t:
        return K0
    glued, loops = glue_vertical(C1, C2)
    return K0 if loops else glued


def split_at(C: Connection, i: int) -> tuple[Connection, Connection]:
    """Cut along a saturated horizontal line into Cat(i,n) * Cat(m-i,n)."""
    n = C.n
    if line_intersections(C, "horizontal", i) != n:
        raise ValueError("line is not saturating")
    a, b = _cut(C, "horizontal", i)
    mate, N = C.mate, len(C.mate)
    # above the line T1..Tn and R1..R_i keep their positions, Bn..B1 follow
    # and L_i..L1 close the word; below it the stretch follows T1..Tn
    up = [k if k < a else k - b + a + n for k in range(N)]
    upper, lower = [0] * (N - b + a + n), [0] * (b - a + n)
    # the upper ends of the crossing arcs, read clockwise from L_i round to
    # R_i, meet B1..Bn above the line and T1..Tn below it
    j = 0
    for k in [*range(b, N), *range(a)]:
        if a <= mate[k] < b:
            upper[up[k]], upper[a + n - 1 - j] = a + n - 1 - j, up[k]
            lower[mate[k] - a + n], lower[j] = j, mate[k] - a + n
            j += 1
        else:
            upper[up[k]] = up[mate[k]]
    for k in range(a, b):
        if a <= mate[k] < b:
            lower[k - a + n] = mate[k] - a + n
    return _from_mate(i, n, n, upper), _from_mate(C.m - i, n, n, lower)


def _cut_counts(mate: tuple[int, ...], a: int, b: int, lines: int) -> tuple[int, ...]:
    """Arcs with exactly one end in each stretch [a+i, b-i), i = 0..lines.

    Dropping an end point from the stretch turns its arc from crossing
    into outside, or from inside into crossing.
    """
    out = [sum(1 for k in range(a, b) if not a <= mate[k] < b)]
    for i in range(1, lines + 1):
        lo, hi = a + i, b - i  # the stretch loses lo - 1, then hi
        step = 1 if lo <= mate[lo - 1] <= hi else -1
        step += 1 if lo <= mate[hi] < hi else -1
        out.append(out[-1] + step)
    return tuple(out)


def view(C: Connection) -> BoundaryView:
    """The clockwise boundary view of C."""
    m, n_t, mate = C.m, C.n_t, C.mate
    vertical = None
    if C.is_catalan:
        vertical = _cut_counts(mate, *_cut(C, "vertical", 0), n_t)
    points = _shape(m, n_t, C.n_b)[0]
    # T comes first clockwise, so a top-to-bottom arc reads "TB"
    kinds = [points[k][0] + points[j][0] for k, j in enumerate(mate) if k < j]
    census = StateClass(*(kinds.count(k) for k in ("TT", "BB", "LL", "RR", "TB")))
    horizontal = _cut_counts(mate, *_cut(C, "horizontal", 0), m)
    return BoundaryView(census, horizontal, vertical)


def is_proper_arc(C: Connection, c: Pair) -> bool:
    """Proper arcs may be removed: no top-to-bottom strands, no side returns."""
    sides = {c[0][0], c[1][0]}
    if sides == {"T", "B"}:
        return False
    if sides == {"L"} or sides == {"R"}:
        return False
    return True


def remove_arc(C: Connection, c) -> Connection:
    """Delete a proper arc, absorbing one row: Cat(m,n) -> Cat(m-1,n)."""
    n, m = C.n, C.m
    if m == 0:
        raise ValueError("no rows left to absorb a removal")
    ends = _arc(C, c)
    if not is_proper_arc(C, c):
        raise ValueError("arc is not proper")
    if "B" in (c[0][0], c[1][0]):
        start, at = n, n
    else:
        start, at = 2 * n + m, 2 * n + m - 1
    return _relabel(C, start, m - 1, n, n, at, ends)


def extended_labels(C: Connection, c) -> tuple[int, int]:
    """Labels (a, b) writing a proper arc as joining L_a to R_b."""
    m, n = C.m, C.n
    ends = _arc(C, c)
    if not is_proper_arc(C, c):
        raise ValueError("arc has no extended labels")
    x = {"L": 0, "R": n + 1}
    points = _shape(m, n, n)[0]
    k, j = sorted(ends, key=lambda e: x.get(points[e][0], points[e][1]))
    left, right, _ = _side_walks(m, n)
    return left[k], right[j]


def find_removable_arcs(C: Connection) -> list[Pair]:
    """All removable arcs, in canonical pair order."""
    points, _, rank, order = _shape(C.m, C.n, C.n)[:4]
    ends = [(k, C.mate[k]) for k in order if rank[k] < rank[C.mate[k]]]
    return [(points[k], points[j]) for k, j in _removable(C, ends)]


def reduce_removable(C: Connection):
    """The first removable-arc rewrite through the trio: (monomial factor,
    reduced state, arc), or None."""
    arcs = find_removable_arcs(C)
    if not arcs:
        return None
    c = arcs[0]
    a, b = extended_labels(C, c)
    return monomial(b - a), remove_arc(C, c), c

