"""Largest bracket exponent of a Catalan state and the grid realizing it.

For a realizable state without bottom returns, the top coefficient of its
bracket contribution comes from a unique row-sorted marker grid (each row
all +1s then all -1s); ``beta`` is that grid's +1 count and
``max_sequence`` its per-row counts.

Both read the boundary coordinates of the arcs' ends off their positions
in the clockwise word from L_m, the word :func:`trees.arch_tree` walks:
``states.coordinate`` defines the same numbers point by point.
"""

from __future__ import annotations

from .kauffman import smooth
from .states import Connection, classify, identity_state, is_realizable


def _check(C: Connection) -> None:
    if not is_realizable(C):
        raise ValueError("state is not realizable")
    if classify(C).bottom_returns:
        raise ValueError("state has bottom returns")


def _upper_arcs(C: Connection) -> list[tuple[int, int]]:
    """Coordinate pairs (p < q) of the arcs avoiding the bottom edge.

    The word L_m..L_1 T_1..T_n R_1..R_m B_n..B_1 starts at L_m's clockwise
    position 2n + m.  The point at index a of it has coordinate
    a + 1 - n - m, so R_m's is m and the bottom points read past it.
    """
    m, n, mate = C.m, C.n, C.mate
    N, first, shift = len(mate), 2 * n + m, 1 - n - m
    out = []
    for k, j in enumerate(mate):
        a, b = (k - first) % N + shift, (j - first) % N + shift
        if k < j and a <= m and b <= m:
            out.append((a, b) if a < b else (b, a))
    return out


def beta(C: Connection) -> int:
    """Largest exponent of A produced by any marker grid realizing C.

    INPUT: a realizable Catalan state without bottom returns.

    OUTPUT: m*n + m*(m-1)/2 + sum over bottom-avoiding arcs (p,q) of
    min(p, 1-q) in boundary coordinates.
    """
    _check(C)
    m, n = C.m, C.n
    total = m * n + m * (m - 1) // 2
    for a, b in _upper_arcs(C):
        total += min(a, 1 - b)
    return total


def max_sequence(C: Connection) -> tuple[int, ...]:
    """Per-row +1 counts (b_1..b_m) of the unique exponent-maximizing grid.

    Rows whose right-side point closes a high arc keep all n positive
    markers; each remaining row j, top to bottom, takes n + (j-1) + l,
    where l runs over the leftover arcs' smaller coordinates from the
    largest down.
    """
    _check(C)
    m, n = C.m, C.n
    arcs = _upper_arcs(C)
    if len(arcs) != m:
        raise AssertionError("bottom-avoiding arc count must equal m")
    full = [q for p, q in arcs if p + q >= 1]
    if any(not 1 <= q <= m for q in full):
        raise AssertionError("saturated rows must be right-side indices")
    if len(set(full)) != len(full):
        raise AssertionError("saturated rows must be distinct")
    saturated = set(full)
    rest_rows = [j for j in range(1, m + 1) if j not in saturated]
    rest_left = sorted((p for p, q in arcs if p + q < 1), reverse=True)
    if len(rest_rows) != len(rest_left):
        raise AssertionError("row/arc bookkeeping mismatch")
    b = {j: n for j in saturated}
    for j, left in zip(rest_rows, rest_left):
        b[j] = n + (j - 1) + left
    counts = tuple(b[j] for j in range(1, m + 1))
    if any(not 0 <= v <= n for v in counts):
        raise AssertionError("row count out of range")
    return counts


def row_sorted_grid(b, n: int):
    """Marker grid with b_j leading +1s in row j, -1s after."""
    rows = []
    for bj in b:
        if not 0 <= bj <= n:
            raise ValueError("row count out of range")
        rows.append(tuple([1] * bj + [-1] * (n - bj)))
    return tuple(rows)


def sequence_realizes(b, m: int, n: int) -> Connection:
    """State smoothed from the row-sorted grid with +1 counts b."""
    if len(b) != m:
        raise ValueError("need one count per row")
    if m == 0:
        return identity_state(n)
    return smooth(row_sorted_grid(b, n)).state
