"""Brute-force bracket expansion of an m x n grid of crossings.

Every crossing carries a +1 or -1 marker; smoothing each crossing by its
marker turns the grid into a boundary connection plus closed loops.  The
weighted sum over all 2^(mn) marker grids is the reference ("oracle")
value every shortcut in this package is checked against.

The sum is built by a transfer-matrix fold that visits the crossings in
reading order, two smoothings each.  Its state is the frontier between
visited and unvisited crossings -- n column ports plus one horizontal
port, each holding its mate's slot index or the code of the finished
boundary point its strand ends at -- together with the strands already
closed between finished points.  ``bracket_table`` keeps every frontier;
``oracle_coefficient`` looks a state's key up in the cached fold of its
shape; ``bracket_coefficient_at`` drops the frontiers that can no longer
end at its target, and keeps its recent answers in a bounded per-state
cache (``_pruned_fold``), since local-family companions repeat.
``bracket_table_by_enumeration`` is the 2^(mn) sum.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import NamedTuple

from .laurent import (
    Laurent,
    ONE,
    ZERO,
    add,
    monomial,
    monomial_shift,
    mul,
    substitute_power,
)
from .states import (
    Connection,
    Point,
    _from_mate,
    boundary_points,
    new_connection,
    rotate_quarter,
)

MarkerGrid = tuple[tuple[int, ...], ...]

#: Bracket weight of one closed loop.
LOOP_WEIGHT: Laurent = {-2: -1, 2: -1}

#: Smoothing convention: a +1 marker joins north-east and south-west tile
#: ports (so -1 joins north-west and south-east).  Flipping this swaps the
#: roles of the two markers everywhere; calibration tests pin the choice.
POSITIVE_JOINS_EAST = True

DEFAULT_BUDGET_BITS = 20


class BudgetError(Exception):
    """A request would enumerate more than 2^budget marker grids."""


class Resolution(NamedTuple):
    state: Connection
    loops: int


def _budget(budget_bits) -> int:
    if budget_bits is not None:
        return budget_bits
    raw = os.environ.get("ORACLE_BUDGET_BITS")
    if raw is None:
        return DEFAULT_BUDGET_BITS
    try:
        return int(raw)
    except ValueError:
        raise ValueError(
            f"ORACLE_BUDGET_BITS must be an integer, got {raw!r}"
        ) from None


def _check_budget(m: int, n: int, budget_bits) -> None:
    budget = _budget(budget_bits)
    if m * n > budget:
        raise BudgetError(
            f"oracle budget exceeded: a {m}x{n} grid needs {m * n} bits, "
            f"budget is {budget}"
        )


def smooth(grid: MarkerGrid) -> Resolution:
    """Replace every crossing by its marker smoothing.

    INPUT: a nonempty rectangular tuple of rows of +1/-1 markers.

    OUTPUT: Resolution(state, loops) — the boundary connection of the
    smoothed diagram and the number of closed loops.
    """
    m = len(grid)
    if m == 0 or len(grid[0]) == 0:
        raise ValueError("grid must have at least one row and column")
    n = len(grid[0])
    parent: dict = {}

    def find(x):
        root = x
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(x, y):
        parent[find(x)] = find(y)

    # ports: (i, j, "N") is the north port of tile (i, j), which is also the
    # south port of tile (i-1, j); (i, j, "W") likewise serves tile (i, j-1).
    for i, row in enumerate(grid, start=1):
        if len(row) != n:
            raise ValueError("grid is not rectangular")
        for j, marker in enumerate(row, start=1):
            if marker not in (-1, 1):
                raise ValueError(f"bad marker {marker!r}")
            north, west = (i, j, "N"), (i, j, "W")
            south, east = (i + 1, j, "N"), (i, j + 1, "W")
            if (marker == 1) == POSITIVE_JOINS_EAST:
                union(north, east)
                union(south, west)
            else:
                union(north, west)
                union(south, east)

    port_of = {}
    for j in range(1, n + 1):
        port_of[("T", j)] = (1, j, "N")
        port_of[("B", j)] = (m + 1, j, "N")
    for i in range(1, m + 1):
        port_of[("L", i)] = (i, 1, "W")
        port_of[("R", i)] = (i, n + 1, "W")

    ends: dict = {}
    for pt, port in port_of.items():
        ends.setdefault(find(port), []).append(pt)
    pairs = []
    for group in ends.values():
        if len(group) != 2:
            raise AssertionError("strand with one end — smoothing bug")
        pairs.append(tuple(group))
    loops = sum(
        1 for node in list(parent) if find(node) == node and node not in ends
    )
    return Resolution(new_connection(m, n, n, pairs), loops)


def _add_product(table: dict, key, w: Laurent, factor: Laurent) -> None:
    """table[key] += w * factor, in place, dropping zero coefficients."""
    acc = table.get(key)
    if acc is None:
        acc = table[key] = {}
    for e1, c1 in w.items():
        for e2, c2 in factor.items():
            e = e1 + e2
            s = acc.get(e, 0) + c1 * c2
            if s:
                acc[e] = s
            else:
                del acc[e]


def _points(m: int, n: int) -> list[Point]:
    """Finished boundary points in fold order; ``points[k]`` has code -1 - k."""
    points: list[Point] = [("T", j) for j in range(1, n + 1)]
    for i in range(1, m + 1):
        points += [("L", i), ("R", i)]
    return points


def _fold(m: int, n: int, allowed=None) -> dict:
    """Sum the marker grids of the m x n grid one crossing at a time.

    The frontier after each cell has n + 1 slots: slot j is the open
    vertical port of column j, slot n the horizontal port of the current
    row.  A slot holds the index of its mate slot when its strand ends on
    the frontier, or the negative code ``-1 - k`` of the finished boundary
    point ``_points(m, n)[k]`` its strand ends at.  Strands with both ends on
    finished points are frozen: a sorted tuple of (low, high) code pairs.
    The key (slots, frozen) carries the summed weight of all marker
    choices so far that lead to it.

    Each cell takes two branches: north joins east and south joins west
    (weight A under ``POSITIVE_JOINS_EAST``), or north joins west and
    south joins east (weight A^-1), which closes a loop when north and west
    are mates.  Opening row i puts L_i in slot n; closing it ends slot n's
    strand at R_i.  With ``allowed`` given, a branch that would freeze a
    pair outside it is dropped.

    OUTPUT: {(columns, frozen): weight} after the last row, where
    ``columns`` holds the n column slots that end at B_1..B_n.
    """
    e = 1 if POSITIVE_JOINS_EAST else -1
    ne, nw, nw_loop = {e: 1}, {-e: 1}, monomial_shift(LOOP_WEIGHT, -e)
    code = {p: -1 - k for k, p in enumerate(_points(m, n))}
    h = n
    start = tuple(code[("T", j)] for j in range(1, n + 1))
    start += (code[("L", 1)],) if m else ()
    table: dict = {(start, ()): dict(ONE)}
    for i in range(1, m + 1):
        for c in range(n):
            nxt: dict = {}
            for (slots, frozen), w in table.items():
                vn, vw = slots[c], slots[h]
                if vn == h:  # north and west are mates
                    _add_product(nxt, (slots, frozen), w, ne)
                    _add_product(nxt, (slots, frozen), w, nw_loop)
                    continue
                s = list(slots)
                s[c], s[h] = vw, vn
                if vn >= 0:
                    s[vn] = h
                if vw >= 0:
                    s[vw] = c
                _add_product(nxt, (tuple(s), frozen), w, ne)
                s = list(slots)
                s[c], s[h] = h, c
                if vn >= 0:
                    s[vn] = vw
                    if vw >= 0:
                        s[vw] = vn
                elif vw >= 0:
                    s[vw] = vn
                else:
                    pair = (vn, vw) if vn < vw else (vw, vn)
                    if allowed is not None and pair not in allowed:
                        continue
                    frozen = tuple(sorted(frozen + (pair,)))
                _add_product(nxt, (tuple(s), frozen), w, nw)
            table = nxt
        right = code[("R", i)]  # the lowest code so far
        opened = (code[("L", i + 1)],) if i < m else ()
        nxt = {}
        for (slots, frozen), w in table.items():
            v = slots[h]
            cols = list(slots[:h])
            if v >= 0:
                cols[v] = right
            else:
                pair = (right, v)
                if allowed is not None and pair not in allowed:
                    continue
                frozen = tuple(sorted(frozen + (pair,)))
            _add_product(nxt, (tuple(cols) + opened, frozen), w, ONE)
        table = nxt
    return {k: w for k, w in table.items() if w}


def bracket_table(m: int, n: int, budget_bits=None) -> dict[Connection, Laurent]:
    """Bracket coefficient of every Catalan state of the m x n grid.

    Folds the grid one crossing at a time over int-encoded frontiers (see
    ``_fold``): partial matchings accumulate their total weight, and loops
    closed at a crossing contribute the loop weight.  This regroups the
    plain sum over all marker grids term by term, so it agrees exactly
    with enumeration.  Each final frontier becomes one Connection.
    """
    _check_budget(m, n, budget_bits)
    codes, where = _codes(m, n)
    table: dict[Connection, Laurent] = {}
    for (cols, frozen), w in _fold(m, n).items():
        mate = [0] * len(codes)
        for a, b in frozen + tuple(enumerate(cols)):
            mate[where[a]], mate[where[b]] = where[b], where[a]
        table[_from_mate(m, n, n, mate)] = w
    return table


def bracket_table_by_enumeration(
    m: int, n: int, budget_bits=None
) -> dict[Connection, Laurent]:
    """Literal sum over all 2^(mn) marker grids (slow reference path)."""
    _check_budget(m, n, budget_bits)
    if m == 0 or n == 0:
        return bracket_table(m, n, budget_bits)
    table: dict[Connection, Laurent] = {}
    for bits in range(1 << (m * n)):
        cells = [1 if bits >> k & 1 else -1 for k in range(m * n)]
        grid = tuple(
            tuple(cells[r * n : (r + 1) * n]) for r in range(m)
        )
        state, loops = smooth(grid)
        w = monomial(sum(cells))
        for _k in range(loops):
            w = mul(w, LOOP_WEIGHT)
        total = add(table.get(state, ZERO), w)
        if total:
            table[state] = total
        else:
            table.pop(state, None)
    return table


@lru_cache(maxsize=64)
def _codes(m: int, n: int) -> tuple[tuple[int, ...], dict[int, int]]:
    """Fold code of each clockwise position of Cat(m, n) -- ``-1 - k`` for
    ``_points(m, n)[k]``, column j - 1 for B_j -- and the position of each
    code (read only)."""
    code = {p: -1 - k for k, p in enumerate(_points(m, n))}
    codes = tuple(code.get(p, p[1] - 1) for p in boundary_points(m, n, n))
    return codes, {c: k for k, c in enumerate(codes)}


def _frontier_key(C: Connection) -> tuple[tuple[int, ...], tuple]:
    """C as a final frontier key of ``_fold(C.m, C.n)``: (columns, frozen)."""
    codes = _codes(C.m, C.n)[0]
    cols = [0] * C.n
    frozen = []
    for k, j in enumerate(C.mate):
        a, b = codes[k], codes[j]
        if a >= 0:
            cols[a] = b
        elif b < 0 and k < j:
            frozen.append((a, b) if a < b else (b, a))
    return tuple(cols), tuple(sorted(frozen))


# one fold per grid shape; a coefficient stream meets few shapes
@lru_cache(maxsize=16)
def _shape_fold(m: int, n: int) -> dict:
    """The full fold of one shape (shared between callers, so read only)."""
    return _fold(m, n)


def oracle_coefficient(C: Connection, budget_bits=None) -> Laurent:
    """Reference coefficient of a Catalan state, straight from the bracket:
    its frontier key looked up in the cached full fold of its shape."""
    _check_budget(C.m, C.n, budget_bits)
    return dict(_shape_fold(C.m, C.n).get(_frontier_key(C), ZERO))


def bracket_coefficient_at(C: Connection) -> Laurent:
    """Bracket coefficient of one Catalan state via a target-pruned fold.

    Same cell-by-cell fold as ``bracket_table`` (see ``_fold``), but a
    branch is dropped as soon as it freezes a pair -- both ends on finished
    boundary points (top, a left point of an opened row, a right point of a
    closed row) -- that is not a pair of ``C``.  Strands still touching the
    frontier stay, whatever ``C`` says.  This keeps the working table small
    for a single wide target where the full table of its grid would be far
    beyond any budget.  ``C`` itself is encoded as a final frontier key, so
    the answer is one lookup.

    The grid is folded along its shorter side; a quarter turn of the diagram
    inverts ``A``, which is undone on the way out.  Answers are memoized per
    state (``_pruned_fold``), so a repeated state skips both the turn and
    the fold.
    """
    if not C.is_catalan:
        raise ValueError("connection is not a Catalan state")
    return dict(_pruned_fold(C))


# local-family companions depend on the arch pattern alone, so a family
# sweep folds few distinct states many times
@lru_cache(maxsize=256)
def _pruned_fold(C: Connection) -> Laurent:
    """The pruned-fold value of a Catalan state (shared between callers, so
    read only)."""
    turned = C.n > C.m
    if turned:
        C = rotate_quarter(C)
    key = _frontier_key(C)
    value = _fold(C.m, C.n, allowed=set(key[1])).get(key, ZERO)
    return substitute_power(value, -1) if turned else value
