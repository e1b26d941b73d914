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
closed between finished points, one bit per pair of codes.
``bracket_table`` keeps every frontier, grouped as ``{slots: {frozen:
weight}}``; ``oracle_coefficient`` looks a state's key up in the cached
fold of its grid; ``bracket_coefficient_at`` drops the frontiers that
cannot end at its target, which leaves one frozen set per slots
(``{slots: weight}``), and keeps its recent answers in a bounded cache
(``_pruned_fold``), keyed by the state, since local-family companions
repeat.  The two fold a grid along its shorter side, keyed by the codes
of the quarter turn (``_frontier_key``), and build no turned state.

Each fold weight is one int.  Multiplied by A^3 per crossing, a weight
after t crossings is a polynomial in A^2 of degree at most 2t; slot s of
K = m*n + 2 bits holds the coefficient of A^(2s - 3t), a balanced digit.
No coefficient exceeds 2^(mn) in size, so K bits decode exactly (see
``_fold``).  A weight is decoded (``_unpack``) only where it leaves the
fold; a quarter turn of the diagram negates every exponent.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from .laurent import Laurent
from .states import Connection, _from_mate, new_connection

MarkerGrid = tuple[tuple[int, ...], ...]

#: Bracket weight of one closed loop.
LOOP_WEIGHT: Laurent = {-2: -1, 2: -1}

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
    """Replace every crossing by its marker smoothing: a +1 marker joins
    the north and east tile ports (and south and west), a -1 marker north
    and west (and south and east).

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
            if marker == 1:
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


def _fold(m: int, n: int, allowed=None) -> dict:
    """Sum the marker grids of the m x n grid one crossing at a time.

    The frontier after each cell has n + 1 slots: slot j is the open
    vertical port of column j, slot n the horizontal port of the current
    row.  A slot holds the index of its mate slot when its strand ends on
    the frontier, or the negative code of the finished boundary point its
    strand ends at (``_codes``: -j for T_j, -n - 2i + 1 for L_i, -n - 2i
    for R_i).  Strands with both ends on finished points are frozen: an int
    with one bit per code pair, bit ``_codes(m, n)[2][a][b]`` for codes a
    and b.  The full fold keeps ``{slots: {frozen: weight}}``, so each
    distinct slots is stepped once per cell for all of its frozen sets.
    With ``allowed``, the frozen pairs of a target, a branch that would
    freeze any other pair is dropped.  The frozen pairs then match the
    finished points that no slot names as the target does, so the slots
    fix them, and the table is ``{slots: weight}``.  After the last row
    the slots are the n columns, which end at B_1..B_n.

    Each cell takes two branches: north joins east and south joins west
    (weight A), or north joins west and south joins east (weight A^-1),
    which closes a loop when north and west are mates; then the two
    branches meet at one key with weight A + A^-1 (-A^2 - A^-2) = -A^-3.
    Every weight is kept multiplied by A^3 per cell, so the three branch
    weights are A^4, A^2 and -1, and after t cells a weight is a
    polynomial in A^2.  It is packed into one int, K = m*n + 2 bits per
    slot: slot s holds the coefficient of A^(2s - 3t), so the branches
    shift by 2K, shift by K and negate.  Each cell at most doubles the
    sum of the absolute coefficients of all weights (a branch weight is a
    single monomial), so no coefficient exceeds 2^(mn) < 2^(K-1) in size
    and the balanced slots decode exactly (``_unpack``).  Opening row i
    puts L_i in slot n; closing it ends slot n's strand at R_i.
    """
    K = m * n + 2
    K2 = 2 * K
    bits = _codes(m, n)[2]
    h = n
    start = tuple(range(-1, -n - 1, -1)) + ((-n - 1,) if m else ())
    table: dict = {start: {0: 1}} if allowed is None else {start: 1}
    for i in range(1, m + 1):
        for c in range(n):
            nxt: dict = {}
            get = nxt.get
            if allowed is None:
                for slots, group in table.items():
                    vn, vw = slots[c], slots[h]
                    if vn == h:  # north and west are mates
                        g = nxt.setdefault(slots, {})
                        for f, w in group.items():
                            g[f] = g.get(f, 0) - w
                        continue
                    s = list(slots)
                    s[c], s[h] = vw, vn
                    if vn >= 0:
                        s[vn] = h
                    if vw >= 0:
                        s[vw] = c
                    key = tuple(s)
                    g = get(key)
                    if g is None:
                        nxt[key] = {f: w << K2 for f, w in group.items()}
                    else:
                        for f, w in group.items():
                            g[f] = g.get(f, 0) + (w << K2)
                    s = list(slots)
                    s[c], s[h] = h, c
                    bit = 0
                    if vn >= 0:
                        s[vn] = vw
                        if vw >= 0:
                            s[vw] = vn
                    elif vw >= 0:
                        s[vw] = vn
                    else:
                        bit = 1 << bits[vn][vw]
                    key = tuple(s)
                    g = get(key)
                    if g is None:
                        nxt[key] = {f | bit: w << K for f, w in group.items()}
                    else:
                        for f, w in group.items():
                            f |= bit
                            g[f] = g.get(f, 0) + (w << K)
            else:  # the same steps on one weight per slots
                for slots, w in table.items():
                    vn, vw = slots[c], slots[h]
                    if vn == h:
                        nxt[slots] = get(slots, 0) - w
                        continue
                    s = list(slots)
                    s[c], s[h] = vw, vn
                    if vn >= 0:
                        s[vn] = h
                    if vw >= 0:
                        s[vw] = c
                    key = tuple(s)
                    nxt[key] = get(key, 0) + (w << K2)
                    s = list(slots)
                    s[c], s[h] = h, c
                    if vn >= 0:
                        s[vn] = vw
                        if vw >= 0:
                            s[vw] = vn
                    elif vw >= 0:
                        s[vw] = vn
                    elif not allowed >> bits[vn][vw] & 1:
                        continue
                    key = tuple(s)
                    nxt[key] = get(key, 0) + (w << K)
            table = nxt
        right = -n - 2 * i  # R_i, the lowest code so far
        opened = (right - 1,) if i < m else ()  # L_(i+1)
        nxt = {}
        get = nxt.get
        for slots, x in table.items():  # x: a frozen group, or one weight
            v = slots[h]
            cols = list(slots[:h])
            bit = 0
            if v >= 0:
                cols[v] = right
            elif allowed is None:
                bit = 1 << bits[right][v]
            elif not allowed >> bits[right][v] & 1:
                continue
            key = tuple(cols) + opened
            if allowed is None:
                g = nxt.setdefault(key, {})
                for f, w in x.items():
                    g[f | bit] = g.get(f | bit, 0) + w
            else:
                nxt[key] = get(key, 0) + x
        table = nxt
    if allowed is not None:
        return {cols: w for cols, w in table.items() if w}
    return {cols: {f: w for f, w in g.items() if w} for cols, g in table.items()}


def _unpack(w: int, m: int, n: int, unturned: bool) -> Laurent:
    """The Laurent polynomial of a packed m x n fold weight (see ``_fold``):
    slot s is the coefficient of A^(2s - 3mn) when ``unturned``, or of
    A^(3mn - 2s) when the fold was of the quarter turn of the diagram."""
    K = m * n + 2
    half, full, digit = 1 << (K - 1), 1 << K, (1 << K) - 1
    e, step = (-3 * m * n, 2) if unturned else (3 * m * n, -2)
    out: Laurent = {}
    while w:
        c = w & digit
        if c >= half:
            c -= full
        if c:
            out[e] = c
        w = (w - c) >> K
        e += step
    return out


def bracket_table(m: int, n: int, budget_bits=None) -> dict[Connection, Laurent]:
    """Bracket coefficient of every Catalan state of the m x n grid.

    The full fold (``_fold``) regroups the plain sum over all marker grids
    term by term, so it agrees exactly with enumeration.  Each final
    frontier becomes one Connection, and each packed weight one Laurent
    polynomial.
    """
    _check_budget(m, n, budget_bits)
    codes, where, bits = _codes(m, n)
    pair = {bits[a][b]: (a, b) for a in where for b in where if a < b < 0}
    table: dict[Connection, Laurent] = {}
    for cols, group in _fold(m, n).items():
        for frozen, w in group.items():
            ends = list(enumerate(cols))
            ends += (pair[i] for i in range(frozen.bit_length()) if frozen >> i & 1)
            mate = [0] * len(codes)
            for a, b in ends:
                mate[where[a]], mate[where[b]] = where[b], where[a]
            table[_from_mate(m, n, n, mate)] = _unpack(w, m, n, True)
    return table


@lru_cache(maxsize=64)
def _codes(m: int, n: int) -> tuple:
    """Fold code of each clockwise position of Cat(m, n) -- -j for T_j,
    -n - 2i for R_i, j - 1 for B_j, -n - 2i + 1 for L_i -- the position of
    each code, and the index of the frozen-pair bit of two point codes a
    and b (``bits[a][b]``, indexed by the negative codes themselves; read
    only)."""
    rows = range(1, m + 1)
    codes = (
        *range(-1, -n - 1, -1),
        *(-n - 2 * i for i in rows),
        *range(n - 1, -1, -1),
        *(-n - 2 * i + 1 for i in reversed(rows)),
    )
    P = n + 2 * m
    bits = [[0] * P for _ in range(P)]
    for i, (a, b) in enumerate(combinations(range(-P, 0), 2)):
        bits[a][b] = bits[b][a] = i
    return codes, {c: k for k, c in enumerate(codes)}, tuple(map(tuple, bits))


def _frontier_key(C: Connection) -> tuple[tuple[int, ...], int]:
    """C as a final frontier key (columns, frozen) of the fold of its grid
    along the shorter side, ``_fold(max(m, n), min(m, n))``: when n > m,
    of its quarter turn, which moves position k to k - 2n - m
    (``states.rotate_quarter``; a negative index counts from the end)."""
    m, n = C.m, C.n
    turn = 2 * n + m if n > m else 0
    codes, _, bits = _codes(max(m, n), min(m, n))
    cols = [0] * min(m, n)
    frozen = 0
    for k, j in enumerate(C.mate):
        a, b = codes[k - turn], codes[j - turn]
        if a >= 0:
            cols[a] = b
        elif b < 0:
            frozen |= 1 << bits[a][b]
    return tuple(cols), frozen


# one fold per grid shape; a coefficient stream meets few shapes
@lru_cache(maxsize=16)
def _shape_fold(m: int, n: int) -> dict:
    """The full fold of one shape (shared between callers, so read only)."""
    return _fold(m, n)


def oracle_coefficient(C: Connection, budget_bits=None) -> Laurent:
    """Reference coefficient of a Catalan state, straight from the bracket:
    its frontier key looked up in the cached full fold of its grid along
    the shorter side, which Cat(m,n) and Cat(n,m) share."""
    _check_budget(C.m, C.n, budget_bits)
    cols, frozen = _frontier_key(C)
    w = _shape_fold(max(C.m, C.n), min(C.m, C.n)).get(cols, {}).get(frozen, 0)
    return _unpack(w, C.m, C.n, C.n <= C.m)


def bracket_coefficient_at(C: Connection) -> Laurent:
    """Bracket coefficient of one Catalan state via a target-pruned fold.

    Same cell-by-cell fold as ``bracket_table`` (see ``_fold``), but a
    branch is dropped as soon as it freezes a pair -- both ends on finished
    boundary points -- that is not a pair of ``C``, and the table is keyed
    by the slots alone.  This keeps the working table small for a single
    wide target where the full table of its grid would be far beyond any
    budget.  The answer is one lookup of ``C``'s columns.

    The grid is folded along its shorter side, keyed as the oracle keys it
    (``_frontier_key``); a quarter turn of the diagram inverts ``A``, which
    is undone on the way out.  Answers are memoized per state
    (``_pruned_fold``).
    """
    if not C.is_catalan:
        raise ValueError("connection is not a Catalan state")
    return dict(_pruned_fold(C))


# local-family companions depend on the arch pattern alone, and the engine
# builds one per pattern, so a family sweep asks about few states many times
@lru_cache(maxsize=256)
def _pruned_fold(C: Connection) -> Laurent:
    """The pruned-fold value of a Catalan state (shared between callers, so
    read only)."""
    cols, frozen = _frontier_key(C)
    w = _fold(max(C.m, C.n), min(C.m, C.n), allowed=frozen).get(cols, 0)
    return _unpack(w, C.m, C.n, C.n <= C.m)
