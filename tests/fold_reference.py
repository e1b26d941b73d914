"""The marker-grid fold with one Laurent dict per weight, for the tests.

``kauffman._fold`` packs each weight into one int and each set of frozen
pairs into one bitmask, groups a full fold's table by slots and keys a
target fold by the slots alone.  This copy keeps the earlier form -- a
dict of exponents per weight, multiplied in by ``_add_product``, a sorted
tuple of frozen code pairs, and one (slots, frozen) key per entry in both
kinds of fold -- so the packed fold is checked against a fold that shares
no arithmetic and no table layout with it.  It reads the loop weight from
``kauffman`` and keeps its own point order (``_points``), so it shares no
encoding with the packed fold either.

``bracket_table_by_enumeration`` is the literal sum over all 2^(mn) marker
grids, each smoothed by ``kauffman.smooth``.
"""

from catlattice import kauffman as K
from catlattice.laurent import ONE, ZERO, Laurent, add, monomial, monomial_shift, mul


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


def _points(m: int, n: int) -> list:
    """Finished boundary points in fold order; ``points[k]`` has code -1 - k."""
    points = [("T", j) for j in range(1, n + 1)]
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
    (weight A), or north joins west and south joins east (weight A^-1),
    which closes a loop when north and west are mates.  Opening row i puts
    L_i in slot n; closing it ends slot n's strand at R_i.  With
    ``allowed`` given, a branch that would freeze a pair outside it is
    dropped.

    OUTPUT: {(columns, frozen): weight} after the last row, where
    ``columns`` holds the n column slots that end at B_1..B_n.
    """
    ne, nw, nw_loop = {1: 1}, {-1: 1}, monomial_shift(K.LOOP_WEIGHT, -1)
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


def bracket_table_by_enumeration(m: int, n: int, budget_bits=None) -> dict:
    """Literal sum over all 2^(mn) marker grids (slow reference path)."""
    K._check_budget(m, n, budget_bits)
    if m == 0 or n == 0:
        return K.bracket_table(m, n, budget_bits)
    table: dict = {}
    for bits in range(1 << (m * n)):
        cells = [1 if bits >> k & 1 else -1 for k in range(m * n)]
        grid = tuple(
            tuple(cells[r * n : (r + 1) * n]) for r in range(m)
        )
        state, loops = K.smooth(grid)
        w = monomial(sum(cells))
        for _k in range(loops):
            w = mul(w, K.LOOP_WEIGHT)
        total = add(table.get(state, ZERO), w)
        if total:
            table[state] = total
        else:
            table.pop(state, None)
    return table
