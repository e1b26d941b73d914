"""The side-walk level scans that walk every leveled arc, for the tests.

``states._removable`` and ``coeff.iter_vertical_factorizations`` read the
levels of a stretch of the clockwise word as one subtraction of prefix
sums of multiset ints (``states._level_prefix``).  This module keeps the
earlier form: ``step`` holds each position's levels as a tuple, ``_levels``
lists ``(k, js)`` per leveled arc, and both questions walk that list for
every candidate.  The bodies of ``_levels``, ``_removable`` and
``iter_vertical_factorizations`` are kept unchanged but for reading
``step`` from here, the module prefixes and ``_shape(...)[:4]``, so the
prefix sums are checked against scans that share no level arithmetic with
them.
"""

from functools import lru_cache
from typing import Iterator

from catlattice.coeff import LocalFamily
from catlattice.states import Connection, _shape, _side_walks, is_proper_arc


@lru_cache(maxsize=None)
def step(m: int, n: int) -> tuple[tuple[int, ...], ...]:
    """``step[k]`` holds the levels of an arc joining k to k+1 of Cat(m,n):
    the lower of the two indices on each walk where they are consecutive
    (which drops a walk's wrap across an empty side)."""
    N = 2 * (m + n)
    left, right = _side_walks(m, n)[:2]
    out = []
    for k in range(N):
        ends = [(walk[k], walk[(k + 1) % N]) for walk in (left, right)]
        js = {min(u, w) for u, w in ends if None not in (u, w) and abs(u - w) == 1}
        out.append(tuple(js))
    return tuple(out)


def _levels(C: Connection) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """``(k, js)`` for each arc of a Catalan state that has side-walk levels
    ``js``: the arcs whose ends are clockwise neighbours, k the
    clockwise-earlier end, in clockwise order.  Neither cached nor stored
    on the state: each of its two readers asks once per state."""
    mate, N = C.mate, len(C.mate)
    levels = step(C.m, C.n)
    # the one arc of a two-point state counts once, from 0
    ends = (k for k in range(N) if mate[k] == (k + 1) % N != k - 1)
    return tuple((k, levels[k]) for k in ends if levels[k])


def _removable(C: Connection, arcs) -> list[tuple[int, int]]:
    """The removable arcs among ``arcs``, each the clockwise positions of
    the two ends of an arc of C in either order, in their order."""
    m, n = C.m, C.n
    points = _shape(m, n, n)[0]
    levels = _levels(C)
    out = []
    for arc in arcs:
        a, b = sorted(arc)
        c = (points[a], points[b])
        if not is_proper_arc(C, c):
            continue
        inside_is_bottom = "B" in (c[0][0], c[1][0]) or a < n + m <= b
        top, bottom = 0, m
        for k, js in levels:
            if k in (a, b):
                continue
            if (a < k < b) == inside_is_bottom:
                bottom = min(bottom, *js)
            else:
                top = max(top, *js)
        if top < bottom:
            out.append(arc)
    return out


def iter_vertical_factorizations(C: Connection) -> Iterator[LocalFamily]:
    """All local families along which the coefficient factors, yielded by
    start, then length."""
    m, n, mate = C.m, C.n, C.mate
    N = len(mate)
    leveled = _levels(C)
    points, _, rank, order = _shape(m, n, n)[:4]
    for start in range(N):
        # R holds positions n..n+m-1 and L 2n+m..N-1: an interval from T or R
        # has points on both sides once it covers position 2n+m, one from B
        # or L once it covers position n, round the corner
        reach = ((2 * n + m if start < n + m else N + n) - start) if m else N
        length = 0
        while True:
            length += (mate[(start + length) % N] - start - length) % N + 1
            if length >= N or length > reach:
                break
            if length < 4:
                continue
            lam_js = [j for k, js in leveled if (k - start) % N < length for j in js]
            if lam_js:
                lo, hi = min(lam_js), max(lam_js)
                if lo < 0 or hi > m:
                    continue
                foreign = (
                    j for k, js in leveled if (k - start) % N >= length for j in js
                )
                if any(lo < j < hi for j in foreign):
                    continue
            arcs = (
                (points[k], points[mate[k]])
                for k in order
                if (k - start) % N < length and rank[k] < rank[mate[k]]
            )
            yield LocalFamily(start, length, tuple(arcs))
