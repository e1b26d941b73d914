"""The per-point form of ``maxseq._upper_arcs``, kept for the tests.

Each arc end's boundary coordinate comes from its side letter and index
through ``states.coordinate``, the definition the exponent formulas use.
The library reads the same numbers off the ends' positions in the
clockwise word from L_m.
"""

from catlattice.states import Connection, _shape, coordinate


def upper_arcs(C: Connection) -> list[tuple[int, int]]:
    """Coordinate pairs (p < q) of the arcs avoiding the bottom edge."""
    m, n = C.m, C.n
    points = _shape(m, n, n)[0]
    out = []
    for k, j in enumerate(C.mate):
        p, q = points[k], points[j]
        if k > j or p[0] == "B" or q[0] == "B":
            continue
        a, b = coordinate(p, m, n), coordinate(q, m, n)
        out.append((a, b) if a < b else (b, a))
    return out
