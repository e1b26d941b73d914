"""The coefficient engine.

Strategy pipeline for the coefficient of a Catalan state: realizability
short-circuit, the tree formula when one boundary edge is return-free,
vertical decomposition at saturated lines, removable-arc reduction,
vertical factorization through local families, and finally the
brute-force oracle within budget.  Every rewrite is logged in a trace
whose factors multiply back to the reported value.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

from .kauffman import BudgetError, oracle_coefficient, _budget
from .laurent import (
    Laurent,
    ONE,
    ZERO,
    div_exact,
    is_monomial,
    max_degree,
    min_degree,
    monomial,
    monomial_shift,
    mul,
    power,
    render,
    star_normalize,
    substitute_power,
)
from .maxseq import beta
from .states import (
    Connection,
    Pair,
    _from_mate,
    _point_text,
    _rainbow,
    classify,
    extended_labels,
    find_removable_arcs,
    is_realizable,
    is_vertically_decomposable,
    remove_arc,
    rotate_pi,
    split_at,
    view,
)
from .trees import plucking, tree_from_state


class TraceStep(NamedTuple):
    kind: str
    detail: str
    factor: Laurent


def render_trace(steps) -> str:
    lines = [
        f"step {k}: {s.kind} {s.detail} factor={render(s.factor)}"
        for k, s in enumerate(steps, start=1)
    ]
    return "\n".join(lines)


def coeff_no_bottom_returns(C: Connection) -> Laurent:
    """Coefficient of a state whose bottom edge carries no return.

    The state's plane rooted tree T(C) determines everything: the value is
    A^(2*beta - mn) times the plucking polynomial of T(C), normalized to
    minimum degree 0 and evaluated at q = A^-4.
    """
    if classify(C).bottom_returns:
        raise ValueError("state has bottom returns")
    if not is_realizable(C):
        return dict(ZERO)
    q = star_normalize(plucking(tree_from_state(C)))
    return monomial_shift(substitute_power(q, -4), 2 * beta(C) - C.m * C.n)


def reduce_removable(C: Connection) -> Optional[tuple[Laurent, Connection, Pair]]:
    """First removable-arc rewrite: (monomial factor, reduced state, arc)."""
    arcs = find_removable_arcs(C)
    if not arcs:
        return None
    c = arcs[0]
    a, b = extended_labels(C, c)
    return monomial(b - a), remove_arc(C, c), c


class LocalFamily(NamedTuple):
    """A run of 2*lam consecutive boundary points matched among themselves."""

    start: int
    length: int
    arcs: tuple[Pair, ...]


def iter_vertical_factorizations(C: Connection) -> Iterator[LocalFamily]:
    """All local families along which the coefficient factors.

    A family qualifies when its boundary interval avoids one vertical side
    entirely, and the side-hugging arcs inside and outside it occupy
    disjoint level windows, so the family can slide to the top or bottom
    edge independently of the rest.

    The closed intervals from a start are its runs of consecutive sibling
    arcs (the arc at k spans k..mate[k] clockwise), grown one span at a
    time.  Yield order is by start, then length.
    """
    m, N = C.m, 2 * (C.m + C.n)
    v = view(C)
    pts, mate, levels = v.points, C.mate, v.levels
    for start in range(N):
        inside, sides, length = set(), set(), 0
        while True:
            span = (mate[(start + length) % N] - start - length) % N + 1
            if length + span >= N:
                break
            for k in range(start + length, start + length + span):
                inside.add(v.pair[k % N])
                sides.add(pts[k % N][0])
            length += span
            if "L" in sides and "R" in sides:
                break
            if length < 4:
                continue
            lam_js = [j for r in inside for j in levels[r]]
            if lam_js:
                lo, hi = min(lam_js), max(lam_js)
                if lo < 0 or hi > m:
                    continue
                foreign = (
                    j
                    for r, js in enumerate(levels)
                    if r not in inside
                    for j in js
                )
                if any(lo < j < hi for j in foreign):
                    continue
            yield LocalFamily(start, length, tuple(C.pairs[r] for r in sorted(inside)))


def vertical_factor_parts(
    C: Connection, fam: LocalFamily
) -> tuple[Connection, Connection]:
    """Split off a local family: C's coefficient is the parts' product.

    The first part re-homes the family in a lam x 2*lam rectangle: the top
    edge carries the family's arch pattern, every bottom point routes to
    the nearest side point: B_i to L_(lam+1-i) and B_(lam+i) to R_i, the
    rainbows on clockwise positions [2lam, 4lam) and [4lam, 6lam).  The
    second part is C with the family replaced by the nested rainbow on its
    interval.
    """
    start, length, N = fam.start, fam.length, len(C.mate)
    lam = length // 2
    C_lam = _from_mate(C.m, C.n, C.n, _rainbow(C.mate, start, length))
    top = [(C.mate[(start + k) % N] - start) % N for k in range(length)]
    wired = _rainbow(top + [0] * (2 * length), length, length)
    C_T = _from_mate(lam, length, length, _rainbow(wired, 2 * length, length))
    return C_T, C_lam


def vertical_decompose(C: Connection) -> list[Connection]:
    """Indecomposable blocks between consecutive saturated interior lines."""
    n, counts = C.n, view(C).horizontal
    cuts = [i for i in range(1, C.m) if counts[i] == n]
    parts = []
    rest = C
    taken = 0
    for i in cuts:
        top, rest = split_at(rest, i - taken)
        parts.append(top)
        taken = i
    parts.append(rest)
    return parts


def coefficient(
    C: Connection, budget_bits=None
) -> tuple[Laurent, list[TraceStep]]:
    """Coefficient of a Catalan state, with the reduction trace.

    The product of the trace factors equals the returned polynomial.
    """
    trace: list[TraceStep] = []
    value = _reduce(C, trace, frozenset(), budget_bits)
    return value, trace


def _tree_step(C: Connection, trace) -> Laurent:
    """Tree-formula value of a realizable state without bottom returns."""
    value = coeff_no_bottom_returns(C)
    # the formula's top term is A^(2*beta - mn), so beta need not be rerun
    b = (max_degree(value) + C.m * C.n) // 2
    trace.append(TraceStep("tree-formula", f"m={C.m} n={C.n} beta={b}", value))
    return value


def _reduce(C, trace, seen, budget_bits) -> Laurent:
    if not is_realizable(C):
        trace.append(
            TraceStep("realizability", "a cut line is crossed too often", dict(ZERO))
        )
        return dict(ZERO)
    census = classify(C)
    if census.bottom_returns == 0:
        return _tree_step(C, trace)
    if census.top_returns == 0:
        trace.append(
            TraceStep("rotate-pi", "bottom returns only; half-turn image", dict(ONE))
        )
        return _tree_step(rotate_pi(C), trace)
    parts = vertical_decompose(C)
    if len(parts) > 1:
        trace.append(
            TraceStep(
                "vertical-decompose",
                f"{len(parts)} blocks at saturated lines",
                dict(ONE),
            )
        )
        value = dict(ONE)
        for part in parts:
            value = mul(value, _reduce(part, trace, frozenset(), budget_bits))
        return value
    step = reduce_removable(C)
    if step is not None:
        factor, reduced, arc = step
        trace.append(
            TraceStep(
                "removable-arc",
                f"{_point_text(arc[0])}-{_point_text(arc[1])}",
                factor,
            )
        )
        return mul(factor, _reduce(reduced, trace, seen, budget_bits))
    for fam in iter_vertical_factorizations(C):
        if _rainbow(C.mate, fam.start, fam.length) == C.mate:
            continue  # the family already is the rainbow, so C_lam == C
        C_T, C_lam = vertical_factor_parts(C, fam)
        if C_lam in seen:
            continue
        trace.append(
            TraceStep(
                "vertical-factor",
                f"{fam.length // 2} arcs at boundary offset {fam.start}",
                dict(ONE),
            )
        )
        left = _reduce(C_T, trace, frozenset(), budget_bits)
        right = _reduce(C_lam, trace, seen | {C}, budget_bits)
        return mul(left, right)
    if C.m * C.n <= _budget(budget_bits):
        value = oracle_coefficient(C, budget_bits)
        trace.append(
            TraceStep("oracle", f"{C.m}x{C.n} bracket table", value)
        )
        return value
    raise BudgetError(
        f"unreachable within budget: no reduction applies to this "
        f"{C.m}x{C.n} state and its grid exceeds the oracle budget"
    )


# -- closed forms for width-3 states ---------------------------------------

_Y: Laurent = {-2: 1, 2: 1}
_X: Laurent = {-4: 1, 0: 1, 4: 1}


class Lm3Form(NamedTuple):
    kind: str  # "decomposable" | "indecomposable"
    a: int
    b: int
    c: int

    def value(self) -> Laurent:
        base = mul(monomial(self.a), power(_Y, self.b))
        if self.kind == "decomposable":
            return mul(base, power(_X, self.c))
        bracket = dict(power(_Y, 2 * self.c))
        bracket[0] = bracket.get(0, 0) - 1
        return mul(base, div_exact(bracket, _X))


def lm3_closed_form(C: Connection) -> Lm3Form:
    """Closed-form parameters (a, b, c) of a realizable width-3 state.

    Vertically decomposable states have coefficient A^a Y^b X^c and the
    others A^a Y^b (Y^(2c) - 1)/X, with Y = A^-2 + A^2, X = A^-4 + 1 + A^4.
    A failed fit raises: the shapes are guaranteed, so failure is a bug.
    """
    if C.n != 3:
        raise ValueError("closed forms need width 3")
    if not is_realizable(C):
        raise ValueError("state is not realizable")
    P, _ = coefficient(C)
    if is_vertically_decomposable(C) is not None:
        c = 0
        while True:
            try:
                nxt = div_exact(P, _X)
            except ValueError:
                break
            P, c = nxt, c + 1
        b = 0
        while True:
            try:
                nxt = div_exact(P, _Y)
            except ValueError:
                break
            P, b = nxt, b + 1
        if not is_monomial(P) or P[min_degree(P)] != 1:
            raise AssertionError("decomposable fit failed")
        return Lm3Form("decomposable", min_degree(P), b, c)
    PX = mul(P, _X)
    for b in (0, 1):
        try:
            S = div_exact(PX, power(_Y, b))
        except ValueError:
            continue
        span = max_degree(S) - min_degree(S)
        if span % 8:
            continue
        c = span // 8
        if c < 1:
            continue
        bracket = dict(power(_Y, 2 * c))
        bracket[0] = bracket.get(0, 0) - 1
        try:
            residue = div_exact(S, bracket)
        except ValueError:
            continue
        if is_monomial(residue) and residue[min_degree(residue)] == 1:
            return Lm3Form("indecomposable", min_degree(residue), b, c)
    raise AssertionError("indecomposable fit failed")
