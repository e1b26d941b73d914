"""The coefficient engine.

Strategy pipeline for the coefficient of a Catalan state: realizability
short-circuit, the tree formula when one boundary edge is return-free,
vertical decomposition at saturated lines (``states.vertical_decompose``),
removable-arc reduction, vertical factorization through local families,
and finally the brute-force oracle within budget.  Every rewrite is logged as a trace
step, and the trace is the engine's one result: ``coefficient`` reports
the product of its factors.

The reductions leave smaller states, and across a stream of states those
recur, so ``_reduce`` keeps one bounded per-state memo of the reduction:
a repeated state's trace steps are reused, not rebuilt.  ``coefficient``
hands out fresh copies of them.  Most of the reuse is at the leaves, the
tree-formula and oracle states, which recur from one item to the next;
the bound of 512 entries holds them across a table of states.  A cold
pass over every 4th Cat(4,5) state makes 2,424 reductions at 64 entries,
2,138 at 512 and 1,986 with no bound; all of Cat(4,5) makes 8,216, 6,743
and 5,931.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, NamedTuple, Optional

from .kauffman import BudgetError, bracket_coefficient_at, oracle_coefficient, _budget
from .laurent import (
    Laurent,
    ONE,
    ZERO,
    add,
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
    _LEVEL_BITS,
    _arc_text,
    _from_mate,
    _labels,
    _level_prefix,
    _rainbow,
    _reading_arcs,
    _remove,
    _removable,
    _shape,
    classify,
    find_removable_arcs,  # not called: the benchmark's tracer wraps it here
    is_realizable,
    is_vertically_decomposable,
    rotate_pi,
    vertical_decompose,
)
from .trees import arch_tree, plucking


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


def oracle_step(C: Connection, value: Laurent) -> TraceStep:
    """The trace step of an oracle answer ``value`` for C."""
    return TraceStep("oracle", f"{C.m}x{C.n} bracket table", value)


def coeff_no_bottom_returns(C: Connection) -> Laurent:
    """Coefficient of a state whose bottom edge carries no return.

    The value is A^(2*beta - mn) times the plucking polynomial of T(C), the
    state's plane rooted tree, plucked below its root path (``arch_tree``),
    normalized to minimum degree 0 and evaluated at q = A^-4.
    """
    tree = arch_tree(C)  # rejects bottom returns, before realizability
    if not is_realizable(C):
        return dict(ZERO)
    q = star_normalize(plucking(tree))
    return monomial_shift(substitute_power(q, -4), 2 * beta(C) - C.m * C.n)


def reduce_removable(C: Connection) -> Optional[tuple[Laurent, Connection, Pair]]:
    """First removable-arc rewrite: (monomial factor, reduced state, arc),
    the scan of ``states.find_removable_arcs`` stopped at its first hit."""
    for k, j in _removable(C, _reading_arcs(C)):
        a, b = _labels(C, k, j)
        points = _shape(C.m, C.n, C.n)[0]
        return monomial(b - a), _remove(C, k, j), (points[k], points[j])
    return None


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
    time.  Only arcs whose ends are clockwise neighbours carry side-walk
    levels, and such an arc lies inside an interval exactly when one of its
    ends does: the interval's levels are a difference of two prefix sums
    (``states._level_prefix``).  A family's arcs are read off its positions
    in reading order, so the scan builds no view and derives no ``C.pairs``.
    Yield order is by start, then length.
    """
    m, n, mate, D = C.m, C.n, C.mate, _LEVEL_BITS
    N = len(mate)
    P = _level_prefix(C)
    points, _, rank, order, _ = _shape(m, n, n)
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
            inside = P[start + length] - P[start]
            if inside:
                # the digits of the lowest and highest level, level j at j + n
                lo = ((inside & -inside).bit_length() - 1) // D
                hi = (inside.bit_length() - 1) // D
                if lo < n or hi > m + n:
                    break  # the inside only grows along a run
                # a foreign level strictly between lo and hi
                if (P[N] - inside) % (1 << D * hi) >> D * (lo + 1):
                    continue
            arcs = (
                (points[k], points[mate[k]])
                for k in order
                if (k - start) % N < length and rank[k] < rank[mate[k]]
            )
            yield LocalFamily(start, length, tuple(arcs))


def vertical_factor_parts(
    C: Connection, fam: LocalFamily
) -> tuple[Connection, Connection]:
    """Split off a local family: C's coefficient is the parts' product.

    The first part re-homes the family in a lam x 2*lam rectangle (see
    ``_companion``).  The second part is C with the family replaced by the
    nested rainbow on its interval.
    """
    C_lam = _from_mate(C.m, C.n, C.n, _rainbow(C.mate, fam.start, fam.length))
    return _companion(C, fam), C_lam


def _companion(C: Connection, fam: LocalFamily) -> Connection:
    """A local family re-homed in a lam x 2*lam rectangle: the top edge
    carries the family's arch pattern, every bottom point routes to the
    nearest side point: B_i to L_(lam+1-i) and B_(lam+i) to R_i, the
    rainbows on clockwise positions [2lam, 4lam) and [4lam, 6lam).  It
    depends on the arch pattern alone, each partner's offset from the
    family's start, so it is built once per pattern (``_pattern_companion``)."""
    start, N = fam.start, len(C.mate)
    return _pattern_companion(
        tuple((C.mate[(start + k) % N] - start) % N for k in range(fam.length))
    )


# a family sweep meets few arch patterns many times
@lru_cache(maxsize=256)
def _pattern_companion(top: tuple[int, ...]) -> Connection:
    """The companion of the arch pattern ``top`` (see ``_companion``)."""
    length = len(top)
    wired = _rainbow(top + (0,) * (2 * length), length, length)
    return _from_mate(length // 2, length, length, _rainbow(wired, 2 * length, length))


def coefficient(
    C: Connection, budget_bits=None
) -> tuple[Laurent, list[TraceStep]]:
    """Coefficient of a Catalan state, with the reduction trace.

    The value is the product of the trace factors: the reduction yields its
    steps only, and the factors equal to 1 (the structural steps) are
    skipped.  The value, the list and every step's factor are fresh copies,
    so callers may mutate them.
    """
    steps = _reduce(C, _budget(budget_bits))
    factors = [s.factor for s in steps if s.factor != ONE]
    value = dict(factors[0]) if factors else dict(ONE)
    for factor in factors[1:]:
        value = mul(value, factor)
    return value, [TraceStep(s.kind, s.detail, dict(s.factor)) for s in steps]


def _tree_step(C: Connection) -> tuple[TraceStep]:
    """The tree-formula step of a realizable state without bottom returns."""
    value = coeff_no_bottom_returns(C)
    # the formula's top term is A^(2*beta - mn), so beta need not be rerun
    b = (max_degree(value) + C.m * C.n) // 2
    return (TraceStep("tree-formula", f"m={C.m} n={C.n} beta={b}", value),)


# 512 entries hold a table's recurring leaves (module docstring); 1024
# saves few more reductions on the Cat(4,5) pass (2,011 against 2,138)
# and costs 0.5 to 1 kB of memory an entry
@lru_cache(maxsize=512)
def _reduce(C, budget) -> tuple[TraceStep, ...]:
    """Trace steps of C under an oracle budget of ``budget`` bits, whose
    factors multiply to C's coefficient (shared between callers, so read
    only).  No chain of rewrites returns to a state: a removable arc drops
    a row, and a family rewrite keeps the shape but lowers the count of
    arcs with clockwise-neighbour ends, since its rainbow is the one
    matching of its interval with a single such arc."""
    if not is_realizable(C):
        return (TraceStep("realizability", "a cut line is crossed too often", ZERO),)
    census = classify(C)
    if census.bottom_returns == 0:
        return _tree_step(C)
    if census.top_returns == 0:
        turn = TraceStep("rotate-pi", "bottom returns only; half-turn image", ONE)
        return (turn,) + _tree_step(rotate_pi(C))
    parts = vertical_decompose(C)
    if len(parts) > 1:
        detail = f"{len(parts)} blocks at saturated lines"
        steps = (TraceStep("vertical-decompose", detail, ONE),)
        for part in parts:
            steps += _reduce(part, budget)
        return steps
    step = reduce_removable(C)
    if step is not None:
        factor, reduced, arc = step
        removal = TraceStep("removable-arc", _arc_text(arc), factor)
        return (removal,) + _reduce(reduced, budget)
    for fam in iter_vertical_factorizations(C):
        lam_mate = _rainbow(C.mate, fam.start, fam.length)
        if lam_mate == C.mate:
            continue  # the family already is the rainbow, so C_lam == C
        split = TraceStep(
            "vertical-factor",
            f"{fam.length // 2} arcs at boundary offset {fam.start}",
            ONE,
        )
        left = _reduce(_companion(C, fam), budget)
        return (split,) + left + _reduce(_from_mate(C.m, C.n, C.n, lam_mate), budget)
    if C.m * C.n <= budget:
        return (oracle_step(C, oracle_coefficient(C, budget)),)
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
        # (Y^(2c) - 1)/X = 1 + Y^2 + ... + Y^(2c-2), since X = Y^2 - 1
        total = ZERO
        for k in range(self.c):
            total = add(total, power(_Y, 2 * k))
        return mul(base, total)


def lm3_closed_form(C: Connection) -> Lm3Form:
    """Closed-form parameters (a, b, c) of a realizable width-3 state.

    Vertically decomposable states have coefficient A^a Y^b X^c and the
    others A^a Y^b (Y^(2c) - 1)/X, with Y = A^-2 + A^2, X = A^-4 + 1 + A^4.
    P comes from the pruned fold (``bracket_coefficient_at``), which needs
    no oracle budget.  The parameters are read from P: at A = 1, Y is 2, X
    is 3 and (Y^(2c) - 1)/X is the odd (4^c - 1)/3, so P(1) = 2^b w gives b,
    c is the power of 3 in w or the c with 3w + 1 = 4^c, and P's lowest
    degree gives a.  The one check is that the form's value is P.  A failed
    fit raises, as does an indecomposable one with b > 1: the shapes are
    guaranteed, so failure is a bug.
    """
    if C.n != 3:
        raise ValueError("closed forms need width 3")
    if not is_realizable(C):
        raise ValueError("state is not realizable")
    P = bracket_coefficient_at(C)
    decomposable = is_vertically_decomposable(C) is not None
    kind = "decomposable" if decomposable else "indecomposable"
    at_one = sum(P.values())
    if at_one <= 0:
        raise AssertionError(f"{kind} fit failed")
    b = (at_one & -at_one).bit_length() - 1
    odd = at_one >> b
    if decomposable:
        c = 0
        while odd % 3 == 0:
            odd, c = odd // 3, c + 1
        low = -2 * b - 4 * c  # the lowest degree of Y^b X^c
    else:
        c = (3 * odd + 1).bit_length() // 2  # 3 * odd + 1 = 4^c
        low = 4 - 2 * b - 4 * c  # of Y^b (Y^(2c) - 1)/X
    form = Lm3Form(kind, min_degree(P) - low, b, c)
    if (b > 1 and not decomposable) or form.value() != P:
        raise AssertionError(f"{kind} fit failed")
    return form
