"""Seeded input sets, per-item work and reference checks of the benchmark.

Three workloads, each a list of items that one closed-loop client sends to
the library one after another:

* ``table``    -- states of Cat(4,5) through ``coefficient`` and ``render``
  (the ``enumerate 4 5 --coeffs`` path), from cold caches.
* ``families`` -- the local-family factoring sweep over states with
  m*n <= 7: for each detected family, split it off and evaluate the
  companion with the target-pruned fold.
* ``wide``     -- about a thousand distinct state texts far beyond the oracle
  budget through ``parse_state``, ``coefficient`` and ``render`` (the
  ``coeff -`` path).

``table`` and ``families`` send every STRIDE-th state of their exhaustive
sets (1216 of the 4862 states, 1051 of the 4204) in enumeration order, and
the seed picks where in that order the cycle starts.  A pass over these is
short enough that a run holds about ten, and an item's latency is its
fastest pass.  Every seed sends the same states, so the work does not vary
from seed to seed.  At smoke size they send the whole set.  ``wide`` is
drawn from the seed with the standard library only, so its inputs do not
depend on the code under test.

The reference checks (``check``) run in their own process after the timed
passes and return the indices of items whose output is wrong.
"""

from __future__ import annotations

import json
import os
import random
from typing import NamedTuple

WORKLOADS = ("table", "families", "wide")

#: Full and smoke sizes.  Smoke sizes keep the benchmark's own tests fast.
SIZES = {
    False: {"table": (4, 5), "families": 7,
            "wide": {"pieces": 880, "stacks": 112, "combs": (5, 6, 7, 8),
                     "rows": (6, 16), "cols": (12, 16), "stack_rows": (3, 8)}},
    True: {"table": (2, 3), "families": 4,
           "wide": {"pieces": 12, "stacks": 4, "combs": (2, 3),
                    "rows": (2, 4), "cols": (3, 5), "stack_rows": (1, 2)}},
}

#: A full-size table or families run sends every STRIDE-th state.
STRIDE = 4

#: Local families the detector finds over all states with m*n <= key,
#: recorded at the commit that introduced the benchmark; FAMILY_COUNTS_FILE
#: holds the count of each state, in ``family_states`` order.
FAMILY_COUNTS = {7: 6140, 4: 132}

#: The first FOLD_CHECKS wide items with at most FOLD_CHECK_CELLS crossings
#: are also checked with the pruned bracket fold (about a second at 6x12).
FOLD_CHECK_CELLS = 72
FOLD_CHECKS = 2

_HERE = os.path.dirname(os.path.abspath(__file__))
COMB_VALUES_FILE = os.path.join(_HERE, "comb_values.json")
FAMILY_COUNTS_FILE = os.path.join(_HERE, "family_counts.json")


# -- wide: states drawn with the standard library only -----------------------


class WideItem(NamedTuple):
    """One wide query and what its reference value is built from.

    ``kind`` is ``piece``, ``stack`` or ``comb``.  ``parts`` are the texts of
    the return-free-bottom pieces whose tree formulas multiply to the value
    (one for a piece, two for a stack); a comb also carries its ``k``.
    """

    kind: str
    text: str
    cells: int
    parts: tuple[str, ...]
    k: int = 0


def _dyck(rng: random.Random, k: int) -> list[tuple[int, int]]:
    """A uniform noncrossing perfect matching of 2k slots (cycle lemma)."""
    steps = [1] * k + [-1] * (k + 1)
    rng.shuffle(steps)
    height = low = start = 0
    for i, s in enumerate(steps):
        height += s
        if height < low:
            low, start = height, i + 1
    steps = (steps[start:] + steps[:start])[:-1]
    pairs, stack = [], []
    for i, s in enumerate(steps):
        if s == 1:
            stack.append(i)
        else:
            pairs.append((stack.pop(), i))
    return pairs


def _word_point(w: int, m: int, n: int) -> tuple[str, int]:
    """Point at position w of the word L_m..L_1 T_1..T_n R_1..R_m."""
    if w <= m:
        return ("L", m + 1 - w)
    if w <= m + n:
        return ("T", w - m)
    return ("R", w - m - n)


def _realizable(pairs, m: int, n: int) -> bool:
    """No interior horizontal line cut more than n times, no vertical more than m."""
    top = {("T", k) for k in range(1, n + 1)}
    left = {("L", k) for k in range(1, m + 1)}
    for i in range(1, m):
        region = top | {(s, j) for s in "LR" for j in range(1, i + 1)}
        if sum((p in region) != (q in region) for p, q in pairs) > n:
            return False
    for j in range(1, n):
        region = left | {(s, k) for s in "TB" for k in range(1, j + 1)}
        if sum((p in region) != (q in region) for p, q in pairs) > m:
            return False
    return True


def _top_returns(pairs) -> int:
    return sum(p[0] == q[0] == "T" for p, q in pairs)


def random_piece(rng: random.Random, m: int, n: int) -> list:
    """A realizable Cat(m,n) state whose bottom edge carries no return.

    Unfolded over the top, such a state is n strands dropping to B1..Bn with
    noncrossing arches in the even gaps between them; m arches are spread
    over the n+1 gaps and each gap gets a uniform matching.
    """
    while True:
        gaps = [0] * (n + 1)
        for _ in range(m):
            gaps[rng.randrange(n + 1)] += 1
        pairs = []
        w = 1
        for g, k in enumerate(gaps):
            pairs += [(_word_point(w + a, m, n), _word_point(w + b, m, n))
                      for a, b in _dyck(rng, k)]
            w += 2 * k
            if g < n:
                pairs.append((_word_point(w, m, n), ("B", g + 1)))
                w += 1
        if _realizable(pairs, m, n):
            return pairs


def half_turn(pairs, m: int, n: int) -> list:
    flip = {"T": "B", "B": "T", "L": "R", "R": "L"}

    def f(p):
        side, i = p
        return (flip[side], (n if side in "TB" else m) + 1 - i)

    return [(f(p), f(q)) for p, q in pairs]


def stack(upper, m1: int, lower, n: int) -> list:
    """Glue ``upper`` (no bottom returns) on ``lower`` (no top returns).

    Every interface point runs straight through, so the seam is a saturated
    line of the glued Cat(m1+m2, n) state.
    """
    def shift(p):
        return (p[0], p[1] + m1) if p[0] in "LR" else p

    down = {}
    for p, q in lower:
        if q[0] == "T":
            p, q = q, p
        if p[0] == "T":
            down[p[1]] = shift(q)
    pairs = []
    for p, q in upper:
        if p[0] == "B":
            p, q = q, p
        pairs.append((p, down[q[1]]) if q[0] == "B" else (p, q))
    pairs += [(shift(p), shift(q)) for p, q in lower if "T" not in (p[0], q[0])]
    return pairs


def nested_comb(k: int) -> list:
    """Cat(2k,4k): top pairs T(4i-3)-T(4i) around T(4i-2)-T(4i-1), sides down."""
    m = 2 * k
    pairs = []
    for i in range(1, k + 1):
        pairs += [(("T", 4 * i - 3), ("T", 4 * i)),
                  (("T", 4 * i - 2), ("T", 4 * i - 1))]
    for j in range(1, m + 1):
        pairs += [(("L", j), ("B", m + 1 - j)), (("R", j), ("B", m + j))]
    return pairs


def state_text(pairs, m: int, n: int) -> str:
    body = ", ".join(f"{p[0]}{p[1]}-{q[0]}{q[1]}" for p, q in pairs)
    return f"cat({m},{n}): {body}"


def wide_items(seed: int, smoke: bool = False) -> list[WideItem]:
    """The wide input set of one seed, in the order it is sent."""
    size = SIZES[smoke]["wide"]
    rng = random.Random(seed)
    lo, hi = size["rows"]
    c_lo, c_hi = size["cols"]
    # Grid sizes follow a fixed cycle and only the states are drawn, so the
    # work in a set varies less from seed to seed.
    grids = [(m, n) for m in range(lo, hi + 1) for n in range(max(m, c_lo), c_hi + 1)]
    items = []
    for i in range(size["pieces"]):
        m, n = grids[i % len(grids)]
        pairs = random_piece(rng, m, n)
        plain = state_text(pairs, m, n)
        text = state_text(half_turn(pairs, m, n), m, n) if i % 2 else plain
        items.append(WideItem("piece", text, m * n, (plain,)))
    s_lo, s_hi = size["stack_rows"]
    stacks = [(m1, m2, n) for m1 in range(s_lo, s_hi + 1)
              for m2 in range(s_lo, s_hi + 1) for n in range(c_lo, c_hi + 1)]
    for i in range(size["stacks"]):
        *heights, n = stacks[i * len(stacks) // size["stacks"]]
        halves = []
        for m in heights:
            pairs = random_piece(rng, m, n)
            while not _top_returns(pairs):
                pairs = random_piece(rng, m, n)
            halves.append((m, pairs))
        (m1, up), (m2, low) = halves
        glued = stack(up, m1, half_turn(low, m2, n), n)
        items.append(WideItem(
            "stack", state_text(glued, m1 + m2, n), (m1 + m2) * n,
            (state_text(up, m1, n), state_text(low, m2, n)),
        ))
    for k in size["combs"]:
        pairs, m, n = nested_comb(k), 2 * k, 4 * k
        for turned in (False, True):
            text = state_text(half_turn(pairs, m, n) if turned else pairs, m, n)
            items.append(WideItem("comb", text, m * n, (state_text(pairs, m, n),), k))
    rng.shuffle(items)
    return items


# -- input sets -----------------------------------------------------------


def order(size: int, seed: int, smoke: bool) -> list[int]:
    """Indices into an exhaustive set of ``size`` states, in sending order."""
    kept = list(range(0, size, 1 if smoke else STRIDE))
    start = random.Random(seed).randrange(len(kept))
    return kept[start:] + kept[:start]


def family_states(max_mn: int) -> list:
    from catlattice import states

    out = []
    for m in range(1, max_mn + 1):
        for n in range(1, max_mn // m + 1):
            out += states.enumerate_catalan(m, n)
    return out


def inputs(workload: str, seed: int, smoke: bool = False) -> list:
    """Items of one workload: Connections for table and families, texts for wide."""
    size = SIZES[smoke][workload]
    if workload == "table":
        from catlattice import states

        every = list(states.enumerate_catalan(*size))
    elif workload == "families":
        every = family_states(size)
    elif workload == "wide":
        return [item.text for item in wide_items(seed, smoke)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [every[i] for i in order(len(every), seed, smoke)]


# -- one item ----------------------------------------------------------------


def run_item(workload: str, item) -> str:
    """The library calls one item makes; returns its text output.

    Library functions are looked up on their modules at call time, so a
    traced run sees the patched names.
    """
    from catlattice import coeff, kauffman, laurent, states

    if workload == "families":
        out = []
        for fam in coeff.iter_vertical_factorizations(item):
            companion, _ = coeff.vertical_factor_parts(item, fam)
            side = kauffman.bracket_coefficient_at(companion)
            out.append(f"{fam.start}:{fam.length}:{laurent.render(side)}")
        return ";".join(out)
    if workload == "wide":
        item = states.parse_state(item)
    value, _ = coeff.coefficient(item)
    return laurent.render(value)


# -- reference checks -----------------------------------------------------------


def comb_values() -> dict[int, str]:
    with open(COMB_VALUES_FILE) as fh:
        return {int(k): v for k, v in json.load(fh).items()}


def family_counts(max_mn: int) -> list[int]:
    with open(FAMILY_COUNTS_FILE) as fh:
        return json.load(fh)[str(max_mn)]


def tree_route(text: str):
    """Coefficient of a realizable state without bottom returns, through the
    factored plucking evaluator instead of the engine's recursive one."""
    from catlattice import laurent, maxseq, states, trees

    C = states.parse_state(text)
    Q = laurent.star_normalize(trees.plucking_factored(trees.tree_from_state(C)))
    return laurent.monomial_shift(
        laurent.substitute_power(Q, -4), 2 * maxseq.beta(C) - C.m * C.n
    )


def check(workload: str, seed: int, outputs: list, smoke: bool = False):
    """Indices of wrong outputs, plus notes on checks that span all items.

    ``None`` in ``outputs`` marks an item that raised; it is counted wrong.
    """
    from catlattice import kauffman, laurent, states

    wrong = [i for i, out in enumerate(outputs) if out is None]
    notes = []
    items = inputs(workload, seed, smoke) if workload != "wide" else None
    if workload == "table":
        table = kauffman.bracket_table(*SIZES[smoke]["table"])
        for i, C in enumerate(items):
            if outputs[i] is not None and outputs[i] != laurent.render(
                table.get(C, laurent.ZERO)
            ):
                wrong.append(i)
    elif workload == "families":
        from catlattice import coeff

        companions = {}
        total = 0
        for i, C in enumerate(items):
            if outputs[i] is None:
                continue
            fams = outputs[i].split(";") if outputs[i] else []
            total += len(fams)
            base = kauffman.oracle_coefficient(C)
            points = states.boundary_points(C.m, C.n, C.n)
            for fam in fams:
                start, length, side = fam.split(":", 2)
                start, length = int(start), int(length)
                inside = {points[(start + k) % len(points)] for k in range(length)}
                arcs = tuple(a for a in C.pairs if a[0] in inside and a[1] in inside)
                companion, rest = coeff.vertical_factor_parts(
                    C, coeff.LocalFamily(start, length, arcs)
                )
                if companion not in companions:
                    companions[companion] = laurent.render(
                        tree_route(states.render_state(companion))
                        if states.is_realizable(companion) else laurent.ZERO
                    )
                if side != companions[companion] or base != laurent.mul(
                    laurent.parse(side), kauffman.oracle_coefficient(rest)
                ):
                    wrong.append(i)
                    break
        counts = family_counts(SIZES[smoke]["families"])
        want = sum(counts[i] for i in order(len(counts), seed, smoke))
        if total != want:
            notes.append(f"found {total} local families, recorded {want}")
    elif workload == "wide":
        combs = comb_values()
        folds = 0
        for i, item in enumerate(wide_items(seed, smoke)):
            if outputs[i] is None:
                continue
            value = laurent.ONE
            for part in item.parts:
                value = laurent.mul(value, tree_route(part))
            want = laurent.render(value)
            if item.kind == "comb" and want != combs[item.k]:
                notes.append(f"comb k={item.k}: tree route disagrees with record")
                want = combs[item.k]
            if outputs[i] != want:
                wrong.append(i)
            elif item.cells <= FOLD_CHECK_CELLS and folds < FOLD_CHECKS:
                folds += 1
                fold = kauffman.bracket_coefficient_at(states.parse_state(item.text))
                if laurent.render(fold) != want:
                    wrong.append(i)
        if folds < FOLD_CHECKS:
            notes.append(f"only {folds} items were small enough for the fold check")
    return sorted(set(wrong)), notes
