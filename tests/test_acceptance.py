"""Acceptance sweep: one test (and one printed pass/fail line) per criterion.

Every check is bit-exact; no tolerances.  The helper prints the line before
asserting so a failure still reports its criterion.
"""

import random
import time

import pytest
from plucking_reference import plucking_by_definition

from catlattice import coeff as E
from catlattice import kauffman as K
from catlattice import laurent as L
from catlattice import maxseq as M
from catlattice import samples
from catlattice import states as S
from catlattice import trees as T

NINE_SIZES = [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2), (2, 3),
              (3, 2), (3, 3)]


def all_sizes_with_area_at_most(bound):
    return [(m, n) for m in range(1, bound + 1)
            for n in range(1, bound // m + 1)]


def report(num, name, failures, detail=""):
    ok = not failures
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}{detail}")
    assert ok, f"criterion {num:02d} {name}: {failures[:5]}"


def test_criterion_01_engine_equals_oracle_at_nine_sizes():
    t0 = time.perf_counter()
    failures = []
    for m, n in NINE_SIZES:
        for C in S.enumerate_catalan(m, n):
            value, _ = E.coefficient(C)
            if value != K.oracle_coefficient(C):
                failures.append(S.render_state(C))
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    report(1, "engine equals oracle at nine sizes", failures,
           f" ({elapsed:.1f}s)")


def test_criterion_02_factoring_sample_golden():
    failures = []
    golden = {-14: 1, -10: 3, -6: 5, -2: 5, 2: 3, 6: 1}
    C = samples.factor_sample_state()
    value, _ = E.coefficient(C)
    if value != golden:
        failures.append(f"whole value {L.render(value)}")
    CT, CL = E.vertical_factor_parts(C, samples.factor_sample_family())
    left, _ = E.coefficient(CT)
    right, _ = E.coefficient(CL)
    if left != {-2: 1, 2: 1}:
        failures.append(f"side factor {L.render(left)}")
    if right != {-12: 1, -8: 2, -4: 3, 0: 2, 4: 1}:
        failures.append(f"residual factor {L.render(right)}")
    if L.mul(left, right) != golden:
        failures.append("factor product mismatch")
    report(2, "factoring sample golden", failures)


def test_criterion_03_fan_tree_plucking_product():
    failures = []
    one_plus_q = {0: 1, 1: 1}
    one_q_q2 = {0: 1, 1: 1, 2: 1}
    for k in range(1, 5):
        t = samples.fan_tree(k)
        want = L.monomial_shift(
            L.mul(L.power(one_plus_q, k + 1), L.power(one_q_q2, k)), k * k
        )
        if plucking_by_definition(t) != want:
            failures.append(f"k={k} definition")
        if T.plucking(t) != want:
            failures.append(f"k={k} plucking")
    report(3, "fan tree plucking product", failures)


def test_criterion_04_stacked_return_towers():
    failures = []
    for k in range(1, 6):
        C = samples.stacked_return_state(k)
        if M.beta(C) != 7 * k + 5:
            failures.append(f"k={k} beta={M.beta(C)}")
        rows = 2 * k + 2
        want = tuple(
            2 if j == rows else (4 if j % 2 == 0 else 3)
            for j in range(1, rows + 1)
        )
        if M.max_sequence(C) != want:
            failures.append(f"k={k} seq={M.max_sequence(C)}")
    report(4, "stacked-return towers", failures)


def _random_tree(rng, max_v, delay_pool):
    budget = rng.randint(1, max_v)

    def grow(b):
        if b <= 1 or rng.random() < 0.3:
            return T.Node((), rng.choice(delay_pool)), 1
        k = rng.randint(1, min(3, b - 1))
        kids, used = [], 1
        for _ in range(k):
            child, u = grow((b - used) // max(1, k))
            kids.append(child)
            used += u
        return T.Node(tuple(kids)), used

    node, _ = grow(budget)
    return node


def _vertex_paths(t):
    out = []

    def walk(node, path):
        out.append(path)
        for i, c in enumerate(node.children):
            walk(c, path + (i,))

    walk(t, ())
    return out


def test_criterion_05_random_splits_and_wedges():
    failures = []
    rng = random.Random(20240816)
    built = 0
    while built < 500:
        dmax = rng.randint(1, 3)
        inside = _random_tree(rng, 6, list(range(1, dmax + 1)))
        tries = 0
        while inside.leaves < 2 and tries < 20:
            inside = _random_tree(rng, 6, list(range(1, dmax + 1)))
            tries += 1
        if inside.leaves < 2:
            inside = T.Node((T.Node((), 1), T.Node((), dmax)))
        outside = _random_tree(
            rng, 12 - inside.size, list(range(dmax, 5))
        )
        path = rng.choice(_vertex_paths(outside))
        host = T.subtree_at(outside, path)
        k = rng.randint(0, len(host.children))
        split = T.Split(path, k, k + len(inside.children))

        def rebuild(node, p):
            if not p:
                return T.Node(
                    node.children[:k] + inside.children + node.children[k:]
                )
            kids = list(node.children)
            kids[p[0]] = rebuild(kids[p[0]], p[1:])
            return T.Node(tuple(kids))

        whole = rebuild(outside, path)
        if whole.size > 12:
            continue
        built += 1
        lhs = plucking_by_definition(whole)
        rhs = L.mul(
            plucking_by_definition(T.split_subtree(whole, split)),
            plucking_by_definition(T.complementary_tree(whole, split)),
        )
        if lhs != rhs or T.plucking(whole) != lhs:
            failures.append(T.render_tree(whole))
    for n in range(1, 10):
        for m in range(1, 11 - n):
            w = T.ordered_rooted_sum(T.path_tree(n), T.path_tree(m))
            if T.plucking(w) != L.q_binomial(n + m, n):
                failures.append(f"wedge {n},{m}")
    report(5, "random splits and path wedges", failures)


def test_criterion_06_removable_arc_reduction_exhaustive():
    failures = []
    for m, n in all_sizes_with_area_at_most(9):
        for C in S.enumerate_catalan(m, n):
            base = K.oracle_coefficient(C)
            for arc in S.find_removable_arcs(C):
                a, b = S.extended_labels(C, arc)
                D = S.remove_arc(C, arc)
                if base != L.monomial_shift(K.oracle_coefficient(D), b - a):
                    failures.append((S.render_state(C), arc))
                if S.is_realizable(C) != S.is_realizable(D):
                    failures.append((S.render_state(C), arc, "realizability"))
    report(6, "removable-arc reduction, exhaustive mn <= 9", failures)


def test_criterion_07_local_family_factoring_exhaustive():
    failures = []
    checked = 0
    for m, n in all_sizes_with_area_at_most(9):
        for C in S.enumerate_catalan(m, n):
            base = K.oracle_coefficient(C)
            for fam in E.iter_vertical_factorizations(C):
                CT, CL = E.vertical_factor_parts(C, fam)
                side = K.bracket_coefficient_at(CT)
                if base != L.mul(side, K.oracle_coefficient(CL)):
                    failures.append((S.render_state(C), fam.start, fam.length))
                checked += 1
    report(7, "local-family factoring, exhaustive mn <= 9", failures,
           f" ({checked} families)")


def test_criterion_08_width_three_closed_forms():
    failures = []
    small_coeffs = set()
    for m in range(1, 6):
        for C in S.enumerate_catalan(m, 3):
            if not S.is_realizable(C):
                continue
            form = E.lm3_closed_form(C)
            decomposable = S.is_vertically_decomposable(C) is not None
            if (form.kind == "decomposable") != decomposable:
                failures.append((S.render_state(C), "shape"))
            value, _ = E.coefficient(C)
            if form.value() != value:
                failures.append((S.render_state(C), "re-evaluation"))
            if m == 1:
                small_coeffs.add(L.render(value))
    if small_coeffs != {"A^3", "A", "A^-1", "A^-3"}:
        failures.append(f"width-3 single-row coefficients: {small_coeffs}")
    count = sum(
        1 for C in S.enumerate_catalan(1, 3) if S.is_realizable(C)
    )
    if count != 8:
        failures.append(f"single-row realizable count {count}")
    report(8, "width-three closed forms, m <= 5", failures)


def test_criterion_09_realizability_matches_oracle_support():
    failures = []
    for m, n in all_sizes_with_area_at_most(9):
        for C in S.enumerate_catalan(m, n):
            if S.is_realizable(C) != (not L.is_zero(K.oracle_coefficient(C))):
                failures.append(S.render_state(C))
    report(9, "realizability = nonzero bracket, exhaustive mn <= 9", failures)


def test_criterion_10_frozen_conventions():
    failures = []
    # all-negative n x n grids smooth without loops and carry weight A^(-n^2)
    for n in range(1, 4):
        grid = tuple((tuple([-1] * n),) * n)
        res = K.smooth(grid)
        if res.loops != 0:
            failures.append(f"n={n} loops={res.loops}")
        o = K.oracle_coefficient(res.state)
        if L.min_degree(o) != -n * n or o[-n * n] != 1:
            failures.append(f"n={n} bottom term {L.render(o)}")

    # smoothing convention pin: a +1 marker joins north-east and
    # south-west, a -1 marker north-west and south-east
    if S.render_state(K.smooth(((-1,),)).state) != "cat(1,1): T1-L1, R1-B1":
        failures.append("negative marker resolution moved")
    if S.render_state(K.smooth(((1,),)).state) != "cat(1,1): T1-R1, L1-B1":
        failures.append("positive marker resolution moved")

    # plane-order convention pin: children in word order
    wide = S.parse_state("cat(2,2): T1-T2, L1-B2, L2-B1, R1-R2")
    if T.render_tree(T.tree_from_state(wide)) != "(((()():2)))":
        failures.append("child order moved")

    # plucking-exponent side pin: vertices right of the path count
    deep = S.parse_state("cat(2,3): T1-L1, T2-T3, L2-B1, R1-B2, R2-B3")
    tree = T.tree_from_state(deep)
    if T.render_tree(tree) != "((((()()))))":
        failures.append("calibration tree moved")
    if T.right_count(tree, (0, 0, 0, 0)) != 1:
        failures.append("exponent side moved")

    report(10, "frozen smoothing and plane-order conventions", failures)
