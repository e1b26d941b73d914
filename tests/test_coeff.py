"""The coefficient engine: strategy pipeline, traces, and closed forms."""

import functools
import importlib.util
import random
from pathlib import Path

import pytest

import states_reference as R
from catlattice import coeff as E
from catlattice import kauffman as K
from catlattice import laurent as L
from catlattice import samples
from catlattice import states as S
from test_boundary_view import random_state


def product_of_factors(trace):
    out = L.ONE
    for step in trace:
        out = L.mul(out, step.factor)
    return out


def test_render_trace_format():
    steps = [
        E.TraceStep("tree-formula", "m=1 n=2 beta=1", {0: 1}),
        E.TraceStep("removable-arc", "T1-T2", {2: 1}),
    ]
    assert E.render_trace(steps) == (
        "step 1: tree-formula m=1 n=2 beta=1 factor=1\n"
        "step 2: removable-arc T1-T2 factor=A^2"
    )


def test_coeff_no_bottom_returns_guards():
    C = S.parse_state("cat(1,2): T1-L1, T2-R1, B1-B2")
    with pytest.raises(ValueError, match="state has bottom returns"):
        E.coeff_no_bottom_returns(C)
    overfull = S.parse_state("cat(2,2): T1-B1, T2-B2, L1-L2, R1-R2")
    assert E.coeff_no_bottom_returns(overfull) == L.ZERO


@pytest.mark.parametrize("m, n", [(1, 2), (2, 2), (2, 3), (3, 2)])
def test_tree_formula_matches_oracle(m, n):
    for C in S.enumerate_catalan(m, n):
        if S.classify(C).bottom_returns:
            continue
        assert E.coeff_no_bottom_returns(C) == K.oracle_coefficient(C), (
            S.render_state(C)
        )


def test_reduce_removable():
    C = S.parse_state("cat(2,2): T1-T2, L1-B2, L2-B1, R1-R2")
    step = E.reduce_removable(C)
    assert step is not None
    factor, reduced, arc = step
    assert arc == S.find_removable_arcs(C)[0]
    assert L.is_monomial(factor)
    assert (reduced.m, reduced.n) == (1, 2)
    assert K.oracle_coefficient(C) == L.mul(
        factor, K.oracle_coefficient(reduced)
    )
    stuck = S.parse_state(
        "cat(4,6): T1-T2, T3-T4, T5-T6, L1-L2, L3-L4, R1-R2, R3-R4, "
        "B1-B2, B3-B4, B5-B6"
    )
    assert E.reduce_removable(stuck) is None


def test_local_family_detection():
    C = S.parse_state("cat(2,4): T1-T2, T3-L1, T4-R1, L2-B1, R2-B4, B2-B3")
    fams = list(E.iter_vertical_factorizations(C))
    assert E.LocalFamily(
        start=3,
        length=4,
        arcs=(((("T", 4)), ("R", 1)), (("R", 2), ("B", 4))),
    ) in fams


def test_vertical_factor_parts_product():
    C = S.parse_state("cat(2,4): T1-T2, T3-L1, T4-R1, L2-B1, R2-B4, B2-B3")
    fam = next(
        f for f in E.iter_vertical_factorizations(C) if f.start == 3
    )
    CT, CL = E.vertical_factor_parts(C, fam)
    assert S.render_state(CT) == (
        "cat(2,4): T1-T2, T3-T4, L1-B2, L2-B1, R1-B3, R2-B4"
    )
    assert S.render_state(CL) == (
        "cat(2,4): T1-T2, T3-L1, T4-B4, L2-B1, R1-R2, B2-B3"
    )
    lhs = K.oracle_coefficient(C)
    rhs = L.mul(K.bracket_coefficient_at(CT), K.oracle_coefficient(CL))
    assert lhs == rhs
    assert K.bracket_coefficient_at(CT) == {-2: 1, 2: 1}


def test_family_product_rule_small_sweep():
    for C in S.enumerate_catalan(2, 4):
        base = K.oracle_coefficient(C)
        for fam in E.iter_vertical_factorizations(C):
            CT, CL = E.vertical_factor_parts(C, fam)
            assert base == L.mul(
                K.bracket_coefficient_at(CT), K.oracle_coefficient(CL)
            ), (S.render_state(C), fam)


def neighbour_arcs(mate):
    """How many arcs join clockwise-neighbour positions."""
    N = len(mate)
    return sum(mate[k] == (k + 1) % N for k in range(N))


def test_family_rewrites_lose_a_neighbour_arc():
    # the measure that keeps a reduction chain from returning to a state:
    # a family rewrite keeps the shape and strictly lowers it
    steps = 0
    for m in range(1, 9):
        for n in range(1, 8 // m + 1):
            for C in S.enumerate_catalan(m, n):
                for fam in E.iter_vertical_factorizations(C):
                    lam_mate = S._rainbow(C.mate, fam.start, fam.length)
                    if lam_mate == C.mate:
                        continue
                    assert neighbour_arcs(lam_mate) < neighbour_arcs(C.mate), (
                        S.render_state(C), fam
                    )
                    steps += 1
    assert steps == 9040


def test_two_family_chain():
    C = S.parse_state(
        "cat(3,5): T1-T2, T3-T4, T5-R1, L1-L2, L3-B1, R2-B2, R3-B5, B3-B4"
    )
    value, trace = E.coefficient(C)
    assert [s.kind for s in trace] == [
        "vertical-factor",
        "tree-formula",
        "removable-arc",
        "vertical-factor",
        "tree-formula",
        "oracle",
    ]
    assert value == K.oracle_coefficient(C)
    assert product_of_factors(trace) == value


def test_frozen_sample_family_still_detected():
    fam = samples.factor_sample_family()
    assert (fam.start, fam.length) == samples.FACTOR_SAMPLE_WINDOW


def test_vertical_decompose():
    a = S.parse_state("cat(1,2): T1-T2, L1-B1, R1-B2")
    b = S.parse_state("cat(1,2): T1-L1, T2-R1, B1-B2")
    C = R.vertical_product(a, b)
    assert E.vertical_decompose(C) == [a, b]
    lone = S.parse_state("cat(2,2): T1-T2, L1-R1, L2-R2, B1-B2")
    assert E.vertical_decompose(lone) == [lone]


def test_decompose_trace_golden():
    a = S.parse_state("cat(1,2): T1-T2, L1-B1, R1-B2")
    b = S.parse_state("cat(1,2): T1-L1, T2-R1, B1-B2")
    value, trace = E.coefficient(R.vertical_product(a, b))
    assert value == L.ONE
    assert E.render_trace(trace) == (
        "step 1: vertical-decompose 2 blocks at saturated lines factor=1\n"
        "step 2: tree-formula m=1 n=2 beta=1 factor=1\n"
        "step 3: rotate-pi bottom returns only; half-turn image factor=1\n"
        "step 4: tree-formula m=1 n=2 beta=1 factor=1"
    )


@pytest.mark.parametrize("m, n", [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3),
                                  (3, 1), (2, 3), (3, 2)])
def test_engine_matches_oracle(m, n):
    for C in S.enumerate_catalan(m, n):
        value, trace = E.coefficient(C)
        assert value == K.oracle_coefficient(C), S.render_state(C)
        assert product_of_factors(trace) == value, S.render_state(C)


def test_engine_matches_pruned_fold_on_random_states():
    # past the exhaustive mn <= 9 sweeps: the pruned fold is the reference
    rng = random.Random(20261018)
    compared = 0
    for m, n in ((5, 6), (6, 6), (7, 7)):
        for _ in range(80):
            C = random_state(rng, m, n)
            if not S.is_realizable(C):
                continue
            try:
                value, _ = E.coefficient(C)
            except K.BudgetError:
                continue
            assert value == K.bracket_coefficient_at(C), S.render_state(C)
            compared += 1
    assert compared >= 50


def test_budget_error_when_no_reduction_applies():
    stuck = S.parse_state(
        "cat(4,6): T1-T2, T3-T4, T5-T6, L1-L2, L3-L4, R1-R2, R3-R4, "
        "B1-B2, B3-B4, B5-B6"
    )
    with pytest.raises(
        K.BudgetError,
        match="unreachable within budget: no reduction applies to this "
              "4x6 state and its grid exceeds the oracle budget",
    ):
        E.coefficient(stuck)


def test_lm3_guards():
    wide = S.parse_state("cat(1,2): T1-T2, L1-B1, R1-B2")
    with pytest.raises(ValueError, match="closed forms need width 3"):
        E.lm3_closed_form(wide)
    overfull = next(
        C for C in S.enumerate_catalan(1, 3) if not S.is_realizable(C)
    )
    with pytest.raises(ValueError, match="state is not realizable"):
        E.lm3_closed_form(overfull)


def test_lm3_golden_indecomposable():
    C = S.parse_state("cat(1,3): T1-T2, T3-R1, L1-B1, B2-B3")
    form = E.lm3_closed_form(C)
    assert form == E.Lm3Form(kind="indecomposable", a=1, b=0, c=1)
    assert L.render(form.value()) == "A"


#: Realizable Cat(7,3) states with no reduction and a grid past the oracle
#: budget, a state and its mirror image.
LM3_PAST_BUDGET = [
    (
        "cat(7,3): T1-T2, T3-R1, L1-L2, L3-L4, L5-L6, L7-B1, R2-R3, R4-R5, "
        "R6-R7, B2-B3",
        E.Lm3Form("indecomposable", 1, 0, 4),
    ),
    (
        "cat(7,3): T1-L1, T2-T3, L2-L3, L4-L5, L6-L7, R1-R2, R3-R4, R5-R6, "
        "R7-B3, B1-B2",
        E.Lm3Form("indecomposable", -1, 0, 4),
    ),
]


@pytest.mark.parametrize("text, want", LM3_PAST_BUDGET)
def test_lm3_closed_form_past_the_oracle_budget(text, want):
    C = S.parse_state(text)
    with pytest.raises(K.BudgetError, match="unreachable within budget"):
        E.coefficient(C)
    form = E.lm3_closed_form(C)
    assert form == want
    assert form.value() == K.bracket_coefficient_at(C)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_lm3_forms_reevaluate(m):
    # the forms are read from the pruned fold; the engine is the reference
    for C in S.enumerate_catalan(m, 3):
        if not S.is_realizable(C):
            continue
        form = E.lm3_closed_form(C)
        assert form.kind in ("decomposable", "indecomposable")
        if form.kind == "indecomposable":
            assert form.b in (0, 1) and form.c >= 1, (S.render_state(C), form)
        value, _ = E.coefficient(C)
        assert form.value() == value, S.render_state(C)


LM3_DECOMPOSABLE = "cat(2,3): T1-T2, T3-R1, L1-B2, L2-B1, R2-B3"
LM3_INDECOMPOSABLE = "cat(1,3): T1-T2, T3-R1, L1-B1, B2-B3"


@pytest.mark.parametrize(
    "text, P, message",
    [
        # P(1) = 5 is no 2^b 3^c
        (LM3_DECOMPOSABLE, {0: 5}, "decomposable fit failed"),
        # P(1) = 4: b = 2 and an odd rest of 1 read c = 1, whose form is not 4
        (LM3_INDECOMPOSABLE, {0: 4}, "indecomposable fit failed"),
        # a true indecomposable form, but with b = 2
        (LM3_INDECOMPOSABLE, E.Lm3Form("indecomposable", 0, 2, 1).value(),
         "indecomposable fit failed"),
        # P(1) <= 0 has no power of 2 to read
        (LM3_DECOMPOSABLE, {0: -1}, "decomposable fit failed"),
        (LM3_DECOMPOSABLE, L.ZERO, "decomposable fit failed"),
        (LM3_INDECOMPOSABLE, {-4: 1, 0: -1}, "indecomposable fit failed"),
        (LM3_INDECOMPOSABLE, L.ZERO, "indecomposable fit failed"),
    ],
)
def test_lm3_values_without_a_closed_form_raise(monkeypatch, text, P, message):
    monkeypatch.setattr(E, "bracket_coefficient_at", lambda C: dict(P))
    with pytest.raises(AssertionError, match=f"^{message}$"):
        E.lm3_closed_form(S.parse_state(text))


def test_sample_constructors_validate():
    with pytest.raises(ValueError, match="fan needs k >= 1"):
        samples.fan_tree(0)
    with pytest.raises(ValueError, match="tower needs k >= 1"):
        samples.stacked_return_state(0)


def test_nested_combs_match_recorded_values():
    # Cat(2k,4k) nested combs from the benchmark, whose tree formula needs
    # the splitting-subtree product; values recorded in bench/comb_values.json
    bench = Path(__file__).resolve().parent.parent / "bench"
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", bench / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    recorded = workloads.comb_values()
    for k in range(5, 9):
        C = S.new_connection(2 * k, 4 * k, 4 * k, workloads.nested_comb(k))
        value, trace = E.coefficient(C)
        assert L.render(value) == recorded[k], k
        assert any(step.kind == "tree-formula" for step in trace), k


def test_width_three_closed_forms_past_m_five():
    # past criterion 8's m <= 5: the pruned fold is the reference; draws the
    # engine cannot finish within budget are counted and shown on failure
    rng = random.Random(20261019)
    stuck = []
    for m in (6, 7, 8):
        compared = 0
        while compared < 40:
            C = random_state(rng, m, 3)
            if not S.is_realizable(C):
                continue
            try:
                form = E.lm3_closed_form(C)
            except K.BudgetError:
                stuck.append(S.render_state(C))
                continue
            assert form.value() == K.bracket_coefficient_at(C), (
                S.render_state(C), f"{len(stuck)} draws raised BudgetError", stuck
            )
            compared += 1
    print(f"{len(stuck)} draws raised BudgetError", stuck)


def test_reduction_yields_trace_steps_only():
    for C in (samples.factor_sample_state(), S.parse_state(REMOVE_THEN_ORACLE)):
        steps = E._reduce(C, K._budget(None))
        assert isinstance(steps, tuple) and steps
        assert all(isinstance(step, E.TraceStep) for step in steps)


def test_a_unit_tree_formula_step_reads_one():
    # the product skips unit factors; a trace of one unit factor is still 1
    value, trace = E.coefficient(S.parse_state("cat(1,2): T1-T2, L1-B1, R1-B2"))
    assert value == L.ONE and value is not L.ONE
    assert trace == [E.TraceStep("tree-formula", "m=1 n=2 beta=1", {0: 1})]


def test_an_unrealizable_state_reads_zero():
    value, trace = E.coefficient(
        S.parse_state("cat(2,2): T1-B1, T2-B2, L1-L2, R1-R2")
    )
    assert value == L.ZERO
    assert trace == [
        E.TraceStep("realizability", "a cut line is crossed too often", {})
    ]


def test_reduction_memo_is_bounded():
    assert E._reduce.cache_info().maxsize is not None


def test_reduction_memo_answers_are_fresh_copies():
    C = samples.factor_sample_state()
    E._reduce.cache_clear()
    value, trace = E.coefficient(C)
    want_value, want_trace = dict(value), E.render_trace(trace)
    assert "vertical-factor" in want_trace
    value[99] = 1
    value.clear()
    for step in trace:
        step.factor[99] = 1
    trace.pop()
    trace.append(E.TraceStep("oracle", "forged", {0: 1}))
    before = E._reduce.cache_info()
    again, again_trace = E.coefficient(C)
    after = E._reduce.cache_info()
    assert again == want_value
    assert E.render_trace(again_trace) == want_trace
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)



def test_one_shape_stream_reduces_each_state_once(monkeypatch):
    # a table of one shape reaches the same leaves from item to item; the
    # bounded memo must hold them, reducing no state more often than an
    # unbounded memo of the same reductions does
    every = list(S.enumerate_catalan(3, 4))
    assert len(every) == 429

    def misses():
        E._reduce.cache_clear()
        for C in every:
            E.coefficient(C)
        return E._reduce.cache_info().misses

    bounded = misses()
    monkeypatch.setattr(
        E, "_reduce", functools.lru_cache(maxsize=None)(E._reduce.__wrapped__)
    )
    assert bounded == misses()

REMOVE_THEN_ORACLE = "cat(2,3): T1-T2, T3-R1, L1-L2, R2-B1, B2-B3"


def budget_message(C, **kwargs):
    with pytest.raises(K.BudgetError) as err:
        E.coefficient(C, **kwargs)
    return str(err.value)


def test_tight_budget_still_raises_after_a_loose_one(monkeypatch):
    # the 1x3 remainder of this state needs the oracle, so a 2-bit budget
    # must raise however the loose call left the memo
    C = S.parse_state(REMOVE_THEN_ORACLE)
    E._reduce.cache_clear()
    cold = budget_message(C, budget_bits=2)
    assert "exceeds the oracle budget" in cold
    E._reduce.cache_clear()
    assert E.coefficient(C, budget_bits=20)[0] == K.oracle_coefficient(C)
    assert budget_message(C, budget_bits=2) == cold
    E._reduce.cache_clear()
    assert E.coefficient(C)[0] == K.oracle_coefficient(C)
    monkeypatch.setenv("ORACLE_BUDGET_BITS", "2")
    assert budget_message(C) == cold


def test_warm_and_cold_reductions_agree():
    # every state with mn <= 12 is about 2 million states, so the strips
    # are cut at m + n <= 8 (9176 states)
    every = [
        C
        for m in range(1, 8)
        for n in range(1, 9 - m)
        if m * n <= 12
        for C in S.enumerate_catalan(m, n)
    ]

    def answers(order):
        E._reduce.cache_clear()
        out = {}
        for C in order:
            value, trace = E.coefficient(C)
            out[C] = (L.render(value), E.render_trace(trace))
        return out

    forward = answers(every)
    assert len(forward) == 9176
    assert answers(reversed(every)) == forward
