"""Command-line front end.

One subcommand per library entry point: coefficients, the brute-force
oracle, state enumeration, reduction listings, plucking polynomials, the
beta/maximal-sequence invariants, width-3 closed forms, and a self-test
sweep.  State and tree arguments are single strings in the grammars of
``states.parse_state`` / ``trees.parse_tree``; passing ``-`` reads one
input per line from stdin.

Exit codes: 0 success, 1 invalid input (including input nested too deeply
to process), 2 oracle budget exhausted, 3 self-test failure.
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable

from . import coeff as engine
from . import kauffman, laurent, maxseq, samples, states, trees


class _Parser(argparse.ArgumentParser):
    """argparse's usage failures exit 2; the CLI contract wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _inputs(raw: str) -> Iterable[str]:
    if raw != "-":
        return [raw]
    # lazily: each answer prints before the next stdin line is read
    return (line.strip() for line in sys.stdin if line.strip())


def _cmd_coeff(args) -> int:
    for text in _inputs(args.state):
        C = states.parse_state(text)
        if args.method == "oracle":
            value = kauffman.oracle_coefficient(C, args.budget_bits)
            trace = [engine.oracle_step(C, value)]
        else:
            value, trace = engine.coefficient(C, args.budget_bits)
        print(laurent.render(value))
        if args.trace:
            print(engine.render_trace(trace))
    return 0


def _cmd_oracle(args) -> int:
    for text in _inputs(args.state):
        C = states.parse_state(text)
        print(laurent.render(kauffman.oracle_coefficient(C, args.budget_bits)))
    return 0


def _cmd_enumerate(args) -> int:
    for C in states.enumerate_catalan(args.m, args.n):
        if args.realizable and not states.is_realizable(C):
            continue
        line = states.render_state(C)
        if args.coeffs:
            value, _ = engine.coefficient(C, args.budget_bits)
            line += "\t" + laurent.render(value)
        print(line)
    return 0


def _cmd_realizable(args) -> int:
    for text in _inputs(args.state):
        C = states.parse_state(text)
        print("true" if states.is_realizable(C) else "false")
    return 0


def _cmd_reductions(args) -> int:
    for text in _inputs(args.state):
        C = states.parse_state(text)
        for arc in states.find_removable_arcs(C):
            a, b = states.extended_labels(C, arc)
            name = "-".join(map(states._point_text, arc))
            print(f"removable {name}: {laurent.render(laurent.monomial(b - a))}")
        for fam in engine.iter_vertical_factorizations(C):
            names = ", ".join("-".join(map(states._point_text, a)) for a in fam.arcs)
            print(f"family start={fam.start} length={fam.length}: {names}")
    return 0


def _cmd_plucking(args) -> int:
    for text in _inputs(args.tree):
        t = trees.parse_tree(text)
        print(laurent.render(trees.plucking(t), var="q"))
    return 0


def _cmd_beta(args) -> int:
    for text in _inputs(args.state):
        print(maxseq.beta(states.parse_state(text)))
    return 0


def _cmd_maxseq(args) -> int:
    for text in _inputs(args.state):
        b = maxseq.max_sequence(states.parse_state(text))
        print(" ".join(str(x) for x in b))
    return 0


def _cmd_lm3(args) -> int:
    for text in _inputs(args.state):
        form = engine.lm3_closed_form(states.parse_state(text))
        print(f"{form.kind} a={form.a} b={form.b} c={form.c}")
    return 0


def _selftest_checks(max_mn: int):
    """Yield (name, passed) pairs for the sweep and the golden samples."""

    def sweep():
        for m in range(1, max_mn + 1):
            for n in range(1, max_mn // m + 1):
                for C in states.enumerate_catalan(m, n):
                    value, _ = engine.coefficient(C)
                    if value != kauffman.oracle_coefficient(C):
                        return False
        return True

    yield f"engine vs oracle, every state with mn <= {max_mn}", sweep()

    ok = True
    for k in range(1, 5):
        t = samples.fan_tree(k)
        want = laurent.monomial(k * k)
        want = laurent.mul(want, laurent.power({0: 1, 1: 1}, k + 1))
        want = laurent.mul(want, laurent.power({0: 1, 1: 1, 2: 1}, k))
        ok = ok and trees.plucking(t) == want
    yield "fan tree plucking product, k = 1..4", ok

    ok = True
    for k in range(1, 6):
        C = samples.stacked_return_state(k)
        b = maxseq.max_sequence(C)
        want_b = tuple(
            4 if (i % 2 == 0 and i // 2 <= k) else (2 if i == 2 * k + 2 else 3)
            for i in range(1, 2 * k + 3)
        )
        ok = ok and maxseq.beta(C) == 7 * k + 5 and b == want_b
    yield "stacked-return tower beta and maximal sequence, k = 1..5", ok

    C = samples.factor_sample_state()
    fam = samples.factor_sample_family()
    CT, Clam = engine.vertical_factor_parts(C, fam)
    whole, _ = engine.coefficient(C)
    part, _ = engine.coefficient(Clam)
    ok = (
        whole == laurent.parse("A^-14 + 3*A^-10 + 5*A^-6 + 5*A^-2 + 3*A^2 + A^6")
        and kauffman.oracle_coefficient(CT) == laurent.parse("A^-2 + A^2")
        and part == laurent.parse("A^-12 + 2*A^-8 + 3*A^-4 + 2 + A^4")
        and laurent.mul(kauffman.oracle_coefficient(CT), part) == whole
    )
    yield "factoring sample: whole, companion, rainbow part", ok

    ok = True
    for total in range(2, 11):
        for n in range(1, total):
            m = total - n
            wedge = trees.ordered_rooted_sum(trees.path_tree(n), trees.path_tree(m))
            ok = ok and trees.plucking(wedge) == laurent.q_binomial(n + m, n)
    yield "wedge of paths = Gaussian binomial, n + m <= 10", ok


def _cmd_selftest(args) -> int:
    failures = 0
    for name, passed in _selftest_checks(args.max_mn):
        print(f"{'ok' if passed else 'FAIL'}  {name}")
        failures += 0 if passed else 1
    return 3 if failures else 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="catlattice", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeff", help="coefficient of a Catalan state")
    p.add_argument("state")
    p.add_argument("--method", choices=("auto", "oracle"), default="auto")
    p.add_argument("--trace", action="store_true", help="print reduction steps")
    p.add_argument("--budget-bits", type=int, default=None)
    p.set_defaults(func=_cmd_coeff)

    p = sub.add_parser("oracle", help="brute-force bracket coefficient")
    p.add_argument("state")
    p.add_argument("--budget-bits", type=int, default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("enumerate", help="stream all states of Cat(m,n)")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--realizable", action="store_true", help="realizable only")
    p.add_argument("--coeffs", action="store_true", help="append coefficients")
    p.add_argument("--budget-bits", type=int, default=None)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("realizable", help="print true/false")
    p.add_argument("state")
    p.set_defaults(func=_cmd_realizable)

    p = sub.add_parser("reductions", help="list removable arcs and local families")
    p.add_argument("state")
    p.set_defaults(func=_cmd_reductions)

    p = sub.add_parser("plucking", help="plucking polynomial of a plane tree")
    p.add_argument("tree")
    p.set_defaults(func=_cmd_plucking)

    p = sub.add_parser("beta", help="maximal total weight of a realizing grid")
    p.add_argument("state")
    p.set_defaults(func=_cmd_beta)

    p = sub.add_parser("maxseq", help="row counts of the maximal realizing grid")
    p.add_argument("state")
    p.set_defaults(func=_cmd_maxseq)

    p = sub.add_parser("lm3", help="closed-form classification for width 3")
    p.add_argument("state")
    p.set_defaults(func=_cmd_lm3)

    p = sub.add_parser("selftest", help="oracle sweep plus golden samples")
    p.add_argument("--max-mn", type=int, default=9, dest="max_mn")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except kauffman.BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input nests too deeply", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
