"""Command-line front end.

One subcommand per library entry point: coefficients, the brute-force
oracle, state enumeration, reduction listings, plucking polynomials, the
beta/maximal-sequence invariants, width-3 closed forms, and a self-test
sweep.  State and tree arguments are single strings in the grammars of
``states.parse_state`` / ``trees.parse_tree``; passing ``-`` reads one
input per line from stdin.

One table, ``_COMMANDS``, builds every subparser.  The eight per-input
subcommands answer through one loop over the inputs: each names what its
argument parses to and gives a function from one parsed input to its
output lines.

Exit codes: 0 success, 1 invalid input (including input past the recursion
limit), 2 oracle budget exhausted, 3 self-test failure.
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


def _cmd_each(args) -> int:
    """Answer a per-input subcommand: parse each input, print its lines."""
    for text in _inputs(args.input):
        for line in args.answer(args.parse(text), args):
            print(line)
    return 0


def _coeff(C, args):
    if args.method == "oracle":
        value = kauffman.oracle_coefficient(C, args.budget_bits)
        trace = [engine.oracle_step(C, value)]
    else:
        value, trace = engine.coefficient(C, args.budget_bits)
    yield laurent.render(value)
    if args.trace:
        yield engine.render_trace(trace)


def _oracle(C, args):
    yield laurent.render(kauffman.oracle_coefficient(C, args.budget_bits))


def _reductions(C, args):
    for arc in states.find_removable_arcs(C):
        a, b = states.extended_labels(C, arc)
        factor = laurent.render(laurent.monomial(b - a))
        yield f"removable {states._arc_text(arc)}: {factor}"
    for fam in engine.iter_vertical_factorizations(C):
        names = ", ".join(map(states._arc_text, fam.arcs))
        yield f"family start={fam.start} length={fam.length}: {names}"


def _lm3(C, args):
    form = engine.lm3_closed_form(C)
    yield f"{form.kind} a={form.a} b={form.b} c={form.c}"


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


_BUDGET = (("--budget-bits",), dict(type=int, default=None))

# name, help, what the input argument parses to (None: a whole-command
# handler instead of a per-input answer), handler, further arguments
_COMMANDS = (
    ("coeff", "coefficient of a Catalan state", "state", _coeff, (
        (("--method",), dict(choices=("auto", "oracle"), default="auto")),
        (("--trace",), dict(action="store_true", help="print reduction steps")),
        _BUDGET,
    )),
    ("oracle", "brute-force bracket coefficient", "state", _oracle, (_BUDGET,)),
    ("enumerate", "stream all states of Cat(m,n)", None, _cmd_enumerate, (
        (("m",), dict(type=int)),
        (("n",), dict(type=int)),
        (("--realizable",), dict(action="store_true", help="realizable only")),
        (("--coeffs",), dict(action="store_true", help="append coefficients")),
        _BUDGET,
    )),
    ("realizable", "print true/false", "state",
     lambda C, args: ["true" if states.is_realizable(C) else "false"], ()),
    ("reductions", "list removable arcs and local families", "state",
     _reductions, ()),
    ("plucking", "plucking polynomial of a plane tree", "tree",
     lambda t, args: [laurent.render(trees.plucking(t), var="q")], ()),
    ("beta", "maximal total weight of a realizing grid", "state",
     lambda C, args: [str(maxseq.beta(C))], ()),
    ("maxseq", "row counts of the maximal realizing grid", "state",
     lambda C, args: [" ".join(map(str, maxseq.max_sequence(C)))], ()),
    ("lm3", "closed-form classification for width 3", "state", _lm3, ()),
    ("selftest", "oracle sweep plus golden samples", None, _cmd_selftest, (
        (("--max-mn",), dict(type=int, default=9, dest="max_mn")),
    )),
)
_PARSE = {"state": states.parse_state, "tree": trees.parse_tree}


def _build_parser() -> _Parser:
    parser = _Parser(prog="catlattice", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, kind, handler, arguments in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        if kind is None:
            p.set_defaults(func=handler)
        else:
            p.add_argument("input", metavar=kind)
            p.set_defaults(func=_cmd_each, parse=_PARSE[kind], answer=handler)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
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
        print("error: input exceeds the recursion limit", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
