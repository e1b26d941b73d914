"""End-to-end runs of the command-line interface."""

import re
import subprocess
import sys

import pytest

from catlattice import cli

SAMPLE = (
    "cat(4,6): T1-L1, T2-L2, T3-T4, T5-L3, T6-R1, L4-B1, R2-R3, R4-B6, "
    "B2-B5, B3-B4"
)
SAMPLE_COEFF = "A^-14 + 3*A^-10 + 5*A^-6 + 5*A^-2 + 3*A^2 + A^6"


def run(*argv, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "catlattice.cli", *argv],
        capture_output=True,
        text=True,
        input=stdin,
        timeout=300,
    )


def test_coeff_golden():
    r = run("coeff", SAMPLE)
    assert r.returncode == 0, r.stderr
    assert r.stdout == SAMPLE_COEFF + "\n"


def test_coeff_trace():
    r = run("coeff", "--trace", "cat(1,2): T1-T2, L1-B1, R1-B2")
    assert r.returncode == 0, r.stderr
    assert r.stdout == "1\nstep 1: tree-formula m=1 n=2 beta=1 factor=1\n"
    # the oracle method's one step reads like the engine's oracle step
    r = run("coeff", "--method=oracle", "--trace",
            "cat(2,2): T1-L1, T2-R1, L2-B1, R2-B2")
    assert r.returncode == 0, r.stderr
    assert r.stdout == (
        "A^-2 + A^2\n"
        "step 1: oracle 2x2 bracket table factor=A^-2 + A^2\n"
    )


def test_coeff_methods_agree():
    state = "cat(2,2): T1-L1, T2-R1, L2-B1, R2-B2"
    auto = run("coeff", "--method=auto", state)
    oracle = run("coeff", "--method=oracle", state)
    assert auto.returncode == oracle.returncode == 0
    assert auto.stdout == oracle.stdout == "A^-2 + A^2\n"


def test_coeff_tree_method_is_a_usage_error():
    r = run("coeff", "--method=tree", "cat(2,2): T1-L1, T2-R1, L2-B1, R2-B2")
    assert r.returncode == 1
    assert r.stdout == ""
    assert "usage" in r.stderr.lower()
    assert "invalid choice: 'tree'" in r.stderr


def test_oracle_command_and_budget_exit():
    r = run("oracle", "cat(2,2): T1-L1, T2-R1, L2-B1, R2-B2")
    assert r.returncode == 0
    assert r.stdout == "A^-2 + A^2\n"
    tight = run("oracle", "--budget-bits", "3",
                "cat(2,2): T1-L1, T2-R1, L2-B1, R2-B2")
    assert tight.returncode == 2
    assert tight.stderr.startswith("error: oracle budget exceeded")


def test_unreachable_state_exits_2():
    stuck = ("cat(4,6): T1-T2, T3-T4, T5-T6, L1-L2, L3-L4, R1-R2, R3-R4, "
             "B1-B2, B3-B4, B5-B6")
    r = run("coeff", stuck)
    assert r.returncode == 2
    assert "unreachable within budget" in r.stderr


def test_enumerate():
    r = run("enumerate", "1", "1")
    assert r.returncode == 0
    assert r.stdout == (
        "cat(1,1): T1-R1, L1-B1\n"
        "cat(1,1): T1-L1, R1-B1\n"
    )


@pytest.mark.parametrize("argv", [("--", "-1", "2"), ("2", "-1", "--coeffs")])
def test_enumerate_negative_size_exits_1(argv):
    r = run("enumerate", *argv)
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr.startswith("error: ") and "negative grid size" in r.stderr


def test_enumerate_realizable_filter():
    full = run("enumerate", "2", "2")
    real = run("enumerate", "2", "2", "--realizable")
    assert len(full.stdout.splitlines()) == 14
    assert len(real.stdout.splitlines()) == 12


def test_enumerate_coeffs_column():
    r = run("enumerate", "1", "1", "--coeffs")
    assert r.stdout == (
        "cat(1,1): T1-R1, L1-B1\tA\n"
        "cat(1,1): T1-L1, R1-B1\tA^-1\n"
    )


def test_threads_flag_is_a_usage_error():
    for argv in (("--threads", "4"), ("--threads=1",)):
        r = run(*argv, "enumerate", "2", "3", "--coeffs")
        assert r.returncode == 1
        assert r.stdout == ""
        assert "usage" in r.stderr.lower()
    assert "unrecognized arguments: --threads=1" in r.stderr


def test_realizable_command():
    yes = run("realizable", "cat(1,1): T1-R1, L1-B1")
    assert (yes.returncode, yes.stdout) == (0, "true\n")
    no = run("realizable", "cat(1,2): T1-T2, L1-R1, B1-B2")
    assert (no.returncode, no.stdout) == (0, "false\n")


def test_reductions_lists_families():
    r = run("reductions", SAMPLE)
    assert r.returncode == 0
    assert r.stdout == (
        "family start=5 length=4: T6-R1, R2-R3\n"
        "family start=5 length=6: T6-R1, R2-R3, R4-B6\n"
        "family start=7 length=4: R2-R3, R4-B6\n"
        "family start=18 length=4: T1-L1, T2-L2\n"
    )


def test_reductions_lists_removable_arcs():
    r = run("reductions", "cat(2,2): T1-T2, L1-B2, L2-B1, R1-R2")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert "removable T1-T2: 1" in lines
    assert "removable L1-B2: A^2" in lines
    assert "removable L2-B1: A^2" in lines


def test_plucking_command():
    r = run("plucking", "(()())")
    assert r.returncode == 0, r.stderr
    assert r.stdout == "1 + q\n"
    f = run("plucking", "--factored", "(()())")
    assert f.returncode == 1
    assert f.stdout == ""
    assert "usage" in f.stderr.lower()
    assert "unrecognized arguments: --factored" in f.stderr
    bad = run("plucking", "(()")
    assert bad.returncode == 1
    assert bad.stderr.startswith("error: unbalanced")


@pytest.mark.parametrize(
    "argv",
    [
        ("plucking", "(" * 3000 + ")" * 3000),
        # neither nests: a flat star's split chain and the nested generators
        # of a long enumeration reach the limit all the same
        ("plucking", "(" + "()" * 500 + ")"),
        ("enumerate", "1200", "1"),
    ],
    ids=["3000", "flat-star-500", "enumerate-1200-1"],
)
def test_deep_tree_exits_1_without_a_traceback(argv):
    runs = [run(*argv)]
    if argv[0] == "plucking":
        runs.append(run("plucking", "-", stdin=argv[1] + "\n"))
    for r in runs:
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr == "error: input exceeds the recursion limit\n"


def test_deep_path_plucks_to_one():
    # parsing still recurses, but a one-leaf tree is answered without plucking
    deep = "(" * 500 + ")" * 500
    for r in (run("plucking", deep), run("plucking", "-", stdin=deep + "\n")):
        assert r.returncode == 0, r.stderr
        assert r.stdout == "1\n"


def test_beta_and_maxseq_commands():
    state = "cat(2,2): T1-L1, T2-R1, L2-B1, R2-B2"
    assert run("beta", state).stdout == "3\n"
    assert run("maxseq", state).stdout == "2 1\n"


def test_lm3_command():
    r = run("lm3", "cat(1,3): T1-T2, T3-R1, L1-B1, B2-B3")
    assert r.stdout == "indecomposable a=1 b=0 c=1\n"
    wide = run("lm3", "cat(1,1): T1-R1, L1-B1")
    assert wide.returncode == 1
    assert "closed forms need width 3" in wide.stderr


def test_lm3_command_past_the_oracle_budget():
    # no reduction applies to either state and 7x3 exceeds the oracle budget
    feed = (
        "cat(7,3): T1-T2, T3-R1, L1-L2, L3-L4, L5-L6, L7-B1, R2-R3, R4-R5, "
        "R6-R7, B2-B3\n"
        "cat(7,3): T1-L1, T2-T3, L2-L3, L4-L5, L6-L7, R1-R2, R3-R4, R5-R6, "
        "R7-B3, B1-B2\n"
    )
    r = run("lm3", "-", stdin=feed)
    assert r.returncode == 0, r.stderr
    assert r.stdout == (
        "indecomposable a=1 b=0 c=4\nindecomposable a=-1 b=0 c=4\n"
    )


def test_stdin_streams_one_result_per_line():
    feed = "cat(1,1): T1-R1, L1-B1\ncat(1,1): T1-L1, R1-B1\n"
    r = run("coeff", "-", stdin=feed)
    assert r.returncode == 0
    assert r.stdout == "A\nA^-1\n"
    b = run("beta", "-", stdin=feed)
    assert b.stdout == "1\n0\n"


ONE = "cat(1,1): T1-R1, L1-B1"
# each per-input subcommand, one input line, and that line's whole answer
PER_INPUT = [
    ("coeff", ONE, "A\n"),
    ("oracle", ONE, "A\n"),
    ("realizable", ONE, "true\n"),
    ("reductions", "cat(2,2): T1-T2, L1-B2, L2-B1, R1-R2",
     "removable T1-T2: 1\nremovable L1-B2: A^2\nremovable L2-B1: A^2\n"
     "family start=4 length=4: L1-B2, L2-B1\n"),
    ("plucking", "(()())", "1 + q\n"),
    ("beta", ONE, "1\n"),
    ("maxseq", ONE, "1\n"),
    ("lm3", "cat(4,3): T1-T2, T3-R1, L1-L2, L3-L4, R2-R3, R4-B3, B1-B2",
     "indecomposable a=0 b=1 c=2\n"),
]


@pytest.mark.parametrize(
    "command, line, answer", PER_INPUT, ids=[case[0] for case in PER_INPUT]
)
def test_stdin_answers_each_line_before_reading_the_next(
    monkeypatch, capsys, command, line, answer
):
    class Cut(Exception):
        pass

    def feed():
        yield line + "\n"
        yield "\n"
        raise Cut  # the stream breaks before EOF

    monkeypatch.setattr(sys, "stdin", feed())
    with pytest.raises(Cut):
        cli.main([command, "-"])
    assert capsys.readouterr().out == answer


def test_invalid_state_text_exits_1():
    r = run("coeff", "cat(1,1): T1+R1")
    assert r.returncode == 1
    assert r.stderr.startswith("error: ")


def test_usage_error_exits_1():
    r = run("frobnicate")
    assert r.returncode == 1
    assert "usage" in r.stderr.lower()
    listed = r.stderr.split("choose from", 1)[1]
    assert re.findall(r"\w+", listed) == [
        "coeff", "oracle", "enumerate", "realizable", "reductions",
        "plucking", "beta", "maxseq", "lm3", "selftest",
    ]


def test_selftest_passes_quickly_at_small_size():
    r = run("selftest", "--max-mn", "4")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert len(lines) == 5
    assert all(line.startswith("ok  ") for line in lines)
    assert lines[0] == "ok  engine vs oracle, every state with mn <= 4"


def test_selftest_failure_exits_3(monkeypatch, capsys):
    def rigged(max_mn):
        yield "engine vs oracle, every state with mn <= 9", True
        yield "deliberately failing check", False

    monkeypatch.setattr(cli, "_selftest_checks", rigged)
    rc = cli.main(["selftest"])
    assert rc == 3
    out = capsys.readouterr().out
    assert "FAIL  deliberately failing check" in out
