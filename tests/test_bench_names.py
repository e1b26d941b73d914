"""The library names the benchmark under ``bench/`` calls or wraps.

The benchmark imports ``catlattice`` from the checkout it measures, so a
renamed or removed function breaks it; these checks catch that here.
"""

import importlib
import importlib.util
from collections.abc import Iterator
from pathlib import Path

from catlattice import coeff, states, trees

BENCH = Path(__file__).resolve().parent.parent / "bench"

#: Names bench/workloads.py calls, besides the tracer's targets.
WORKLOAD_NAMES = (
    ("coeff", "LocalFamily"),
    ("coeff", "vertical_factor_parts"),
    ("laurent", "monomial_shift"),
    ("laurent", "parse"),
    ("laurent", "render"),
    ("laurent", "star_normalize"),
    ("laurent", "substitute_power"),
    ("states", "boundary_points"),
    ("states", "enumerate_catalan"),
    ("states", "parse_state"),
    ("states", "render_state"),
    ("trees", "plucking_factored"),
    ("trees", "tree_from_state"),
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_exists():
    targets = load_tracer().TARGETS
    assert targets
    for mod, fn, _ in targets:
        module = importlib.import_module(f"catlattice.{mod}")
        assert callable(getattr(module, fn, None)), f"{mod}.{fn}"


def test_workload_names_exist():
    for mod, name in WORKLOAD_NAMES:
        module = importlib.import_module(f"catlattice.{mod}")
        assert hasattr(module, name), f"{mod}.{name}"
    # the benchmark's name for plucking must stay the one evaluator
    assert trees.plucking_factored is trees.plucking


def test_the_traced_removable_scan_is_held_by_coeff():
    # bench/tests/test_bench.py reads the tracer's wrapper off coeff, so coeff
    # holds the name; the engine runs the scan beneath it
    assert coeff.find_removable_arcs is states.find_removable_arcs


def test_family_scan_is_an_iterator():
    C = states.parse_state("cat(2,4): T1-T2, T3-L1, T4-R1, L2-B1, R2-B4, B2-B3")
    fams = coeff.iter_vertical_factorizations(C)
    assert isinstance(fams, Iterator)
    assert next(fams) == coeff.LocalFamily(
        3, 4, ((("T", 4), ("R", 1)), (("R", 2), ("B", 4)))
    )
    assert next(fams, None) is None


def test_connection_attributes_the_workloads_read():
    # bench/workloads.py reads these attributes of a Connection, and pairs
    # of points by their side letters
    C = states.parse_state("cat(2,2): T1-L1, T2-R1, L2-B1, R2-B2")
    assert (C.m, C.n, C.n_t, C.n_b) == (2, 2, 2, 2)
    assert C.pairs == (
        (("T", 1), ("L", 1)),
        (("T", 2), ("R", 1)),
        (("L", 2), ("B", 1)),
        (("R", 2), ("B", 2)),
    )
    assert isinstance(C.pairs, tuple)
