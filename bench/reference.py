"""Host speed: a fixed pass of small folds that does not use catlattice.

    python3 bench/reference.py     # prints the item times (ms) as one JSON list

The benchmark runs on shared hosts whose speed drifts by a third or more
over minutes as other tenants come and go, and a slow spell can last a
whole run.  So between its workload passes a run also makes reference
passes: a fresh process sends ITEMS, small frontier folds written here with
the standard library only (tuple states, dict polynomials: the same kind of
interpreter work as the library's folds), one at a time.  A run's reference
time is measured like its workload time -- each item's fastest pass, summed
-- so both see the same spells the same way, and every reported time is
scaled by

    REFERENCE_S / reference time of the run

which makes it seconds on a host where the reference takes REFERENCE_S.
Set-up time is scaled the same way by starts of a bare interpreter
(``python3 -c pass``) made beside the starts that import catlattice, because
starting a process slows in other spells than running Python code does.
A change to catlattice never changes the references, so it moves the scaled
times by the same factor as the measured ones.
"""

from __future__ import annotations

import json
import statistics
import time

#: Reference time (each item's fastest pass, summed) on the host the scale
#: is pinned to: a 2-vCPU Intel Xeon VM under CPython 3.11, in its usual
#: state.  Scaled times are seconds on that host.
REFERENCE_S = 0.61

#: Median start of a bare interpreter on that host, in seconds.
START_S = 0.051

#: (width, steps, salt) of each fold; all fold with three colours.
ITEMS = [(4 + i % 3, 4 + i % 4, i % 7) for i in range(1000)]

#: Sum of what the folds of ITEMS return, so a pass that did other work
#: fails instead of setting the scale.
CHECKSUM = 243162


def fold(width: int, steps: int, salt: int, colours: int = 3) -> int:
    """Fold ``steps`` columns over a frontier of ``width`` coloured slots.

    Each state maps to a polynomial (exponent -> count); each step recolours
    one slot in every way and shifts the polynomial by a weight of the old
    and new colour.  Returns the number of states left.
    """
    table = {(0,) * width: {0: 1}}
    for step in range(steps):
        pos = (step + salt) % width
        nxt: dict = {}
        for state, poly in table.items():
            for c in range(colours):
                key = state[:pos] + (c,) + state[pos + 1:]
                shift = (c * (pos + 1) + state[pos] + salt) % 13
                acc = nxt.get(key)
                if acc is None:
                    acc = nxt[key] = {}
                for e, k in poly.items():
                    e += shift
                    if e > 40:
                        e -= 40
                    acc[e] = acc.get(e, 0) + k
        table = nxt
    return len(table)


def timed_pass() -> list[float]:
    """Milliseconds taken by each item, sent one after another."""
    times, total = [], 0
    clock = time.perf_counter
    for item in ITEMS:
        t = clock()
        total += fold(*item)
        times.append((clock() - t) * 1e3)
    if total != CHECKSUM:
        raise RuntimeError(f"reference folds summed to {total}, not {CHECKSUM}")
    return times


def scale(passes: list[list[float]]) -> float:
    """Factor that turns a run's measured times into scaled times."""
    floor = sum(min(times) for times in zip(*passes)) / 1e3
    return REFERENCE_S / floor


def start_scale(bare_starts: list[float]) -> float:
    """Factor that turns a run's measured set-up times into scaled ones."""
    return START_S / statistics.median(bare_starts)


if __name__ == "__main__":
    print(json.dumps(timed_pass()))
