"""One benchmark pass in a fresh process; prints one JSON line.

    python3 bench/child.py pass  --workload W --seed S [--smoke]
    python3 bench/child.py trace --workload W --seed S [--smoke] --spans FILE
    python3 bench/child.py gate  --workload W --seed S [--smoke] --outputs FILE

``pass`` times every item of the workload, one after another, from cold
caches.  ``trace`` does the same with the layer functions wrapped, then
writes the spans to FILE.  ``gate`` checks the outputs of a pass (a JSON
list in FILE) against the references and reports the wrong items.

``bench/run.py`` starts these with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import catlattice  # noqa: F401  (loaded before any clock starts)
import workloads


def timed_pass(workload: str, items: list, tracer=None) -> dict:
    """Send every item in order; time each one and the whole pass."""
    outputs, item_ms, errors = [], [], []
    clock = time.perf_counter
    start = clock()
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.item = i
        t = clock()
        try:
            out = workloads.run_item(workload, item)
        except Exception as exc:  # a failed item is counted, not fatal
            out = None
            errors.append(f"item {i}: {type(exc).__name__}: {exc}")
        item_ms.append((clock() - t) * 1e3)
        outputs.append(out)
    wall = clock() - start
    return {
        "wall_s": wall,
        "item_ms": item_ms,
        "outputs": outputs,
        "errors": errors[:5],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "origin": start,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("pass", "trace", "gate"))
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--outputs")
    args = parser.parse_args(argv)

    if args.mode == "gate":
        with open(args.outputs) as fh:
            outputs = json.load(fh)
        wrong, notes = workloads.check(args.workload, args.seed, outputs, args.smoke)
        print(json.dumps({"wrong": wrong, "notes": notes}))
        return 0

    items = workloads.inputs(args.workload, args.seed, args.smoke)
    if args.mode == "pass":
        result = timed_pass(args.workload, items)
    else:
        from tracer import Tracer

        tracer = Tracer()
        tracer.patch()
        try:
            result = timed_pass(args.workload, items, tracer)
        finally:
            tracer.unpatch()
        result["restored"] = tracer.restored()
        result["layers"] = tracer.layer_metrics()
        result["spans"] = tracer.dump(args.spans, result["origin"])
    del result["origin"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
