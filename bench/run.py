"""Benchmark of catlattice: exact coefficients, end to end and layer by layer.

One run measures one workload for one seed:

    python3 bench/run.py --workload table --seed 1 --seconds 58 --trace 0

Each pass is a fresh single-threaded child process (``bench/child.py``)
that sends the workload's items one at a time (closed loop, one client)
from cold caches.  Passes repeat while another one still fits in
``--seconds``, and each item's latency is its fastest pass.  Set-up time is
the median of interpreter starts that import the package, made between the
passes.  A child process then checks every output of the first pass against
its reference, outside any timed region.  Each round also makes one pass of
the fixed reference work in ``bench/reference.py`` and starts a bare
interpreter beside each set-up start, and every reported time is scaled to a
host of fixed speed by these (``bench/reference.py`` says how); the measured
figures are printed beside the scaled ones.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics derived from
the traced passes' spans, plus ``trace.overhead_frac`` (traced over
untraced wall time, minus one).  Span dumps go to ``bench/out``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Steadiness mode runs whole benchmark runs repeatedly, alternating the order
of the workloads and taking a new seed per round, and prints the median and
quartiles of every end-to-end metric:

    python3 bench/run.py --steadiness 10 --seconds 58 [--workloads table,wide]

``BENCHMARK.json`` lists the workloads a regression check runs (``table``
and ``families``); ``wide`` runs the same way when named.  ``--smoke``
shrinks every input set to a few items, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.py")

sys.path.insert(0, HERE)
import reference  # noqa: E402
import workloads  # noqa: E402  (standard library only at import)
from tracer import metric_names  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_p50_ms", "ms"),
    ("item_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
#: Set-up starts run before each pass and after the last, so that they
#: spread over the run like the passes do; so does one reference pass.
SETUP_STARTS = 3
#: Every run, child processes included, ends within this many seconds.
RUN_LIMIT_S = 170


class BenchError(Exception):
    """A child process failed; the run reports no result."""


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
    }


class Runner:
    """Starts the child processes of one run, within one deadline."""

    def __init__(self, workload: str, seed: int, smoke: bool):
        self.workload, self.seed, self.smoke = workload, seed, smoke
        self.deadline = time.monotonic() + RUN_LIMIT_S
        src = os.path.join(ROOT, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(
            os.environ,
            PYTHONPATH=src + (os.pathsep + path if path else ""),
            PYTHONHASHSEED="0",
        )

    def _run(self, cmd: list[str]) -> str:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
        try:
            proc = subprocess.run(
                cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                timeout=left,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"run exceeded {RUN_LIMIT_S} s") from None
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-3:]
            raise BenchError(f"{' '.join(cmd[1:3])} failed: " + " | ".join(tail))
        return proc.stdout

    def setup_times(self, starts: int) -> tuple[list[float], list[float]]:
        """Interpreter start plus ``import catlattice``, timed from outside,
        and as many starts of a bare interpreter, alternating with them."""
        cmds = ([sys.executable, "-c", "import catlattice"],
                [sys.executable, "-c", "pass"])
        times = ([], [])
        for _ in range(starts):
            for cmd, out in zip(cmds, times):
                t = time.perf_counter()
                self._run(cmd)
                out.append(time.perf_counter() - t)
        return times

    def child(self, mode: str, *extra: str) -> dict:
        cmd = [sys.executable, CHILD, mode, "--workload", self.workload,
               "--seed", str(self.seed), *extra]
        if self.smoke:
            cmd.append("--smoke")
        return json.loads(self._run(cmd).splitlines()[-1])

    def reference(self) -> list[float]:
        """Item times of one reference pass, in a fresh process."""
        return json.loads(self._run([sys.executable, REFERENCE]).splitlines()[-1])

    def gate(self, outputs: list) -> tuple[list[int], list[str]]:
        path = os.path.join(OUT, f"outputs-{self.workload}-seed{self.seed}.json")
        with open(path, "w") as fh:
            json.dump(outputs, fh)
        got = self.child("gate", "--outputs", path)
        return got["wrong"], got["notes"]


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def measure(args) -> dict:
    """One run: set-up starts, timed passes, the reference check."""
    runner = Runner(args.workload, args.seed, args.smoke)
    os.makedirs(OUT, exist_ok=True)
    runner.setup_times(1)  # compiles bytecode once, untimed
    spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    setup, bare, ref, plain, traced = [], [], [], [], []
    start = time.monotonic()
    cycle = 0.0  # longest round so far: reference pass, set-up starts, passes
    while not plain or time.monotonic() - start + cycle <= args.seconds:
        t = time.monotonic()
        ref.append(runner.reference())
        starts = runner.setup_times(SETUP_STARTS)
        setup += starts[0]
        bare += starts[1]
        plain.append(runner.child("pass"))
        if args.trace:
            traced.append(runner.child("trace", "--spans", spans))
        cycle = max(cycle, time.monotonic() - t)
    starts = runner.setup_times(SETUP_STARTS)
    setup += starts[0]
    bare += starts[1]
    wrong, notes = runner.gate(plain[0]["outputs"])
    first = plain[0]["outputs"]
    bad = set(wrong)
    failed = 0
    for p in plain + traced:
        failed += sum(
            out is None or out != first[i] or i in bad
            for i, out in enumerate(p["outputs"])
        )
    if traced and not all(t["restored"] for t in traced):
        notes.append("a patched module attribute was not restored")
    errors = [e for p in plain + traced for e in p["errors"]]
    return {
        "setup": setup, "bare": bare, "reference": ref, "plain": plain,
        "traced": traced, "notes": notes, "errors": errors[:5], "failed": failed,
        "attempted": sum(len(p["outputs"]) for p in plain + traced),
    }


def end_to_end(run: dict) -> tuple[dict, dict]:
    """Metric values, and the sample count behind each.

    Every pass sends the same items in the same order from the same cold
    start, so an item does the same work in each pass.  Its latency is its
    fastest pass: on a shared host, other tenants only ever add time, and
    their load comes and goes over seconds.  ``wall_s`` sums these
    latencies over the input set.  Every time is then scaled by the run's
    ``reference.scale`` (set-up time by ``reference.start_scale``), which
    takes out a slow spell of the host that lasts the run.
    """
    plain = run["plain"]
    passes = len(plain)
    speed = reference.scale(run["reference"])
    best = [min(times) * speed for times in zip(*(p["item_ms"] for p in plain))]
    items = sorted(best)
    setup = statistics.median(run["setup"])
    values = {
        "setup_s": setup * reference.start_scale(run["bare"]),
        "wall_s": sum(best) / 1e3,
        "item_p50_ms": percentile(items, 0.50),
        "item_p99_ms": percentile(items, 0.99),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    beyond = len(items) - math.ceil(0.99 * len(items))
    walls = ", ".join(f"{p['wall_s']:.3f}" for p in plain)
    notes = {
        "setup_s": f"median of {len(run['setup'])} starts, measured {setup:.4f} s; "
                   f"bare starts {statistics.median(run['bare']):.4f} s",
        "wall_s": f"{len(items)} items, best of {passes} passes, "
                  f"measured {sum(best) / speed / 1e3:.3f} s; pass walls {walls} s",
        "item_p50_ms": f"{len(items)} samples, best of {passes} passes",
        "item_p99_ms": f"{len(items)} samples, {beyond} beyond",
        "peak_rss_mb": f"median of {passes} passes",
    }
    return values, notes


def per_layer(run: dict) -> dict:
    traced = run["traced"]
    values = {  # median_low keeps the call counts whole
        name: statistics.median_low(t["layers"][name] for t in traced)
        for name, _ in metric_names()
    }
    untraced = statistics.median(p["wall_s"] for p in run["plain"])
    values["trace.overhead_frac"] = (
        statistics.median(t["wall_s"] for t in traced) / untraced - 1
    )
    return values


def print_layers(values: dict, traced_wall: float) -> None:
    print(f"  {'layer':42} {'calls':>9} {'self_s':>9} {'share':>6}  ratio")
    rows = []
    for name, unit in metric_names():
        if unit == "count":
            layer = name[: -len(".calls")]
            ratio = next(
                (f"{k.rsplit('.', 1)[1]}={values[k]:.3f}" for k in values
                 if k.startswith(layer + ".") and k.endswith("_frac")), ""
            )
            rows.append((values[layer + ".self_s"], layer, values[name], ratio))
    for self_s, layer, calls, ratio in sorted(rows, reverse=True):
        share = self_s / traced_wall if traced_wall else 0.0
        print(f"  {layer:42} {calls:9d} {self_s:9.3f} {share:6.1%}  {ratio}")
    print(f"  trace.overhead_frac {values['trace.overhead_frac']:.3f}")


def one_run(args) -> int:
    try:
        run = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    info = machine()
    print(f"machine: nproc={info['nproc']} cpu={info['cpu']} python={info['python']}")
    print(
        f"workload {args.workload} seed {args.seed}: "
        f"{len(run['plain'][0]['outputs'])} items, {len(run['plain'])} passes"
        + (f" + {len(run['traced'])} traced" if run["traced"] else "")
    )
    for line in run["notes"] + run["errors"]:
        print(f"  check: {line}")
    if args.trace:
        values = per_layer(run)
        units = dict(metric_names(), **{"trace.overhead_frac": "ratio"})
        traced_wall = statistics.median(t["wall_s"] for t in run["traced"])
        print_layers(values, traced_wall)
    else:
        values, notes = end_to_end(run)
        units = dict(END_TO_END)
        floor = reference.REFERENCE_S / reference.scale(run["reference"])
        print(f"  times scaled by {reference.REFERENCE_S / floor:.4f}: the reference "
              f"took {floor:.4f} s (best of {len(run['reference'])} passes), "
              f"{reference.REFERENCE_S} s on the reference host")
        for name, unit in END_TO_END:
            print(f"  {name:12} {values[name]:12.6g} {unit:3} ({notes[name]})")
    frac = run["failed"] / run["attempted"]
    print(f"  {'failed_frac':12} {frac:12.6g}     "
          f"({run['failed']} of {run['attempted']} items)")
    print(json.dumps({
        "correct": run["failed"] == 0 and not run["notes"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


def steadiness(args) -> int:
    """Repeat whole runs, alternating workload order; report spread."""
    names = args.workloads.split(",")
    bounds = {}
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    except (OSError, KeyError, ValueError):
        pass
    record = {"machine": machine(), "seconds": args.seconds, "runs": []}
    for rep in range(args.steadiness):
        seed = args.seed + rep
        for name in names if rep % 2 == 0 else names[::-1]:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            if args.smoke:
                cmd.append("--smoke")
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            record["runs"].append({
                "workload": name, "seed": seed, "result": result,
                "log": proc.stdout.splitlines()[:-1],
            })
            shown = " ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
            )
            print(f"round {rep} {name} seed {seed}: correct={result['correct']} {shown}",
                  flush=True)
    summary = {}
    print(f"{'workload':9} {'metric':12} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'bound':>6}")
    for name in names:
        runs = [r["result"] for r in record["runs"] if r["workload"] == name]
        for metric, _unit in END_TO_END:
            vals = [r["metrics"][metric]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
            spread = (q3 - q1) / med
            bound = bounds.get(metric)
            flag = "" if bound is None or spread < bound / 3 else "  above bound/3"
            summary[f"{name}.{metric}"] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
            }
            print(f"{name:9} {metric:12} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{spread:7.3f} {bound if bound is not None else '-':>6}{flag}")
        print(f"{name:9} correct in {sum(r['correct'] for r in runs)} of {len(runs)} runs")
    record["summary"] = summary
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"steadiness-{int(time.time())}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"record: {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=58)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--steadiness", type=int, metavar="ROUNDS")
    parser.add_argument("--workloads", default=",".join(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    if args.steadiness:
        return steadiness(args)
    if args.workload is None:
        parser.error("--workload is required")
    return one_run(args)


if __name__ == "__main__":
    sys.exit(main())
