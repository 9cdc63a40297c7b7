"""Benchmark for dahalink: one workload per process, closed loop, one client.

Usage (from the repository root):

    python3 perfbench/run.py --workload construct --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``construct`` (build and verify modules),
``extract`` (restricted Leonard pairs and generic Huang data) and ``link``
(the ``dahalink link --construct`` command, run in-process).  Each operation
starts only after the previous one returns, from one thread.  The set-up (a
fresh import and the first inputs) runs five times with the same seed and
``setup_s`` is its median.  The loop runs until the ops have taken
``--seconds``; inputs beyond the prebuilt ones are made between ops.  Every
output is checked right after its op, outside the timed interval, with the
independent checks in ``checks.py``; an op that raises or fails its check
counts as failed.  Throughput is ops completed over the summed op time, the
loop's wall time without input making and checks.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics instead: it runs the scalar calibration loop, then half
the time with the tracer of ``tracer.py`` installed, then replays the same
inputs untraced to measure the tracer's overhead.  The spans of the last
traced run of each workload are written to ``perfbench/out/trace-<workload>.jsonl``.
No layer queues work, so there is no wait time to report.

``--smoke`` runs a handful of the smallest inputs and fails unless every
metric name is emitted with its unit; the benchmark's own tests use it.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
facts of the run (machine, op count, tail percentile, input mix).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import types
from fractions import Fraction as F
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import ELIMINATIONS, GROUPS, HARNESS, LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, schedule  # noqa: E402

END_TO_END = {
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_ops_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER = {
    "exactfield.mul_q_ns": "ns", "exactfield.add_q_ns": "ns",
    "exactfield.inv_q_ns": "ns", "exactfield.mul_ext_ns": "ns",
    "exactfield.add_ext_ns": "ns", "exactfield.inv_ext_ns": "ns",
    "exactfield.elements_per_op": "count/op", "exactfield.mul_per_op": "count/op",
    "exactlinalg.matmul_calls_per_op": "calls/op",
    "exactlinalg.matmul_self_s_per_op": "s/op",
    "exactlinalg.matmul_nonzero_share": "share",
    "exactlinalg.rowreduce_calls_per_op": "calls/op",
    "exactlinalg.rowreduce_self_s_per_op": "s/op",
    "exactlinalg.char_poly_self_s_per_op": "s/op",
    "exactlinalg.restrict_self_s_per_op": "s/op",
    "leonard.recognize_calls_per_op": "calls/op",
    "leonard.recognize_self_s_per_op": "s/op",
    "leonard.split_self_s_per_op": "s/op",
    "leonard.huang_self_s_per_op": "s/op",
    "daha.build_self_s_per_op": "s/op",
    "daha.verify_calls_per_op": "calls/op",
    "daha.verify_self_s_per_op": "s/op",
    "daha.feasible_calls_per_op": "calls/op",
    "daha.feasible_self_s_per_op": "s/op",
    "daha.split_self_s_per_op": "s/op",
    "daha.link_self_s_per_op": "s/op",
    "daha.build_slope": "1",
    "daha.verify_slope": "1",
    "cli.self_s_per_op": "s/op",
    "cli.report_bytes_per_op": "bytes/op",
    **{f"{layer}.self_share": "share" for layer in LAYERS + (HARNESS,)},
    "trace.self_sum_share": "share",
    "trace.overhead_ratio": "ratio",
}

SETUP_PASSES = 5


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


def import_dahalink() -> types.SimpleNamespace:
    """A fresh import of the package and its five layers."""
    for name in [n for n in sys.modules if n == "dahalink" or n.startswith("dahalink.")]:
        del sys.modules[name]
    importlib.import_module("dahalink")
    return types.SimpleNamespace(**{
        layer: importlib.import_module(f"dahalink.{layer}") for layer in LAYERS})


class Inputs:
    """The seeded input stream of one run, in schedule order.  Indexing
    past the inputs made so far makes the next ones."""

    def __init__(self, wl, dl, seed: int, workdir: Path, smoke: bool) -> None:
        self.wl, self.dl, self.workdir = wl, dl, workdir
        self.rng = random.Random(f"{wl.name}:{seed}")
        self.slots = itertools.cycle(wl.smoke) if smoke else schedule(wl.weights)
        self.seen: set = set()
        self.visits: dict = {}
        self.made: list = []

    def __getitem__(self, i: int):
        while len(self.made) <= i:
            slot = next(self.slots)
            visit = self.visits[slot] = self.visits.get(slot, -1) + 1
            self.made.append(self.wl.make_input(
                self.dl, self.rng, slot, visit, self.seen, self.workdir))
        return self.made[i]


def set_up(wl, seed: int, passes: int, workdir: Path, smoke: bool = False):
    """The whole set-up, ``passes`` times: a fresh import, then the first
    ``wl.prebuilt`` inputs (the same ones each pass).  Returns the last
    import, its input stream, and each pass's wall time."""
    times = []
    for _ in range(passes):
        start = time.perf_counter()
        dl = import_dahalink()
        inputs = Inputs(wl, dl, seed, workdir, smoke)
        inputs[len(wl.smoke) - 1 if smoke else wl.prebuilt - 1]
        times.append(time.perf_counter() - start)
    return dl, inputs, times


# ---------------------------------------------------------------------------
# The timed loop
# ---------------------------------------------------------------------------


def evaluate(wl, inp, out, error) -> tuple[list[str], dict]:
    """The failure messages of one op (empty when it is correct) and the
    facts about its input and output."""
    if error:
        return [error], {}
    try:
        return wl.check(inp, out), wl.describe(inp, out)
    except Exception as exc:  # malformed output fails its check
        return [f"unreadable output: {type(exc).__name__}: {exc}"], {}


def timed_loop(wl, dl, inputs, seconds: float, tracer=None, count=None):
    """Run ops (at least one) until they have taken ``seconds``, or exactly
    ``count`` ops when it is given.  Each op is timed alone; its input is
    made before and its output checked after, both outside its timed
    interval.  Returns the records ``(input, latency, failure messages,
    facts)`` and the summed op time, which is the wall time of the closed
    loop without input making and checks."""
    records = []
    busy = 0.0
    untraced = tracer.paused if tracer else contextlib.nullcontext
    while not records or (busy < seconds if count is None else len(records) < count):
        with untraced():
            inp = inputs[len(records)]
        error = out = None
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.op(dl, inp)
            else:
                with tracer.op_span(wl.name):
                    out = wl.op(dl, inp)
        except Exception as exc:  # a failed op is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        busy += latency
        with untraced():
            problems, facts = evaluate(wl, inp, out, error)
        records.append((inp, latency, problems, facts))
    return records, busy


def failures(records) -> list[str]:
    return [f"op {i}: " + "; ".join(problems)
            for i, (_, _, problems, _) in enumerate(records) if problems]


def tail(latencies: list[float]) -> tuple[float, int, int]:
    """The highest whole percentile with at least ten ops beyond it:
    (value, percentile, ops beyond).  With ten ops or fewer, the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100, 0
    pct = 100 * (n - 10) // n
    idx = -(-pct * n // 100) - 1
    return ordered[idx], pct, n - 1 - idx


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def calibrate(dl, iterations: int, repeats: int = 5) -> dict[str, float]:
    """Median ns per FieldElement mul/add/inv over Q and over Q(sqrt 2),
    including the call of a small Python function per operation."""
    fe = dl.exactfield
    ext = fe.FieldContext(2)
    xq, yq = fe.QQ.from_fraction(F(355, 113)), fe.QQ.from_fraction(F(-1021, 997))
    xe, ye = fe.FieldElement(ext, F(3, 7), F(5, 11)), fe.FieldElement(ext, F(-2, 9), F(7, 13))
    cases = {
        "mul_q": lambda: xq * yq, "add_q": lambda: xq + yq, "inv_q": xq.inv,
        "mul_ext": lambda: xe * ye, "add_ext": lambda: xe + ye, "inv_ext": xe.inv,
    }
    out = {}
    for name, fn in cases.items():
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(iterations):
                fn()
            samples.append((time.perf_counter() - t0) / iterations * 1e9)
        out[f"exactfield.{name}_ns"] = statistics.median(samples)
    return out


def _slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(self time) against log(n + 1)."""
    pts = [(math.log(n + 1), math.log(t)) for n, t in points if t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def layer_metrics(wl, tracer: Tracer, records, traced_wall: float,
                  untraced_wall: float) -> dict[str, float]:
    ops = len(records)
    summary = tracer.summary()
    group, calls = summary["group_self"], summary["calls"]
    count = lambda names: sum(calls.get(n, 0) for n in names) / ops
    per_op = lambda g: group[g] / ops
    m = {
        "exactfield.elements_per_op": tracer.elements / ops,
        "exactfield.mul_per_op": tracer.muls / ops,
        "exactlinalg.matmul_calls_per_op": count(GROUPS["exactlinalg.matmul"]),
        "exactlinalg.matmul_self_s_per_op": per_op("exactlinalg.matmul"),
        "exactlinalg.matmul_nonzero_share":
            tracer.matmul_nonzero / tracer.matmul_products if tracer.matmul_products else 0.0,
        "exactlinalg.rowreduce_calls_per_op": count(ELIMINATIONS),
        "exactlinalg.rowreduce_self_s_per_op": per_op("exactlinalg.rowreduce"),
        "exactlinalg.char_poly_self_s_per_op": per_op("exactlinalg.char_poly"),
        "exactlinalg.restrict_self_s_per_op": per_op("exactlinalg.restrict"),
        "leonard.recognize_calls_per_op": count(GROUPS["leonard.recognize"]),
        "leonard.recognize_self_s_per_op": per_op("leonard.recognize"),
        "leonard.split_self_s_per_op": per_op("leonard.split"),
        "leonard.huang_self_s_per_op": per_op("leonard.huang"),
        "daha.build_self_s_per_op": per_op("daha.build"),
        "daha.verify_calls_per_op": count(GROUPS["daha.verify"]),
        "daha.verify_self_s_per_op": per_op("daha.verify"),
        "daha.feasible_calls_per_op": count(GROUPS["daha.feasible"]),
        "daha.feasible_self_s_per_op": per_op("daha.feasible"),
        "daha.split_self_s_per_op": per_op("daha.split"),
        "daha.link_self_s_per_op": per_op("daha.link"),
        "cli.self_s_per_op": summary["layer_self"].get("cli", 0.0) / ops,
    }
    # per-op self time of build_module and verify_hq_relations, for the slopes
    build, verify, op = [0.0] * ops, [0.0] * ops, -1
    for span, own in zip(tracer.spans, tracer.self_times()):
        if span[4] < 0:
            op += 1
        elif span[0] == "build_module":
            build[op] += own
        elif span[0] == "verify_hq_relations":
            verify[op] += own
    sizes = [inp["n"] for inp, *_ in records] if wl.name == "construct" else []
    m["daha.build_slope"] = _slope(list(zip(sizes, build)))
    m["daha.verify_slope"] = _slope(list(zip(sizes, verify)))
    m["cli.report_bytes_per_op"] = sum(
        facts.get("report_bytes", 0) for *_, facts in records) / ops
    layer_self = summary["layer_self"]
    for layer in LAYERS + (HARNESS,):
        m[f"{layer}.self_share"] = layer_self.get(layer, 0.0) / traced_wall
    # the five program layers' share; the rest is the benchmark's own code
    m["trace.self_sum_share"] = sum(layer_self.get(layer, 0.0) for layer in LAYERS) / traced_wall
    m["trace.overhead_ratio"] = traced_wall / untraced_wall
    return m


# ---------------------------------------------------------------------------
# Facts
# ---------------------------------------------------------------------------


def machine_facts() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu}


def input_facts(wl, records) -> dict:
    described = [facts for *_, facts in records if facts]
    hist_n, hist_type = {}, {}
    for d in described:
        if "n" in d:
            hist_n[d["n"]] = hist_n.get(d["n"], 0) + 1
            hist_type[d["xtype"]] = hist_type.get(d["xtype"], 0) + 1
    facts = {"n_histogram": dict(sorted(hist_n.items())), "xtype_histogram": hist_type,
             "max_entry_bits": max((d["bits"] for d in described), default=0)}
    if wl.name == "link" and described:
        ops = len(described)
        facts["extension_share"] = sum(bool(d.get("extension")) for d in described) / ops
        facts["not_linked_share"] = sum(not d["linked"] for d in described) / ops
    return facts


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one pass over a few small inputs; checks metric names")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dahalink" / "__init__.py").is_file():
        print(f"perfbench: no dahalink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    wl = WORKLOADS[args.workload]
    out_dir = HERE / "out"
    workdir = out_dir / f"inputs-{wl.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        dl, inputs, setup_times = set_up(wl, args.seed, SETUP_PASSES, workdir, args.smoke)
        count = len(wl.smoke) if args.smoke else None
        run = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "setup_passes_s": setup_times}
        if args.trace:
            metrics = calibrate(dl, 200 if args.smoke else 3000)
            tracer = Tracer()
            tracer.install()
            try:
                records, traced_wall = timed_loop(
                    wl, dl, inputs, args.seconds / 2, tracer, count)
            finally:
                tracer.uninstall()
            replay, untraced_wall = timed_loop(wl, dl, inputs, math.inf, count=len(records))
            metrics.update(layer_metrics(wl, tracer, records, traced_wall, untraced_wall))
            tracer.write(out_dir / f"trace-{wl.name}.jsonl")
            run.update(traced_ops=len(records), spans=len(tracer.spans),
                       traced_wall_s=traced_wall, untraced_wall_s=untraced_wall)
            records = records + replay
            spec = PER_LAYER
        else:
            records, busy = timed_loop(wl, dl, inputs, args.seconds, count=count)
            latencies = [r[1] for r in records]
            tail_value, pct, beyond = tail(latencies)
            metrics = {
                "latency_p50_s": statistics.median(latencies),
                "latency_tail_s": tail_value,
                "throughput_ops_s": len(records) / busy,
                "setup_s": statistics.median(setup_times),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            run.update(ops=len(records), busy_s=busy, tail_percentile=pct,
                       tail_ops_beyond=beyond,
                       inputs_made_between_ops=max(0, len(records) - wl.prebuilt))
            spec = END_TO_END
        failed = failures(records)
        run.update(error_rate=len(failed) / len(records), failures=failed[:5])
        facts = {"machine": machine_facts(), "run": run,
                 "inputs": input_facts(wl, records),
                 "note": "no layer queues work, so no wait time is reported"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.smoke:
        if set(metrics) != set(spec):
            print("perfbench: metric names differ from the spec: "
                  f"{sorted(set(metrics) ^ set(spec))}", file=sys.stderr)
            return 1
    print(json.dumps({"facts": facts}))
    print(json.dumps({
        "correct": not failed, "attempted": len(records), "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
