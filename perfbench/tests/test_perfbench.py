"""Tests of the benchmark itself: metric names, output checks, the tracer.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import contextlib
import io
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, schedule  # noqa: E402


def _spec():
    data = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in data["end_to_end"]},
            {m["name"]: m["unit"] for m in data["per_layer"]})


def _smoke(workload, trace):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                         "--trace", str(trace), "--smoke"])
    assert code == 0
    return json.loads(buf.getvalue().splitlines()[-1])


def test_spec_matches_benchmark_json():
    end_to_end, per_layer = _spec()
    assert end_to_end == run.END_TO_END
    assert per_layer == run.PER_LAYER


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    result = _smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = _spec()[trace]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        # the five program layers cover all but 5% of the traced wall time
        assert 0.95 <= metrics["trace.self_sum_share"] <= 1.0
        if workload == "construct":
            assert metrics["leonard.recognize_calls_per_op"] == 0
            assert metrics["daha.verify_calls_per_op"] == 2


class Corrupting:
    """A workload whose op corrupts the output of the ops it names."""

    def __init__(self, wl, corrupt, which):
        self.wl, self.corrupt, self.which = wl, corrupt, which
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self.wl, name)

    def op(self, dl, inp):
        out = self.wl.op(dl, inp)
        self.calls += 1
        return self.corrupt(dl, out) if self.calls in self.which else out


def _run(workload, tmp_path, corrupt=None, which=()):
    wl = WORKLOADS[workload]
    dl, inputs, _ = run.set_up(wl, 5, 1, tmp_path, smoke=True)
    if corrupt is not None:
        wl = Corrupting(wl, corrupt, which)
    records, _ = run.timed_loop(wl, dl, inputs, float("inf"), count=2 * len(wl.smoke))
    return records, run.failures(records)


def test_outputs_pass_their_checks(tmp_path):
    for workload in WORKLOADS:
        (tmp_path / workload).mkdir()
        records, failed = _run(workload, tmp_path / workload)
        assert records and failed == []


def test_perturbed_generator_entry_is_caught_and_counted(tmp_path):
    class Perturbed:
        def __init__(self, module):
            self.data = module.to_json()
            entries = self.data["t"][2]["entries"]
            entries[0][0] = str(checks.rational(entries[0][0]) + 1)

        def to_json(self):
            return self.data

    records, failed = _run("construct", tmp_path,
                           lambda dl, out: (Perturbed(out[0]), out[1]), which={2, 4})
    assert len(records) == 6
    assert [f.split(":")[0] for f in failed] == ["op 1", "op 3"]
    assert all("(t2 - k2)(t2 - 1/k2) != 0" in f for f in failed)


def test_wrong_huang_datum_is_caught_and_counted(tmp_path):
    def wrong_generic(dl, halves):
        pair, closed, generic = halves[0]
        wrong = dl.leonard.HuangData(generic.a * 3, generic.b, generic.c, generic.d)
        return [(pair, closed, wrong)] + halves[1:]

    records, failed = _run("extract", tmp_path, wrong_generic, which={1})
    assert len(records) == 6
    assert len(failed) == 1 and "plus: generic and closed-form Huang data differ" in failed[0]


def test_raised_op_is_counted(tmp_path):
    def boom(dl, out):
        raise ValueError("boom")

    records, failed = _run("link", tmp_path, boom, which={3})
    assert failed == ["op 2: ValueError: boom"]


def test_link_check_rejects_wrong_verdicts():
    linked = {"cases": [{"case": "iii"}],
              "checks": [{"name": "extraction-reproduces-inputs", "passed": True}]}
    assert checks.check_link("partner", "iii", 0, linked) == []
    assert checks.check_link("partner", "iv", 0, linked)
    assert checks.check_link("partner", "iii", 3, {"cases": []})
    assert checks.check_link("near", "iii", 0, linked)
    assert checks.check_link("near", "iv", 0, linked) == []
    assert checks.check_link("unrelated", None, 3, {"cases": []}) == []
    assert checks.check_link("unrelated", None, 0, linked)


def test_tracer_wraps_every_namespace_and_restores():
    dl = run.import_dahalink()
    original = dl.exactlinalg.eigenspace
    assert dl.daha.eigenspace is original
    QQ = dl.exactfield.QQ
    m = dl.exactlinalg.ExactMatrix.diagonal(QQ, [QQ.rational(2), QQ.rational(3)])
    tracer = Tracer()
    tracer.install()
    try:
        assert dl.daha.eigenspace is dl.exactlinalg.eigenspace
        assert dl.daha.eigenspace.__wrapped__ is original
        with tracer.op_span("op"):
            dl.daha.eigenspace(m, QQ.rational(2))
    finally:
        tracer.uninstall()
    assert dl.daha.eigenspace is original
    names = [s[0] for s in tracer.spans]
    assert names[:3] == ["op", "eigenspace", "ExactMatrix.identity"]
    assert "kernel_basis" in names and "Subspace.__init__" in names
    assert tracer.elements > 0
    assert sum(tracer.self_times()) == pytest.approx(tracer.spans[0][3] - tracer.spans[0][2])


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    tracer.spans = [["a", "daha", 0.0, 10.0, -1], ["b", "leonard", 2.0, 5.0, 0],
                    ["c", "exactlinalg", 3.0, 4.0, 1], ["d", "exactlinalg", 6.0, 7.0, 0]]
    assert tracer.self_times() == [6.0, 2.0, 1.0, 1.0]
    assert tracer.summary()["layer_self"] == {"daha": 6.0, "leonard": 2.0, "exactlinalg": 2.0}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_schedule_keeps_every_prefix_on_the_mix(workload):
    weights = WORKLOADS[workload].weights
    total = sum(weights.values())
    seen = dict.fromkeys(weights, 0)
    for i, slot in enumerate(itertools.islice(schedule(weights), 1000), 1):
        seen[slot] += 1
        assert all(abs(seen[s] - i * w / total) <= 1 for s, w in weights.items())


def test_inputs_go_on_past_the_prebuilt_ones(tmp_path):
    wl = WORKLOADS["construct"]
    _, inputs, _ = run.set_up(wl, 5, 1, tmp_path)
    assert len(inputs.made) == wl.prebuilt
    inputs[wl.prebuilt + 19]
    keys = {(i["xtype"], i["n"], i["q"], i["k"]) for i in inputs.made}
    assert len(keys) == len(inputs.made) == wl.prebuilt + 20


def test_tail_keeps_ten_ops_beyond():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90, 10)
    value, pct, beyond = run.tail([float(i) for i in range(37)])
    assert (pct, beyond) == (72, 10) and value == 26.0
    assert run.tail([1.0, 2.0]) == (2.0, 100, 0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "construct", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
