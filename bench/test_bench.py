"""The benchmark's own tests, on the smoke size of every workload.

    PYTHONPATH=src python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
import worker
import workloads
from syncwords import search, verify_de_bruijn

ROOT = Path(__file__).resolve().parent.parent


def _outputs(name, tmp_path, seed=1):
    """The smoke commands of a workload and what the program printed."""
    cli = worker._import_cli()
    commands = workloads.WORKLOADS[name](seed, 0, workloads.SMOKE, tmp_path,
                                         lambda argv: worker._call(cli, argv)[0])
    return [(cmd, worker._call(cli, cmd.argv)) for cmd in commands]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_sample_verifies_and_traces(name, tmp_path):
    spans = tmp_path / "spans.jsonl"
    res = worker.sample(name, 5, 0, tmp_path / "work", smoke=True, spans=spans)
    assert res["failed"] == 0, res["failures"]
    assert res["attempted"] >= 1
    layers = res["layers"]
    assert run.self_times_cover(res)
    assert layers["cli.self_s"] > 0
    dumped = [json.loads(line) for line in spans.read_text().splitlines()]
    assert sum(s["name"] == "main" for s in dumped) == res["attempted"]
    # the wrappers are gone again
    assert not hasattr(search.shortest_reset, "__wrapped__")


def _corrupt_witness(stdout):
    report = json.loads(stdout)
    text = report["results"][0]["witness"]
    report["results"][0]["witness"] = text[1:] + text[0]
    return json.dumps(report)


def _set_result(stdout, **fields):
    report = json.loads(stdout)
    report["results"][0].update(fields)
    return json.dumps(report)


@pytest.mark.parametrize("name", ("counter-subset", "cerny-classic"))
def test_verifier_judges_witness_not_explored(name, tmp_path):
    ((cmd, (code, out, _)),) = _outputs(name, tmp_path)
    assert cmd.verify(code, out) is None
    assert cmd.verify(code, _set_result(out, explored=1)) is None
    res = json.loads(out)["results"][0]
    assert cmd.verify(code, _corrupt_witness(out)) is not None
    assert cmd.verify(code, _set_result(out, length=res["length"] + 1)) is not None
    assert cmd.verify(code, _set_result(out, status="budget_exceeded")) is not None
    assert cmd.verify(3, out) is not None
    assert worker.judge(cmd, code, _set_result(out, witness="zz")) is not None
    assert worker.judge(cmd, code, "{}") is not None


@pytest.mark.parametrize("name", ("reductions", "oracle-cross"))
def test_verifier_rejects_failed_suites(name, tmp_path):
    for cmd, (code, out, _) in _outputs(name, tmp_path):
        assert cmd.verify(code, out) is None
        report = json.loads(out)
        report["checks"][0]["pass"] = False
        assert cmd.verify(code, json.dumps(report)) is not None
        assert cmd.verify(2, out) is not None
        assert cmd.verify(code, "not json") is not None


def test_oracle_cross_counts_agreements(tmp_path):
    ((cmd, (code, out, _)),) = _outputs("oracle-cross", tmp_path)
    report = json.loads(out)
    report["rows"][0]["agreements"] -= 1
    assert cmd.verify(code, json.dumps(report)) is not None


def test_seeds_pick_inputs():
    choices = workloads.counter_xi_choices(8)
    assert len(set(choices)) == 8
    assert all(verify_de_bruijn(xi, 3) for xi in choices)
    assert len(workloads.ORACLE_SEEDS) == len(set(workloads.ORACLE_SEEDS)) == 12


def test_tracer_self_time_subtracts_children():
    t = tracer.Tracer()
    t._metric.update(main="cli.self_s", parse="textio.parse_s")
    t.spans[:] = [["main", 0.0, 10.0, -1], ["parse", 2.0, 5.0, 0],
                  ["parse", 6.0, 7.0, 0]]
    times = t.self_times()
    assert times["cli.self_s"] == 6.0
    assert times["textio.parse_s"] == 4.0


@pytest.mark.parametrize("trace,names", ((0, run.END_TO_END), (1, run.PER_LAYER)))
def test_run_prints_result_last(trace, names):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "counter-subset",
         "--seed", "2", "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(names)
    for name, unit in names.items():
        assert result["metrics"][name]["unit"] == unit
    for name in ("failed_ratio", *names):
        assert any(line.startswith(name) for line in lines[:-1])


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "counter-subset",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
