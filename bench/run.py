"""Benchmark of the syncwords command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Runs bench/worker.py in fresh processes, one after another, for about S
seconds, on inputs made from the seed (see workloads.py).  Each worker
imports the program from src/, sets up the workload's inputs, runs its
commands in-process and verifies every answer.

--trace 0 reports the end-to-end metrics, medians over the workers, with
times scaled by a calibration loop to a reference host speed (see
worker.py).
--trace 1 alternates untraced and traced workers and reports the
per-layer metrics, lower medians over the traced workers, plus the tracing
overhead; the spans of the last traced worker are written to
.bench_out/.  --smoke runs tiny sizes of every workload.

Every metric is printed by name and unit; the last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

WORKLOADS = ("counter-subset", "cerny-classic", "reductions", "oracle-cross")
MIN_SAMPLES = 3            # per kind of worker, even past the deadline
WORKER_TIMEOUT_S = 120

END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER = {
    "search.engine_s": "s",
    "search.explored": "count",
    "search.levels": "count",
    "search.calls": "count",
    "search.nodes_per_s": "1/s",
    "search.masks_hit_ratio": "ratio",
    "search.verify_s": "s",
    "search.oracle_s": "s",
    "search.oracle_words": "count",
    "search.oracle_words_per_s": "1/s",
    "search.budget_stops": "count",
    "textio.parse_s": "s",
    "textio.serialize_s": "s",
    "textio.bytes": "count",
    "families.build_s": "s",
    "automata.self_s": "s",
    "reduce.self_s": "s",
    "reduce.states_out": "count",
    "sampling.generate_s": "s",
    "sampling.accept_ratio": "ratio",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.accounted_ratio": "ratio",
}
# Traced self times must cover the traced solve time up to this share,
# plus a millisecond for the moments between commands.
ACCOUNTED_SHARE = 0.02


class BenchError(Exception):
    pass


def _spawn(workload: str, seed: int, index: int, workdir: Path, smoke: bool,
           spans: Path | None) -> dict:
    argv = [sys.executable, str(WORKER), "--workload", workload,
            "--seed", str(seed), "--index", str(index), "--workdir", str(workdir)]
    if smoke:
        argv.append("--smoke")
    if spans is not None:
        argv += ["--spans", str(spans)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def collect(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> list[dict]:
    """Run workers until `seconds` have passed and each kind has MIN_SAMPLES."""
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    spans = OUT / f"spans-{workload}-seed{seed}.jsonl" if trace else None
    if spans is not None:
        OUT.mkdir(exist_ok=True)
    samples: list[dict] = []
    deadline = time.perf_counter() + seconds
    try:
        while True:
            # a traced worker gets the inputs of the untraced one before it
            traced = trace and len(samples) % 2 == 1
            index = len(samples) // 2 if trace else len(samples)
            shutil.rmtree(workdir, ignore_errors=True)
            samples.append(_spawn(workload, seed, index, workdir, smoke,
                                  spans if traced else None))
            kinds = (False, True) if trace else (False,)
            if time.perf_counter() >= deadline and all(
                    sum(s["traced"] == k for s in samples) >= MIN_SAMPLES
                    for k in kinds):
                return samples
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def self_times_cover(sample: dict) -> bool:
    """Whether a traced worker's self times account for its solve time."""
    solve = sample["solve_wall_s"]
    gap = solve * (1 - sample["layers"]["trace.accounted_ratio"])
    return -1e-9 <= gap <= ACCOUNTED_SHARE * solve + 1e-3


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest percentile with at least ten samples beyond it, if that
    is at least the median: (percentile, value), nearest rank."""
    n = len(values)
    if n < 20:
        return None
    rank = n - 10
    return 100 * rank // n, sorted(values)[rank - 1]


def _line(name: str, value: float, unit: str, note: str = "") -> str:
    return f"{name:<26} {value:>14.6g} {unit:<6} {note}".rstrip()


def summarize(samples: list[dict], trace: bool) -> tuple[dict, list[str], bool]:
    """Metrics, their printable lines, and whether the traced self times
    account for the traced solve time."""
    plain = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    lines = []
    ok = True
    metrics: dict[str, float] = {}

    def med(group, key):
        return statistics.median(s[key] for s in group)

    if not trace:
        for name, unit in END_TO_END.items():
            values = [s[name] for s in plain]
            metrics[name] = statistics.median(values)
            note = f"median of {len(values)} workers"
            tail = tail_percentile(values)
            if tail is not None:
                note += f", p{tail[0]} {tail[1]:.6g}"
            lines.append(_line(name, metrics[name], unit, note))
        for name in ("solve_wall_s", "setup_wall_s", "calibration_s"):
            lines.append(_line(name, med(plain, name), "s", "unscaled, median"))
    else:
        for name in PER_LAYER:
            if name == "search.masks_hit_ratio":
                metrics[name] = med(traced, "masks_hit_ratio")
            elif name == "trace.overhead_ratio":
                metrics[name] = med(traced, "solve_s") / med(plain, "solve_s")
            else:  # the lower median keeps counts exact
                metrics[name] = statistics.median_low(s["layers"][name] for s in traced)
            lines.append(_line(name, metrics[name], PER_LAYER[name]))
        for s in traced:
            if not self_times_cover(s):
                ok = False
                lines.append(f"self times cover {s['layers']['trace.accounted_ratio']:.4f}"
                             f" of a traced solve time of {s['solve_wall_s']:.4g} s")
        lines.append(_line("traced solve_s", med(traced, "solve_s"), "s",
                           f"median of {len(traced)} traced workers"))
        lines.append(_line("untraced solve_s", med(plain, "solve_s"), "s",
                           f"median of {len(plain)} untraced workers"))
        lines.append(_line("traced solve_wall_s", med(traced, "solve_wall_s"), "s",
                           "unscaled, like the self times"))
    return metrics, lines, ok


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "syncwords" / "cli.py").is_file():
        print(f"error: no program to measure at {ROOT / 'src' / 'syncwords'}",
              file=sys.stderr)
        return 2
    try:
        samples = collect(args.workload, args.seed, args.seconds,
                          bool(args.trace), args.smoke)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    metrics, lines, accounted = summarize(samples, bool(args.trace))
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    lines.append(_line("failed_ratio", failed / attempted, "ratio",
                       f"{failed} of {attempted} commands failed verification"))
    explored = " ".join(map(str, samples[0]["explored"])) or "-"
    lines.append(f"{'explored':<26} {explored:>14} count")
    lines.extend(f"FAILED {' '.join(f['argv'])}: {f['reason']}"
                 for s in samples for f in s["failures"])
    units = PER_LAYER if args.trace else END_TO_END
    print(f"# {args.workload} seed {args.seed}: {len(samples)} fresh workers"
          + (" (smoke size)" if args.smoke else ""))
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": accounted and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
