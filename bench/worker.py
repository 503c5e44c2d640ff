"""One benchmark sample, run in a fresh process by bench/run.py.

The worker sets up (imports syncwords.cli, then builds and writes the
workload's input files), calls `syncwords.cli.main(argv)` in-process for
each of the workload's commands with stdout captured, verifies every
answer outside the timed span, and prints one JSON object.

    python3 bench/worker.py --workload NAME --seed N --index I --workdir DIR
                            [--smoke] [--spans FILE]

I is the worker's index within its run.

With --spans the commands run traced (see tracer.py) and the spans are
written to FILE.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src"

# Host speed on a shared VM drifts by 20% and more over tens of seconds,
# and CPU time drifts with wall time.  Each worker therefore times a fixed
# loop, shaped like the searches' image kernel, right before and right
# after its commands, and reports times scaled to a host on which that
# loop takes CALIBRATION_REF_S (its median on a 2-core Xeon VM at 2.1 GHz).
CALIBRATION_REF_S = 0.12
CALIBRATION_ROUNDS = 25_000


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop: bit scans, tuple
    lookups and set inserts, as in the searches' inner loop."""
    col = tuple(1 << ((7 * i + 3) % 40) for i in range(40))
    seen = set()
    t = 0xF0F0F0F0F
    mask = (1 << 40) - 1
    start = time.perf_counter()
    for _ in range(CALIBRATION_ROUNDS):
        tt, u = t, 0
        while tt:
            b = tt & -tt
            u |= col[b.bit_length() - 1]
            tt ^= b
        seen.add(u & 0xFFF)
        t = (t * 6364136223846793005 + 1442695040888963407) & mask
    return time.perf_counter() - start


def _import_cli():
    """Import syncwords.cli from this checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import syncwords.cli
    if not Path(syncwords.cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"syncwords was imported from {syncwords.cli.__file__}, "
                          f"not from {SRC}")
    return syncwords.cli


def _call(cli, argv) -> tuple[int, str, str]:
    """Run one command line in-process: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:  # argparse rejects the command line
            code = e.code if isinstance(e.code, int) else 1
        except Exception as e:  # a crash fails this command, not the run
            print(f"{type(e).__name__}: {e}", file=sys.stderr)
            code = -1
    return code, out.getvalue(), err.getvalue()


def judge(cmd, code: int, stdout: str):
    """Why the command's answer is wrong, or None; a report that the
    verifier cannot read is wrong too."""
    try:
        return cmd.verify(code, stdout)
    except (KeyError, IndexError, TypeError, ValueError) as e:
        return f"malformed report: {type(e).__name__}: {e}"


def sample(workload: str, seed: int, index: int, workdir: Path,
           smoke: bool = False, spans: Path = None, started: float = None) -> dict:
    """Set up, solve and verify once; return this sample's figures."""
    started = time.perf_counter() if started is None else started
    cli = _import_cli()
    import workloads
    from syncwords.search import transition_masks

    size = workloads.SMOKE if smoke else workloads.FULL
    workdir.mkdir(parents=True, exist_ok=True)

    def build_cli(argv):
        return _call(cli, argv)[0]

    commands = workloads.WORKLOADS[workload](seed, index, size, workdir,
                                                 build_cli)
    ready = time.perf_counter()
    calibration_s = calibrate()

    tracer = None
    if spans is not None:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    masks_before = transition_masks.cache_info()
    outputs = []
    try:
        t0 = time.perf_counter()
        for cmd in commands:
            outputs.append(_call(cli, cmd.argv))
        solve_s = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    masks_after = transition_masks.cache_info()
    calibration_s = (calibration_s + calibrate()) / 2
    slowdown = calibration_s / CALIBRATION_REF_S

    failures = []
    for cmd, (code, out, err) in zip(commands, outputs):
        reason = judge(cmd, code, out)
        if reason is not None:
            failures.append({"argv": list(cmd.argv), "reason": reason,
                             "stderr": err[-500:]})
    explored = []
    for code, out, _ in outputs:
        try:
            explored.extend(r["explored"] for r in json.loads(out).get("results", ())
                            if "explored" in r)
        except ValueError:
            pass

    hits = masks_after.hits - masks_before.hits
    lookups = hits + masks_after.misses - masks_before.misses
    result = {
        "workload": workload,
        "seed": seed,
        "traced": tracer is not None,
        "setup_s": (ready - started) / slowdown,
        "solve_s": solve_s / slowdown,
        "setup_wall_s": ready - started,
        "solve_wall_s": solve_s,
        "calibration_s": calibration_s,
        "attempted": len(commands),
        "failed": len(failures),
        "failures": failures,
        "explored": explored,
        "masks_hit_ratio": hits / lookups if lookups else 0.0,
    }
    if tracer is not None:
        layers = tracer.metrics()
        # every traced second sits in exactly one self time, so this is 1
        # up to the moments between commands
        layers["trace.accounted_ratio"] = sum(
            layers[m] for m in tracing.SELF_TIME_METRICS) / solve_s
        result["layers"] = layers
        tracer.dump(spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--spans", type=Path)
    args = p.parse_args(argv)
    result = sample(args.workload, args.seed, args.index, args.workdir,
                    args.smoke, args.spans, STARTED)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
