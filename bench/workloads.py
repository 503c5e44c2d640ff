"""The benchmark's workloads: seeded inputs, command lines and verifiers.

A workload turns a seed, and the index of the worker within its run, into
input files plus the `syncwords` command lines to run on them, and knows
how to verify what each command printed.  Only the package's public API
is used here; the program itself sees nothing but the files and argv.

`explored` is deliberately not verified: a better search algorithm lowers
it legitimately.  The traced run records it as a count instead.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from syncwords import (Instance, cerny, counting_word, de_bruijn,
                       debruijn_counter, dfa_from_table, load, run, save)

# Verifier: (exit code, stdout) -> None when the answer is right, else why not.
Verifier = Callable[[int, str], Optional[str]]


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    verify: Verifier


@dataclass(frozen=True)
class Size:
    counter_m: int
    cerny_n: int
    chain_m: int
    roundtrips: int
    nfa_modes: int
    oracle_count: int


FULL = Size(counter_m=8, cerny_n=18, chain_m=4, roundtrips=200, nfa_modes=400,
            oracle_count=25)
# A few seconds for every workload, for the benchmark's own tests.
SMOKE = Size(counter_m=4, cerny_n=8, chain_m=2, roundtrips=2, nfa_modes=2,
             oracle_count=2)

# Suite seeds for oracle-cross.  Its work is set by the random instances
# the suite draws, and at count 25 it varies about fifteen-fold from seed
# to seed (0.2-3.6 s on a 2-core VM), mostly through how many
# nondeterministic instances exhaust all 3^10 words.  These 12 of the
# first 300 seeds came closest to the median cost; over five calibrated
# fresh-process runs each, their medians lie within 3% of one another.
ORACLE_SEEDS = (35, 82, 86, 125, 127, 158, 161, 238, 242, 249, 285, 293)


def _word(alphabet, text: str) -> tuple[int, ...]:
    tokens = text.split() if " " in text else list(text)
    return tuple(alphabet.index(t) for t in tokens)


def _suite_failure(report: dict) -> Optional[str]:
    failing = [c["name"] for c in report["checks"] if not c["pass"]]
    if not report["checks"]:
        return "no checks reported"
    return f"failed checks: {failing}" if failing else None


def _checked(expect: Callable[[dict], Optional[str]] = _suite_failure) -> Verifier:
    """Exit code 0, a JSON report, and `expect` satisfied by the report."""

    def verify(code: int, stdout: str) -> Optional[str]:
        if code != 0:
            return f"exit code {code}"
        try:
            report = json.loads(stdout)
        except ValueError:
            return "stdout is not a JSON report"
        return expect(report)

    return verify


def _shortest(automaton, start, length: int, word: tuple[int, ...]) -> Verifier:
    """A found result of the given length whose witness is `word` and
    replays from `start` to a single state."""

    def expect(report: dict) -> Optional[str]:
        (res,) = report["results"]
        if res["status"] != "found":
            return f"status {res['status']}"
        if res["length"] != length:
            return f"length {res['length']}, expected {length}"
        text = res.get("witness")
        if text is None:
            return "no witness in the report"
        witness = _word(automaton.alphabet, text)
        if witness != word:
            return "witness is not the expected lex-least word"
        if len(run(automaton, start, witness)) != 1:
            return "witness does not reset"
        return None

    return _checked(expect)


def counter_xi_choices(m: int) -> list[str]:
    """The m rotations of the least De Bruijn sequence of order log2(m).

    The counter accepts 16 strings at m = 8, and all give length 1021.
    The other 8, rotations of the reversed sequence, explore 159,251 sets
    instead of 156,819.  That crosses a resize point of the visited set
    and raises peak RSS from 45 to 53 MiB, which would make peak_rss_mb
    depend on the seed.
    """
    bits = de_bruijn(m.bit_length() - 1)
    return [bits[i:] + bits[:i] for i in range(m)]


def counter_subset(seed: int, index: int, size: Size, workdir: Path,
                   cli_main: Callable) -> list[Command]:
    """The switch counter in subset mode, built through `syncwords build`."""
    m = size.counter_m
    xi = random.Random(seed).choice(counter_xi_choices(m))
    path = workdir / "counter.aut"
    argv = ["build", "counter", "--m", str(m), "--xi", xi, "-o", str(path),
            "--format", "json"]
    if cli_main(argv) != 0:
        raise RuntimeError(f"building the counter input failed: {argv}")
    ci = debruijn_counter(m, xi)
    k = m.bit_length() - 1
    verify = _shortest(ci.automaton, ci.subset, (2 ** m - 1) * (k + 1) + 1,
                       counting_word(m))
    return [Command(("shortest", str(path), "--mode", "subset",
                     "--format", "json"), verify)]


def cerny_word(n: int) -> tuple[int, ...]:
    """The unique shortest reset word b (a^(n-1) b)^(n-2) of cerny(n)."""
    return (1,) + ((0,) * (n - 1) + (1,)) * (n - 2)


def cerny_classic(seed: int, index: int, size: Size, workdir: Path,
                  cli_main: Callable) -> list[Command]:
    """The classical family under a random relabeling of its states."""
    n = size.cerny_n
    base = cerny(n).automaton
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    table = [[0, 0] for _ in range(n)]
    for s in range(n):
        for x in range(2):
            (t,) = base.delta[s][x]
            table[perm[s]][x] = perm[t]
    automaton = dfa_from_table(table, base.alphabet.symbols)
    path = workdir / "cerny.aut"
    save(path, Instance(automaton))
    verify = _shortest(automaton, automaton.states, (n - 1) ** 2, cerny_word(n))
    return [Command(("shortest", str(path), "--mode", "classic",
                     "--format", "json"), verify)]


def _stage_files(prefix: Path) -> Callable[[dict], Optional[str]]:
    """Checks pass, and every chain stage was written and loads back."""

    def expect(report: dict) -> Optional[str]:
        failure = _suite_failure(report)
        if failure:
            return failure
        for i, row in enumerate(report["results"]):
            path = prefix.parent / f"{prefix.name}.{i}.{row['stage']}.aut"
            if not path.is_file():
                return f"stage file {path.name} missing"
            if load(path).automaton.n != row["states"]:
                return f"stage file {path.name} has the wrong state count"
        return None

    return expect


def _rows_agree(count: int) -> Callable[[dict], Optional[str]]:
    def expect(report: dict) -> Optional[str]:
        failure = _suite_failure(report)
        if failure:
            return failure
        (row,) = report["rows"]
        if not row["agreements"] == row["instances"] == count:
            return f"{row['agreements']}/{row['instances']} agreements"
        return None

    return expect


def reductions(seed: int, index: int, size: Size, workdir: Path,
               cli_main: Callable) -> list[Command]:
    """Both reduction chains, two random suites and the threshold table."""
    m = str(size.chain_m)
    stage = workdir / "stage"
    return [
        Command(("reduce", "--op", "chain", "--m", m, "--variant", "subset",
                 "--format", "json"), _checked()),
        Command(("reduce", "--op", "chain", "--m", m, "--variant", "careful",
                 "-o", str(stage), "--format", "json"),
                _checked(_stage_files(stage))),
        Command(("experiment", "reduction-roundtrips", "--seed", str(seed),
                 "--count", str(size.roundtrips), "--format", "json"), _checked()),
        Command(("experiment", "nfa-modes", "--seed", str(seed),
                 "--count", str(size.nfa_modes), "--format", "json"), _checked()),
        Command(("experiment", "thresholds", "--format", "json"), _checked()),
    ]


def oracle_cross(seed: int, index: int, size: Size, workdir: Path,
                 cli_main: Callable) -> list[Command]:
    """Engine against the brute-force oracle on random small automata.

    Worker i of a run takes pool entry (seed + i) mod 12, so the median
    of a run covers the pool rather than one draw from it."""
    suite_seed = ORACLE_SEEDS[(seed + index) % len(ORACLE_SEEDS)]
    count = size.oracle_count
    return [Command(("experiment", "oracle-cross", "--seed", str(suite_seed),
                     "--count", str(count), "--format", "json"),
                    _checked(_rows_agree(count)))]


WORKLOADS = {
    "counter-subset": counter_subset,
    "cerny-classic": cerny_classic,
    "reductions": reductions,
    "oracle-cross": oracle_cross,
}
