"""Command-line surface: searches, deciders, builders, reducers,
verifiers and the experiment suites.

Exit codes: 0 success / property holds, 1 usage or parse error (the
argument parser's own usage errors included), 2 definite negative (not
synchronizing, blind, verification failed), 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import sys
import time
from functools import cache
from itertools import groupby
from typing import Optional

from .automata import (Instance, augmentation_connects, is_strongly_connected,
                       run, sink_states, word_tokens)
from .families import (block_language_shape, cerny, counting_word, de_bruijn,
                       debruijn_counter, switch_value, verify_de_bruijn,
                       window_permutation)
from .reduce import binary_chain, run_reduction
from .sampling import (random_careful_subset_pfa,
                       random_carefully_synchronizing_pfa,
                       random_connectable_pairs, random_dfa, random_nfa,
                       random_pfa, random_subset,
                       random_synchronizable_subset_dfa)
from .search import (BUDGET_EXCEEDED, CAREFUL, CLASSIC, D1, D2, D3,
                     DEFAULT_BUDGET, FOUND, MODES, NOT_SYNCHRONIZING, SUBSET,
                     BlindSubsetError, BudgetExceededError, SearchBudget,
                     SearchResult, brute_force_oracle,
                     check_transversal_partition, composition_depth,
                     constant_target, count_shortest_reset_words,
                     directing_word, is_swap_congruence, relevant_part,
                     shortest_reset, shortest_subset_reset, shortest_word)
from .textio import ParseError, load, save, serialize

# the interpreter's own SHA-256, as `random` takes its sha512: hashlib
# loads OpenSSL's libcrypto, some 3.5 MiB of every process's memory
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NEGATIVE = 2
EXIT_BUDGET = 3

WITNESS_LIMIT = 10_000


class CliError(Exception):
    """A usage error: reported on stderr with exit code 1."""


def _env_int(name: str, default: int) -> int:
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        return int(text)
    except ValueError:
        raise CliError(f"{name} must be an integer, got {text!r}") from None


def _budget(args) -> SearchBudget:
    """Caps from the flags, else the environment, else the defaults; a
    zero or negative cap is rejected by SearchBudget."""
    return SearchBudget(
        max_nodes=(_env_int("SYNCWORDS_MAX_NODES", DEFAULT_BUDGET.max_nodes)
                   if args.max_nodes is None else args.max_nodes),
        max_length=DEFAULT_BUDGET.max_length if args.max_length is None else args.max_length,
        max_memory=_env_int("SYNCWORDS_MAX_MEMORY", DEFAULT_BUDGET.max_memory),
    )


def _witness_block(instance: Instance, res: SearchResult, full: bool,
                   limit: int) -> dict:
    if res.witness is None:
        return {}
    text = word_tokens(instance.automaton.alphabet, res.witness)
    digest = sha256(text.encode()).hexdigest()[:16]
    out = {"witness_length": len(res.witness), "witness_digest": digest}
    if full or len(res.witness) <= limit:
        out["witness"] = text
    else:
        symbols = instance.automaton.alphabet.symbols
        out["witness_rle"] = [[symbols[x], len(list(group))]
                              for x, group in groupby(res.witness)]
    return out


def _instance_digest(instance: Instance) -> dict:
    a = instance.automaton
    return {
        "kind": a.kind,
        "states": a.n,
        "letters": len(a.alphabet),
        "subset_size": len(instance.subset) if instance.subset else None,
    }


def _report(command: str, instance: Optional[Instance], results: list[dict],
            checks: list[dict]) -> dict:
    return {
        "command": command,
        "instance": _instance_digest(instance) if instance else None,
        "results": results,
        "checks": checks,
        "timing": None,  # stamped by main, so it stays ahead of any later key
    }


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, ensure_ascii=False))
    elif fmt == "csv":
        rows = report.get("rows") or report["results"]
        if rows:
            import csv  # as `_bfs` imports `array`: no other format loads it
            buf = io.StringIO()
            # the union of the rows' columns, in order of first appearance
            fields = list(dict.fromkeys(k for row in rows for k in row))
            writer = csv.DictWriter(buf, fieldnames=fields)
            writer.writeheader()
            writer.writerows(rows)
            print(buf.getvalue(), end="")
    else:
        print(f"# {report['command']}")
        if report.get("instance"):
            print("instance:", report["instance"])
        for r in report.get("rows", []) or report["results"]:
            print(" ".join(f"{k}={v}" for k, v in r.items()))
        for c in report["checks"]:
            mark = "pass" if c["pass"] else "FAIL"
            print(f"[{mark}] {c['name']}" + (f" ({c['info']})" if c.get("info") else ""))


def _status_exit(status: str) -> int:
    if status == FOUND:
        return EXIT_OK
    if status == BUDGET_EXCEEDED:
        return EXIT_BUDGET
    return EXIT_NEGATIVE


def _checks_exit(checks: list[dict]) -> int:
    return EXIT_OK if all(c["pass"] for c in checks) else EXIT_NEGATIVE


# --- subcommands --------------------------------------------------------------


Outcome = tuple[int, dict]  # (exit code, report)


def _search_file(args, mode: str, what: str) -> tuple[Instance, SearchResult]:
    """Load the file and search it in the mode; `what` names the request
    in the error for a file without the subset it needs."""
    instance = load(args.file)
    budget = _budget(args)
    if mode == SUBSET and instance.subset is None:
        raise CliError(f"{what} needs a subset section in the file")
    return instance, shortest_word(instance.automaton, instance.subset, mode, budget)


def cmd_shortest(args) -> Outcome:
    if args.witness_limit < 0:
        raise CliError(f"--witness-limit must be nonnegative, got {args.witness_limit}")
    mode = args.mode
    instance, res = _search_file(args, mode, "subset mode")
    entry = {"mode": mode, "status": res.status, "length": res.length,
             "explored": res.explored,
             **_witness_block(instance, res, args.full_witness, args.witness_limit)}
    return _status_exit(res.status), _report(f"shortest {mode}", instance, [entry], [])


def cmd_decide(args) -> Outcome:
    mode = SUBSET if args.problem == "subset-sync" else CAREFUL
    instance, res = _search_file(args, mode, args.problem)
    answer = {"problem": args.problem, "answer": "yes" if res.found else "no",
              "status": res.status, "explored": res.explored}
    return (_status_exit(res.status),
            _report(f"decide {args.problem}", instance, [answer], []))


def cmd_build(args) -> Outcome:
    if args.family == "counter":
        if args.m is None:
            raise CliError("counter needs --m")
        ci = debruijn_counter(args.m, args.xi)
        save(args.output, ci.instance)
        rows = [{
            "family": "counter", "m": ci.m, "states": ci.automaton.n,
            "letters": len(ci.automaton.alphabet), "subset_size": len(ci.subset),
            "partition_blocks": len(ci.instance.partition),
            "sequence": ci.bits,
            "sc_pairs": str(list(ci.sc_pairs)),
            "relevant_sc_pairs": str(list(ci.relevant_sc_pairs)),
            "file": args.output,
        }]
        instance = ci.instance
    elif args.family == "cerny":
        if args.n is None:
            raise CliError("cerny needs --n")
        instance = cerny(args.n)
        save(args.output, instance)
        rows = [{"family": "cerny", "states": args.n, "letters": 2,
                 "file": args.output}]
    else:  # debruijn
        if args.k is None:
            raise CliError("debruijn needs --k")
        bits = de_bruijn(args.k)
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(bits + "\n")
        rows = [{"family": "debruijn", "order": args.k, "length": len(bits),
                 "sequence": bits, "file": args.output}]
        instance = None
    return EXIT_OK, _report(f"build {args.family}", instance, rows, [])


def cmd_reduce(args) -> Outcome:
    budget = _budget(args)
    chain = args.op == "chain"
    if chain:
        if args.file:
            raise CliError("chain builds its input from --m and takes no file")
        if args.m is None:
            raise CliError("chain needs --m")
        command = f"reduce chain {args.variant}"
        reports = binary_chain(args.m, args.variant, budget)
    else:
        if not args.file:
            raise CliError("reduce needs an input file (except op=chain)")
        command = f"reduce {args.op}"
        instance = load(args.file)
        try:
            reports = [run_reduction(args.op, instance, budget)]
        except (ValueError, BlindSubsetError) as e:
            return EXIT_NEGATIVE, _report(
                command, instance, [],
                [{"name": "precondition", "pass": False, "info": str(e)}])
    checks, rows = [], []
    for i, rep in enumerate(reports):
        if args.output:
            save(f"{args.output}.{i}.{rep.name}.aut" if chain else args.output,
                 rep.output)
        checks.extend({"name": f"{rep.name}: {name}" if chain else name,
                       "pass": passed} for name, passed in rep.checks)
        rows.append({"stage" if chain else "op": rep.name,
                     "states": rep.output.automaton.n,
                     "letters": len(rep.output.automaton.alphabet),
                     **{k: v for k, v in rep.details.items()
                        if isinstance(v, (int, str))}})
    return _checks_exit(checks), _report(command, reports[-1].output, rows, checks)


def _verify_counter(instance: Instance, m: int, xi: Optional[str],
                    budget: SearchBudget) -> list[dict]:
    ci = debruijn_counter(m, xi)
    checks = []

    def add(name, passed, info=None):
        checks.append({"name": name, "pass": bool(passed),
                       **({"info": info} if info else {})})

    add("file matches the canonical build", serialize(instance) == serialize(ci.instance))
    a = ci.automaton
    add("state count", a.n == 5 * m + ci.k + 3)
    add("sinks are drain and trap",
        sink_states(a) == frozenset((ci.drain, ci.trap)))
    finish_image = run(a, a.states, (3,))
    add("finish letter maps into the sinks",
        finish_image <= frozenset((ci.drain, ci.trap)))
    add("window permutation is a bijection",
        sorted(window_permutation(ci.bits)) == list(range(m)))
    add("arc pair set connects the automaton",
        augmentation_connects(a, ci.sc_pairs))
    viol = check_transversal_partition(a, ci.subset, ci.instance.partition, budget)
    add("transversal partition", viol is None)
    word = counting_word(m)
    image = run(a, ci.subset, word)
    add("counting word synchronizes", image == frozenset((ci.drain,)))
    if m <= 8:  # the threshold table's range; at m = 8 these take about a second
        res = shortest_subset_reset(a, ci.subset, budget).decided("counter search")
        add("search matches the counting word", res.witness == word,
            f"length {res.length}")
        add("witness language shape", block_language_shape(res.witness, ci.k))
        add("shortest word is unique",
            count_shortest_reset_words(a, ci.subset, budget) == (len(word), 1))
        values = [switch_value(ci, run(a, ci.subset, word[:j * (ci.k + 1)]))
                  for j in range((len(word) - 1) // (ci.k + 1) + 1)]
        add("switch trace counts 0..2^m-1",
            values == list(range(2 ** m)))
    return checks


def cmd_verify(args) -> Outcome:
    budget = _budget(args)
    if args.check == "debruijn":
        with open(args.file, encoding="utf-8") as f:
            words = f.read().split()
        if not words:
            raise CliError(f"{args.file} holds no sequence")
        bits = words[0]
        if not set(bits) <= set("01"):  # whatever its length
            raise CliError("sequence must be binary")
        k = max(1, len(bits).bit_length() - 1)
        ok = len(bits) == 1 << k and verify_de_bruijn(bits, k)
        checks = [{"name": f"de Bruijn order {k}", "pass": ok}]
        return _checks_exit(checks), _report("verify debruijn", None, [], checks)
    instance = load(args.file)
    a = instance.automaton
    if args.check == "sc":
        checks = [{"name": "strongly connected", "pass": is_strongly_connected(a)}]
    elif args.check == "swap":
        if instance.partition is None:
            raise CliError("swap check needs a partition section")
        checks = [{"name": "swap congruence",
                   "pass": is_swap_congruence(a, instance.partition)}]
    elif args.check == "transversal":
        if instance.subset is None or instance.partition is None:
            raise CliError("transversal check needs subset and partition sections")
        viol = check_transversal_partition(a, instance.subset,
                                           instance.partition, budget)
        checks = [{"name": "transversal partition", "pass": viol is None,
                   **({"info": f"violating word {viol.word} reaches "
                               f"{sorted(viol.subset)}"} if viol else {})}]
    elif args.check == "augmentation":
        if instance.pairs is None:
            raise CliError("augmentation check needs a pairs section")
        checks = [{"name": "arcs make the automaton strongly connected",
                   "pass": augmentation_connects(a, instance.pairs)}]
    else:  # counter
        if args.m is None:
            raise CliError("counter check needs --m")
        checks = _verify_counter(instance, args.m, args.xi, budget)
    return _checks_exit(checks), _report(f"verify {args.check}", instance, [], checks)


# --- experiment suites ---------------------------------------------------------


def _suite_thresholds(args, budget) -> tuple[list[dict], list[dict]]:
    rows, checks = [], []
    for m in (2, 4, 8):
        ci = debruijn_counter(m)
        word = counting_word(m)
        formula = (2 ** m - 1) * (ci.k + 1) + 1
        res = shortest_subset_reset(ci.automaton, ci.subset, budget).decided(
            f"counter m={m}")
        measured = res.length
        rows.append({
            "m": m, "n": ci.automaton.n, "letters": 4, "mode": "subset",
            "status": res.status, "length": measured, "formula_value": formula,
            "match": measured == formula, "explored": res.explored,
        })
        checks.append({"name": f"m={m}: measured length equals predicted word",
                       "pass": measured == len(word),
                       "info": f"measured {measured}, formula {formula}"})
    # the subset chain's state count equals its formula, the careful
    # chain's is bounded by it
    for variant, formula_check in (("subset", "final state count matches formula"),
                                   ("careful", "final state count within formula")):
        reports = binary_chain(2, variant, budget)
        final = reports[-1]
        n = final.output.automaton.n
        formula = final.details["formula_states"]
        ok = all(r.ok for r in reports)
        rows.append({
            "m": 2, "n": n, "letters": len(final.output.automaton.alphabet),
            "mode": f"chain-{variant}", "status": "ok" if ok else "fail",
            "length": final.details.get("witness_length"),
            "formula_value": formula, "match": dict(final.checks)[formula_check],
            "explored": None,
        })
        checks.append({"name": f"chain {variant} structural checks", "pass": ok,
                       "info": f"{n} states vs formula {formula}"})
    return rows, checks


def _suite_roundtrips(args, budget) -> tuple[list[dict], list[dict]]:
    rng = random.Random(args.seed)
    count = 50 if args.count is None else args.count
    tallies = {name: [0, 0] for name in
               ("add-sinks", "connect", "double", "restart", "binarize")}
    gaps: dict[str, list[int]] = {name: [] for name in tallies}

    def note(name, rep):
        tallies[name][rep.ok] += 1
        if "length_in" in rep.details and "length_out" in rep.details:
            gaps[name].append(rep.details["length_out"] - rep.details["length_in"])

    for _ in range(count):
        a, s, _ = random_careful_subset_pfa(rng, rng.randint(2, 6), rng.randint(2, 3),
                                            budget)
        note("add-sinks", run_reduction("add-sinks", Instance(a, s), budget))

        b, _ = random_carefully_synchronizing_pfa(rng, rng.randint(2, 6), 2, budget)
        pairs = random_connectable_pairs(rng, b, min_arcs=1)
        note("connect", run_reduction("connect", Instance(b), budget, pairs=pairs))

        c, sc, _ = random_synchronizable_subset_dfa(rng, rng.randint(2, 6), 2, budget)
        pairs = random_connectable_pairs(rng, c, min_arcs=2)
        note("double", run_reduction("double", Instance(c, sc), budget, pairs=pairs))

        d = random_pfa(rng, rng.randint(2, 6), rng.randint(2, 3))
        seed_state = rng.randrange(d.n)
        qrel, _ = relevant_part(d, (seed_state,), budget)
        note("restart", run_reduction(
            "restart", Instance(d, frozenset((seed_state,)), (qrel,)), budget))

        e, se, _ = random_synchronizable_subset_dfa(rng, rng.randint(2, 5),
                                                    rng.randint(2, 3), budget)
        note("binarize", run_reduction("binarize", Instance(e, se), budget))

    ci = debruijn_counter(2)
    note("restart", run_reduction("restart", ci.instance, budget))

    rows = []
    for name, (bad, good) in tallies.items():
        g = gaps[name]
        rows.append({
            "op": name, "instances": bad + good, "violations": bad,
            "gap_min": min(g) if g else None, "gap_max": max(g) if g else None,
            "gap_mean": round(sum(g) / len(g), 3) if g else None,
        })
    checks = [{"name": f"{name}: zero violations", "pass": bad == 0,
               "info": f"{good}/{bad + good} ok"}
              for name, (bad, good) in tallies.items()]
    return rows, checks


def _suite_oracle_cross(args, budget) -> tuple[list[dict], list[dict]]:
    rng = random.Random(args.seed)
    count = 100 if args.count is None else args.count
    agree = 0
    total = 0
    for _ in range(count):
        n = rng.randint(2, 6)
        letters = rng.randint(2, 3)
        kind = rng.choice(("dfa", "pfa", "nfa"))
        if kind == "dfa":
            a = random_dfa(rng, n, letters)
            s = random_subset(rng, n)
            modes = (CLASSIC, SUBSET)
        elif kind == "pfa":
            a = random_pfa(rng, n, letters)
            s = random_subset(rng, n)
            modes = (CAREFUL, SUBSET)
        else:
            a = random_nfa(rng, n, letters)
            s = None
            modes = (D1, D2, D3)
        ok = True
        for mode in modes:
            res = shortest_word(a, s, mode, budget).decided(f"{mode} search")
            oracle = brute_force_oracle(a, s, mode, 10)
            total += 1
            if res.found and res.length <= 10:
                ok &= oracle.status == FOUND and oracle.length == res.length \
                    and oracle.witness == res.witness
            else:
                ok &= oracle.status == NOT_SYNCHRONIZING
        agree += ok
    rows = [{"instances": count, "mode_runs": total, "agreements": agree}]
    checks = [{"name": "oracle agrees on every instance", "pass": agree == count,
               "info": f"{agree}/{count}"}]
    return rows, checks


def _suite_nfa_modes(args, budget) -> tuple[list[dict], list[dict]]:
    rng = random.Random(args.seed)
    count = 50 if args.count is None else args.count
    bad = []
    for i in range(count):
        n = rng.randint(2, 6)
        a, car = random_carefully_synchronizing_pfa(rng, n, rng.randint(2, 3), budget)
        d1, d2, d3 = (directing_word(a, mode, budget).decided(f"{mode} search")
                      for mode in (D1, D2, D3))
        if not (d1.length == d3.length == car.length
                and d2.found and d2.length <= d1.length
                and car.length <= 2 ** n - n - 1):
            bad.append(i)
    rows = [{"instances": count, "violations": len(bad)}]
    checks = [{"name": "d1 = d3 = careful, d2 <= d1, bound respected",
               "pass": not bad, "info": f"{count - len(bad)}/{count}"}]
    return rows, checks


def _suite_composition(args, budget) -> tuple[list[dict], list[dict]]:
    inst = cerny(4)
    a = inst.automaton
    gens = [tuple(next(iter(a.delta[s][x])) for s in a.states) for x in range(2)]
    res = composition_depth(4, gens, constant_target, budget).decided("composition depth")
    reset = shortest_reset(a, budget).decided("reset search")
    rows = [{"generators": 2, "target": "constant", "depth": res.length,
             "reset_length": reset.length}]
    checks = [{"name": "composition depth equals reset length",
               "pass": res.length == reset.length == 9,
               "info": f"depth {res.length}"}]
    return rows, checks


SUITES = {
    "thresholds": _suite_thresholds,
    "reduction-roundtrips": _suite_roundtrips,
    "oracle-cross": _suite_oracle_cross,
    "nfa-modes": _suite_nfa_modes,
    "composition": _suite_composition,
}


def cmd_experiment(args) -> Outcome:
    if args.count is not None and args.count < 1:
        raise CliError(f"--count must be at least 1, got {args.count}")
    budget = _budget(args)
    rows, checks = SUITES[args.suite](args, budget)
    report = _report(f"experiment {args.suite}", None, [], checks)
    report["rows"] = rows
    return _checks_exit(checks), report


@cache  # built once per process: main's in-process callers then skip its set-up
def _parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p = argparse.ArgumentParser(
        prog="syncwords",
        description="exact synchronization-word computation for finite automata")
    sub = p.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[shared], **kw)

    def common(sp):
        sp.add_argument("--max-nodes", type=int, default=None)
        sp.add_argument("--max-length", type=int, default=None)

    sp = add_parser("shortest", help="shortest word for a mode")
    sp.add_argument("file")
    sp.add_argument("--mode", required=True, choices=MODES)
    sp.add_argument("--full-witness", action="store_true")
    sp.add_argument("--witness-limit", type=int, default=WITNESS_LIMIT,
                    help="emit witnesses longer than this as run-length blocks")
    common(sp)
    sp.set_defaults(func=cmd_shortest)

    sp = add_parser("decide", help="existence decision")
    sp.add_argument("file")
    sp.add_argument("--problem", required=True,
                    choices=("subset-sync", "careful-sync"))
    common(sp)
    sp.set_defaults(func=cmd_decide)

    sp = add_parser("build", help="generate a family instance")
    sp.add_argument("family", choices=("counter", "cerny", "debruijn"))
    sp.add_argument("--m", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--xi", help="override De Bruijn sequence for the counter")
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=cmd_build)

    sp = add_parser("reduce", help="apply a threshold reduction")
    sp.add_argument("--op", required=True,
                    choices=("add-sinks", "connect", "double", "restart",
                             "binarize", "chain"))
    sp.add_argument("file", nargs="?")
    sp.add_argument("--m", type=int)
    sp.add_argument("--variant", choices=("subset", "careful"), default="subset")
    sp.add_argument("-o", "--output")
    common(sp)
    sp.set_defaults(func=cmd_reduce)

    sp = add_parser("verify", help="structural verification")
    sp.add_argument("file")
    sp.add_argument("--check", required=True,
                    choices=("sc", "swap", "transversal", "augmentation",
                             "debruijn", "counter"))
    sp.add_argument("--m", type=int)
    sp.add_argument("--xi")
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = add_parser("experiment", help="run an experiment suite")
    sp.add_argument("suite", choices=tuple(SUITES))
    sp.add_argument("--seed", type=int, default=2024)
    sp.add_argument("--count", type=int, default=None)
    common(sp)
    sp.set_defaults(func=cmd_experiment)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        started = time.perf_counter()
        code, report = args.func(args)
    except SystemExit as e:  # argparse exits 2 on a usage error, 0 on --help
        return EXIT_USAGE if e.code else EXIT_OK
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BlindSubsetError as e:
        print(f"negative: {e}", file=sys.stderr)
        return EXIT_NEGATIVE
    except BudgetExceededError as e:
        print(f"budget: {e}", file=sys.stderr)
        return EXIT_BUDGET
    except (CliError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    report["timing"] = {"elapsed_ms": round(1000 * (time.perf_counter() - started), 3)}
    _emit(report, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
