"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

import random

import pytest

from syncwords.automata import (Automaton, Instance, is_strongly_connected,
                                run, sink_states)
from syncwords.families import (block_language_shape, cerny, counting_word,
                                de_bruijn, debruijn_counter, switch_value,
                                verify_de_bruijn, window_permutation)
from syncwords.reduce import binary_chain, encode_word, run_reduction
from syncwords.sampling import (random_careful_subset_pfa,
                                random_carefully_synchronizing_pfa,
                                random_connectable_pairs, random_dfa,
                                random_nfa, random_pfa, random_subset,
                                random_synchronizable_subset_dfa)
from syncwords.search import (FOUND, NOT_SYNCHRONIZING, SearchBudget,
                              brute_force_oracle, check_transversal_partition,
                              composition_depth, constant_target,
                              count_shortest_reset_words, directing_word,
                              relevant_part, shortest_careful_reset,
                              shortest_reset, shortest_subset_reset)

ACCEPTANCE_BUDGET = SearchBudget(max_nodes=10_000_000, max_length=10_000_000,
                                 max_memory=8 << 30)


def _criterion(number: int, summary: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {summary}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="session")
def counter2():
    ci = debruijn_counter(2)
    res = shortest_subset_reset(ci.automaton, ci.subset, ACCEPTANCE_BUDGET)
    return ci, res


@pytest.fixture(scope="session")
def counter4():
    ci = debruijn_counter(4)
    res = shortest_subset_reset(ci.automaton, ci.subset, ACCEPTANCE_BUDGET)
    return ci, res


def test_criterion_01_m2_exactness(counter2):
    ci, res = counter2
    predicted = counting_word(2)
    formula = 2 ** 2 * (ci.k + 1) + 1
    ok = (res.status == FOUND
          and res.elapsed < 1.0
          and res.length == len(predicted)
          and res.witness == predicted
          and count_shortest_reset_words(ci.automaton, ci.subset,
                                         ACCEPTANCE_BUDGET) == (7, 1))
    flag = ("matches formula" if res.length == formula
            else f"one counting block below formula {formula}")
    _criterion(1, "14-state search is exact and the witness unique",
               ok, f"measured {res.length} vs formula {formula}: {flag}")


def test_criterion_02_m4_exactness(counter4):
    ci, res = counter4
    predicted = counting_word(4)
    image = run(ci.automaton, ci.subset, predicted)
    ok = (res.status == FOUND
          and res.length == len(predicted)
          and image == frozenset({ci.drain})
          and count_shortest_reset_words(ci.automaton, ci.subset,
                                         ACCEPTANCE_BUDGET) == (46, 1))
    _criterion(2, "25-state search matches the predicted word",
               ok, f"length {res.length}, explored {res.explored}")


def test_criterion_03_counting_trace(counter2, counter4):
    ok = True
    for ci, res in (counter2, counter4):
        blocks = (len(res.witness) - 1) // (ci.k + 1)
        for j in range(blocks + 1):
            image = run(ci.automaton, ci.subset, res.witness[: j * (ci.k + 1)])
            if switch_value(ci, image) != j:
                ok = False
    _criterion(3, "switch configurations count 0,1,2,... along the witness", ok,
               "m=2 and m=4, every prefix")


def test_criterion_04_structure_battery(counter2, counter4):
    failures = []
    for m in (2, 4, 8):
        ci = debruijn_counter(m)
        a = ci.automaton
        if a.n != 5 * m + ci.k + 3:
            failures.append(f"m={m} state count")
        if sink_states(a) != frozenset({ci.drain, ci.trap}):
            failures.append(f"m={m} sinks")
        if not run(a, a.states, (3,)) <= frozenset({ci.drain, ci.trap}):
            failures.append(f"m={m} finish image")
        if sorted(window_permutation(ci.bits)) != list(range(m)):
            failures.append(f"m={m} permutation")
        if check_transversal_partition(a, ci.subset, ci.instance.partition,
                                       ACCEPTANCE_BUDGET) is not None:
            failures.append(f"m={m} transversal")
        if not is_strongly_connected(a, ci.sc_pairs):
            failures.append(f"m={m} automaton arcs")
        # the trap is the last index, so dropping it keeps indices dense
        block_domain = frozenset(range(a.n - 1))
        clipped = Automaton(
            "pfa", a.n - 1, a.alphabet,
            tuple(tuple(cell & block_domain for cell in a.delta[s])
                  for s in range(a.n - 1)))
        if not is_strongly_connected(clipped, ci.relevant_sc_pairs):
            failures.append(f"m={m} block-restriction arcs")
        qrel, restricted = (None, None)
        if m <= 4:
            res = {2: counter2, 4: counter4}[m][1]
            if not block_language_shape(res.witness, ci.k):
                failures.append(f"m={m} witness shape")
            qrel, restricted = relevant_part(a, ci.subset, ACCEPTANCE_BUDGET)
            order = sorted(qrel)
            index = {s: i for i, s in enumerate(order)}
            arcs = [(index[r], index[q]) for r, q in ci.relevant_sc_pairs]
            if not is_strongly_connected(restricted, arcs):
                failures.append(f"m={m} relevant arcs")
        else:
            word = counting_word(m)
            if run(a, ci.subset, word) != frozenset({ci.drain}):
                failures.append("m=8 predicted replay")
            if not block_language_shape(word, ci.k):
                failures.append("m=8 word shape")
    _criterion(4, "structure battery for m=2,4,8", not failures,
               "; ".join(failures) or "counts, sinks, shapes, partitions, arcs")


def test_criterion_05_reduction_roundtrips():
    rng = random.Random(2024)
    count = 50
    violations = []

    def note(op, rep, i):
        if not rep.ok:
            violations.append((op, i, [n for n, p in rep.checks if not p]))

    for i in range(count):
        a, s, _ = random_careful_subset_pfa(rng, rng.randint(2, 6), rng.randint(2, 3))
        note("add-sinks", run_reduction("add-sinks", Instance(a, s)), i)

        b, _ = random_carefully_synchronizing_pfa(rng, rng.randint(2, 6), 2)
        pairs = random_connectable_pairs(rng, b, min_arcs=1)
        note("connect", run_reduction("connect", Instance(b), pairs=pairs), i)

        c, sc, _ = random_synchronizable_subset_dfa(rng, rng.randint(2, 6), 2)
        pairs = random_connectable_pairs(rng, c, min_arcs=2)
        note("double", run_reduction("double", Instance(c, sc), pairs=pairs), i)

        d, sd, _ = random_careful_subset_pfa(rng, rng.randint(2, 6), 2)
        seed_state = min(sd)
        qrel, _ = relevant_part(d, (seed_state,))
        note("restart", run_reduction(
            "restart", Instance(d, frozenset((seed_state,)), (qrel,))), i)

        e, se, _ = random_synchronizable_subset_dfa(rng, rng.randint(2, 5),
                                                    rng.randint(2, 3))
        rep = run_reduction("binarize", Instance(e, se))
        note("binarize", rep, i)
        for _ in range(5):  # both directions of the word correspondence
            w = tuple(rng.randrange(len(e.alphabet))
                      for _ in range(rng.randint(0, 6)))
            resets_in = len(run(e, se, w)) == 1
            image = run(rep.output.automaton, rep.output.subset,
                        encode_word(w, len(e.alphabet)))
            if resets_in != (len(image) == 1):
                violations.append(("binarize-correspondence", i, w))

    for m in (2, 4):
        ci = debruijn_counter(m)
        note("restart", run_reduction("restart", ci.instance), f"counter-{m}")

    _criterion(5, f"reduction round-trips on {count} seeded instances per transform",
               not violations, f"violations: {violations!r}" if violations
               else "gaps +1 exact, >= +1, [L, L+1], correspondences hold")


def test_criterion_06_binary_chains():
    failures = []
    subset_reports = binary_chain(2, "subset", ACCEPTANCE_BUDGET)
    final = subset_reports[-1].output
    if not all(r.ok for r in subset_reports):
        failures.append("subset chain checks")
    if final.automaton.n != 60 * 2 + 12 * 1 + 48:
        failures.append(f"subset chain size {final.automaton.n}")
    if len(final.automaton.alphabet) != 2 or final.automaton.kind != "dfa":
        failures.append("subset chain alphabet/kind")
    if not is_strongly_connected(final.automaton):
        failures.append("subset chain connectivity")

    careful_reports = binary_chain(2, "careful", ACCEPTANCE_BUDGET)
    cfinal = careful_reports[-1].output
    formula = 35 * 2 + 7 * 1 + 21
    relevant_states = careful_reports[0].output.automaton.n
    if not all(r.ok for r in careful_reports):
        failures.append("careful chain checks")
    if cfinal.automaton.n != 7 * relevant_states:
        failures.append(f"careful chain size {cfinal.automaton.n}")
    if cfinal.automaton.n > formula:
        failures.append("careful chain exceeds formula")
    if len(cfinal.automaton.alphabet) != 2 or cfinal.automaton.kind != "pfa":
        failures.append("careful chain alphabet/kind")
    if not is_strongly_connected(cfinal.automaton):
        failures.append("careful chain connectivity")

    _criterion(6, "binary strongly connected chains at m=2", not failures,
               "; ".join(failures) or
               f"subset 180 states exact; careful {cfinal.automaton.n} states "
               f"= 7 x relevant, formula bound {formula}")


def test_criterion_07_oracle_equivalence():
    rng = random.Random(4096)
    agreements = 0
    count = 100
    for _ in range(count):
        n = rng.randint(2, 6)
        letters = rng.randint(2, 3)
        kind = rng.choice(("dfa", "pfa", "nfa"))
        if kind == "dfa":
            a = random_dfa(rng, n, letters)
            s = random_subset(rng, n)
            runs = [("classic", shortest_reset(a)),
                    ("subset", shortest_subset_reset(a, s))]
        elif kind == "pfa":
            a = random_pfa(rng, n, letters)
            s = random_subset(rng, n)
            runs = [("careful", shortest_careful_reset(a)),
                    ("subset", shortest_subset_reset(a, s))]
        else:
            a = random_nfa(rng, n, letters)
            s = None
            runs = [(mode, directing_word(a, mode)) for mode in ("d1", "d2", "d3")]
        ok = True
        for mode, res in runs:
            oracle = brute_force_oracle(a, s, mode, 10)
            if res.found and res.length <= 10:
                ok &= (oracle.status == FOUND and oracle.length == res.length
                       and oracle.witness == res.witness)
            else:
                ok &= oracle.status == NOT_SYNCHRONIZING
        agreements += ok
    _criterion(7, "oracle agreement on 100 seeded instances",
               agreements == count, f"{agreements}/{count}")


def test_criterion_08_cerny_baseline():
    measured = {}
    for n in range(3, 9):
        measured[n] = shortest_reset(cerny(n).automaton).length
    ok = all(measured[n] == (n - 1) ** 2 for n in range(3, 9))
    for n, max_len in ((3, 5), (4, 10), (5, 16)):
        oracle = brute_force_oracle(cerny(n).automaton, None, "classic", max_len)
        ok &= oracle.length == (n - 1) ** 2
    _criterion(8, "classical family lengths (n-1)^2 for n=3..8, oracle to n=5",
               ok, " ".join(f"n={n}:{measured[n]}" for n in sorted(measured)))


def test_criterion_09_pfa_directing_modes():
    rng = random.Random(515)
    count = 50
    bad = 0
    for _ in range(count):
        n = rng.randint(2, 6)
        a, car = random_carefully_synchronizing_pfa(rng, n, rng.randint(2, 3))
        d1 = directing_word(a, "d1")
        d2 = directing_word(a, "d2")
        d3 = directing_word(a, "d3")
        if not (d1.length == d3.length == car.length
                and d2.found and d2.length <= d1.length
                and car.length <= 2 ** n - n - 1):
            bad += 1
    _criterion(9, "d1 = d3 = careful and d2 <= d1 on 50 seeded instances",
               bad == 0, f"{count - bad}/{count}, bound 2^n-n-1 respected")


def test_criterion_10_de_bruijn():
    ok = all(verify_de_bruijn(de_bruijn(k), k) for k in range(1, 13))
    ok &= verify_de_bruijn("00101110", 3)
    _criterion(10, "generated sequences pass the verifier for k=1..12", ok,
               "figure sequence 00101110 accepted for k=3")


def test_criterion_11_composition_depth():
    a = cerny(4).automaton
    gens = [tuple(next(iter(a.delta[s][x])) for s in a.states)
            for x in range(len(a.alphabet))]
    res = composition_depth(4, gens, constant_target)
    _criterion(11, "composition depth to a constant function over the "
                   "4-state family generators", res.length == 9,
               f"depth {res.length}")
