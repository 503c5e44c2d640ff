import dataclasses
import hashlib
import random

import pytest

from syncwords.automata import (Instance, dfa_from_table, is_strongly_connected,
                                nfa_from_sets, pfa_from_table, run)
from syncwords.families import cerny, debruijn_counter
from syncwords.reduce import (add_link_letters, add_restart_letter,
                              add_sink_determinization, binarize, binary_chain,
                              decode_word, encode_word, run_reduction,
                              swap_doubling)
from syncwords.sampling import (random_careful_subset_pfa,
                                random_carefully_synchronizing_pfa,
                                random_connectable_pairs, random_dfa,
                                random_nfa, random_pfa,
                                random_synchronizable_subset_dfa)
from syncwords.search import (BlindSubsetError, BudgetExceededError,
                              SearchBudget, _reset_search, is_swap_congruence,
                              shortest_careful_reset, shortest_subset_reset)
from syncwords.textio import parse, serialize


def test_add_sinks_one_state():
    a = pfa_from_table([[0]], "a")
    out = add_sink_determinization(a, {0})
    assert out.automaton.n == 3
    assert out.automaton.kind == "dfa"
    assert shortest_subset_reset(out.automaton, out.subset).length == 1


def test_add_sinks_counts_and_gap():
    rng = random.Random(3)
    for _ in range(15):
        a, s, before = random_careful_subset_pfa(rng, rng.randint(2, 6), rng.randint(2, 3))
        out = add_sink_determinization(a, s)
        assert out.automaton.n == a.n + 2
        assert len(out.automaton.alphabet) == len(a.alphabet) + 1
        after = shortest_subset_reset(out.automaton, out.subset)
        assert after.length == before.length + 1


def test_add_sinks_blind_subset_rejected():
    a = dfa_from_table([[1, 0], [0, 1]], "ab")
    with pytest.raises(BlindSubsetError):
        add_sink_determinization(a, {0, 1})


def test_add_sinks_avoids_token_collision():
    ci = debruijn_counter(2)  # already uses the omega token
    out = add_sink_determinization(ci.automaton, ci.subset)
    symbols = out.automaton.alphabet.symbols
    assert len(set(symbols)) == len(symbols)


def test_link_letters_identity_without_arcs():
    a = cerny(4).automaton
    out = add_link_letters(a, [])
    assert out.automaton is a


def test_link_letters_rejects_useless_arcs():
    a = dfa_from_table([[1], [1]], "a")
    with pytest.raises(ValueError):
        add_link_letters(a, [(0, 1)])  # still nothing entering state 0


def test_link_letters_preserves_careful_length():
    rng = random.Random(13)
    for _ in range(15):
        a, before = random_carefully_synchronizing_pfa(rng, rng.randint(2, 6), 2)
        pairs = random_connectable_pairs(rng, a, min_arcs=1)
        out = add_link_letters(a, pairs)
        assert is_strongly_connected(out.automaton)
        assert len(out.automaton.alphabet) == len(a.alphabet) + len(pairs)
        after = shortest_careful_reset(out.automaton)
        assert after.length == before.length
        assert all(x < len(a.alphabet) for x in after.witness)


def test_doubling_requires_two_arcs():
    a, s = cerny(3).automaton, frozenset({0, 1})
    with pytest.raises(ValueError):
        swap_doubling(a, s, [(0, 0)])


def test_doubling_structure():
    rng = random.Random(29)
    for _ in range(15):
        a, s, _ = random_synchronizable_subset_dfa(rng, rng.randint(2, 6), 2)
        pairs = random_connectable_pairs(rng, a, min_arcs=2)
        out = swap_doubling(a, s, pairs)
        b = out.automaton
        assert b.n == 2 * a.n + 2
        assert len(b.alphabet) == len(a.alphabet) + len(pairs)
        assert is_strongly_connected(b)
        assert is_swap_congruence(b, out.partition)
        before = shortest_subset_reset(a, s)
        after = shortest_subset_reset(b, out.subset)
        assert after.length >= before.length + 1


def test_doubling_barred_copy_mirrors():
    a, s = cerny(4).automaton, frozenset({0, 1, 2})
    pairs = [(0, 2), (1, 3)]
    out = swap_doubling(a, s, pairs)
    b = out.automaton
    for q in range(a.n):
        for x in range(len(a.alphabet)):
            (plain,) = b.delta[q][x]
            (barred,) = b.delta[q + a.n][x]
            assert barred == plain + a.n


def test_restart_letter_counter():
    ci = debruijn_counter(2)
    out = add_restart_letter(ci.automaton, ci.subset, ci.instance.partition)
    b = out.automaton
    assert b.kind == "pfa"
    assert b.n == sum(len(blk) for blk in ci.instance.partition)
    assert len(b.alphabet) == 5
    restart = 4
    image = run(b, b.states, (restart,))
    assert len(image) == len(ci.subset)
    assert run(b, image, (restart,)) == image
    csub = shortest_subset_reset(ci.automaton, ci.subset).length
    car = shortest_careful_reset(b).length
    assert csub <= car <= csub + 1


def test_restart_rejects_bad_partition():
    ci = debruijn_counter(2)
    blocks = list(ci.instance.partition)
    b0, b1 = set(blocks[0]), set(blocks[1])
    moved = min(b1)
    b0.add(moved); b1.discard(moved)
    bad = (frozenset(b0), frozenset(b1)) + tuple(blocks[2:])
    with pytest.raises(ValueError):
        add_restart_letter(ci.automaton, ci.subset, bad)


def test_binarize_counts():
    a = cerny(5).automaton
    out = binarize(a, frozenset(range(5)))
    assert out.automaton.n == 10
    assert len(out.automaton.alphabet) == 2
    four = dfa_from_table([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]],
                          "abcd")
    assert binarize(four, frozenset({0})).automaton.n == 16


def test_encode_decode():
    assert encode_word((), 3) == ()
    assert encode_word((0,), 3) == (0,)
    assert encode_word((2, 0), 3) == (1, 1, 0, 0)
    assert decode_word(encode_word((2, 0, 1), 3)) == (2, 0, 1)
    with pytest.raises(ValueError):
        decode_word((1, 1))  # trailing advances
    with pytest.raises(ValueError):
        decode_word((2,))
    with pytest.raises(ValueError):
        encode_word((3,), 3)


def test_binarize_word_correspondence():
    rng = random.Random(31)
    for _ in range(15):
        a, s, _ = random_synchronizable_subset_dfa(rng, rng.randint(2, 5),
                                                   rng.randint(2, 3))
        out = binarize(a, s)
        for _ in range(10):
            w = tuple(rng.randrange(len(a.alphabet)) for _ in range(rng.randint(0, 6)))
            resets_a = len(run(a, s, w)) == 1
            image_b = run(out.automaton, out.subset, encode_word(w, len(a.alphabet)))
            assert resets_a == (len(image_b) == 1)


def test_binarize_witness_decodes():
    rng = random.Random(37)
    for _ in range(10):
        a, s, _ = random_synchronizable_subset_dfa(rng, rng.randint(2, 5), 2)
        out = binarize(a, s)
        res = shortest_subset_reset(out.automaton, out.subset)
        decoded = decode_word(res.witness)
        assert len(run(a, s, decoded)) == 1


def test_binarize_careful_needs_total_letter():
    a = pfa_from_table([[0, None], [None, 1]], "ab")
    with pytest.raises(ValueError):
        binarize(a)


def test_binarize_careful_reorders_alphabet():
    # only letter a is total; it must drive the last column
    a = pfa_from_table([[1, None], [0, 1]], "ab")
    out = binarize(a)
    assert out.automaton.state_labels == ("0|b", "0|a", "1|b", "1|a")


def test_binarize_careful_preserves_synchronization():
    rng = random.Random(41)
    for _ in range(10):
        a, before = random_carefully_synchronizing_pfa(rng, rng.randint(2, 5),
                                                       rng.randint(2, 3))
        out = binarize(a)
        after = shortest_careful_reset(out.automaton)
        assert after.found
        assert after.length >= before.length


def test_run_reduction_records_roundtrip():
    rng = random.Random(47)
    a, s, _ = random_synchronizable_subset_dfa(rng, 4, 2)
    rep = run_reduction("binarize", Instance(a, s))
    assert rep.ok
    assert dict(rep.checks)["output serialization round-trips"]
    assert parse(serialize(rep.output)) == rep.output


def test_samplers_return_the_search_that_accepted_the_draw():
    rng = random.Random(53)
    a, s, res = random_synchronizable_subset_dfa(rng, 5, 2)
    assert res.found and res == shortest_subset_reset(a, s)
    a, s, res = random_careful_subset_pfa(rng, 5, 2)
    assert res.found and res == shortest_subset_reset(a, s)
    a, res = random_carefully_synchronizing_pfa(rng, 5, 2)
    assert res.found and res == shortest_careful_reset(a)


@pytest.mark.parametrize("sample", [
    lambda rng, budget: random_synchronizable_subset_dfa(rng, 6, 2, budget),
    lambda rng, budget: random_careful_subset_pfa(rng, 6, 2, budget),
    lambda rng, budget: random_carefully_synchronizing_pfa(rng, 6, 2, budget),
], ids=["subset-dfa", "subset-pfa", "careful-pfa"])
def test_samplers_raise_when_the_budget_stops_a_search(sample):
    # a stopped search decides nothing about the draw, so it is not rejected
    with pytest.raises(BudgetExceededError, match="undecided within budget"):
        sample(random.Random(7), SearchBudget(max_nodes=1))


@pytest.mark.parametrize("name", ["add-sinks", "connect", "double", "binarize"])
def test_a_cached_search_gives_the_same_report(name):
    # a report does not depend on whether the engine's cache already
    # holds its searches
    rng = random.Random(59)
    if name == "add-sinks":
        a, s, _ = random_careful_subset_pfa(rng, 5, 2)
        instance, pairs = Instance(a, s), None
    elif name == "connect":
        a, _ = random_carefully_synchronizing_pfa(rng, 5, 2)
        instance, pairs = Instance(a), random_connectable_pairs(rng, a, min_arcs=1)
    else:
        a, s, _ = random_synchronizable_subset_dfa(rng, 5, 2)
        instance = Instance(a, s)
        pairs = random_connectable_pairs(rng, a, min_arcs=2) if name == "double" else None
    _reset_search.cache_clear()
    cold = run_reduction(name, instance, pairs=pairs)
    misses = _reset_search.cache_info().misses
    warm = run_reduction(name, instance, pairs=pairs)
    assert _reset_search.cache_info().misses == misses  # every search a hit
    assert cold.ok
    assert cold == warm


def test_run_reduction_raises_when_a_search_hits_the_budget():
    # binarize makes no search of its own: the common tail's input search
    # of the counter subset is the first to stop
    with pytest.raises(BudgetExceededError):
        run_reduction("binarize", debruijn_counter(4).instance,
                      SearchBudget(max_nodes=40))


def test_run_reduction_unknown():
    with pytest.raises(ValueError):
        run_reduction("fold", Instance(dfa_from_table([[0]], "a"), frozenset({0})))


def test_subset_chain_m2():
    reports = binary_chain(2, "subset")
    assert [r.name for r in reports] == ["double", "binarize"]
    assert all(r.ok for r in reports), [c for r in reports for c in r.checks if not c[1]]
    final = reports[-1].output
    assert final.automaton.n == 180
    assert final.automaton.kind == "dfa"
    assert len(final.automaton.alphabet) == 2
    assert is_strongly_connected(final.automaton)
    assert reports[0].details["gap"] >= 1


def test_careful_chain_m2():
    reports = binary_chain(2, "careful")
    assert [r.name for r in reports] == ["restart", "connect", "binarize"]
    assert all(r.ok for r in reports), [c for r in reports for c in r.checks if not c[1]]
    final = reports[-1].output
    assert final.automaton.n == 91
    assert final.automaton.kind == "pfa"
    assert len(final.automaton.alphabet) == 2
    assert is_strongly_connected(final.automaton)
    assert reports[-1].details["final_states"] <= reports[-1].details["formula_states"]


def test_chain_rejects_bad_variant():
    with pytest.raises(ValueError):
        binary_chain(2, "both")


def test_chains_m4():
    from syncwords.search import SearchBudget
    budget = SearchBudget(max_nodes=2_000_000)
    subset = binary_chain(4, "subset", budget)
    assert all(r.ok for r in subset)
    assert subset[-1].output.automaton.n == 60 * 4 + 12 * 2 + 48
    careful = binary_chain(4, "careful", budget)
    assert all(r.ok for r in careful)
    assert careful[-1].output.automaton.n == 7 * 24


ROUNDTRIP = "output serialization round-trips"
PRESERVED = "synchronizability preserved"


def _pinned_instances():
    ci = debruijn_counter(2)
    partial = pfa_from_table([[1, 0], [1, None]], "ab")  # not strongly connected
    return {
        "add-sinks": (Instance(ci.automaton, ci.subset), None),
        "connect": (Instance(partial), [(1, 0)]),
        "double": (ci.instance, None),
        "restart": (ci.instance, None),
        "binarize": (Instance(ci.automaton, ci.subset), None),
        "careful binarize": (Instance(cerny(3).automaton), None),
    }


@pytest.mark.parametrize("case, checks, details", [
    ("add-sinks", ["state count +2", "letter count +1", PRESERVED, "gap exactly +1"],
     ["length_in", "length_out"]),
    ("connect", ["strongly connected", "letter count +arcs", PRESERVED,
                 "careful length equal",
                 "witness avoids link letters"],
     ["status_in", "status_out", "length_in", "length_out"]),
    ("double", ["state count 2n+2", "strongly connected", "swap congruence",
                PRESERVED, "gap at least +1"],
     ["length_in", "length_out", "gap"]),
    ("restart", ["letter count +1", "state count = block union",
                 "restart letter idempotent on its image", PRESERVED,
                 "careful length in [L, L+1]"],
     ["length_in", "length_out"]),
    ("binarize", ["state count k*n", "binary", PRESERVED,
                  "decoded witness resets the input subset",
                  "encoded witness resets the output subset"],
     ["length_in", "length_out"]),
    ("careful binarize", ["state count k*n", "binary", PRESERVED, "careful length does not drop",
                          "decoded witness carefully resets the input"],
     ["length_in", "length_out"]),
])
def test_report_check_names_and_details_are_pinned(case, checks, details):
    instance, pairs = _pinned_instances()[case]
    rep = run_reduction(case.split()[-1], instance, pairs=pairs)
    assert [name for name, _ in rep.checks] == checks + [ROUNDTRIP]
    assert list(rep.details) == details
    assert rep.ok


def test_every_reduction_checks_that_synchronizability_survives(monkeypatch):
    # a binarize that returns a same-size binary permutation automaton
    # passes every structural check, but its subset is blind
    def permutation(a, subset=None):
        size = a.n * len(a.alphabet)
        table = [[(s + 1) % size, s] for s in range(size)]
        return Instance(dfa_from_table(table, "ab"),
                        frozenset(s * len(a.alphabet) for s in subset))

    monkeypatch.setattr("syncwords.reduce.binarize", permutation)
    ci = debruijn_counter(2)
    rep = run_reduction("binarize", Instance(ci.automaton, ci.subset))
    assert not rep.ok
    assert dict(rep.checks)[PRESERVED] is False


def test_subset_binarize_checks_the_decoded_witness_carefully(monkeypatch):
    # a binarize whose apply letter loops to (s, first letter) where the
    # selected letter is undefined: the output's witness alpha decodes to a,
    # which is undefined on state 0, so it is no careful word of the input
    def looping(a, subset=None):
        k = len(a.alphabet)
        table = [[next(iter(a.delta[s][x]), s) * k, s * k + min(x + 1, k - 1)]
                 for s in a.states for x in range(k)]
        return Instance(pfa_from_table(table, "ab"), frozenset(s * k for s in subset))

    monkeypatch.setattr("syncwords.reduce.binarize", looping)
    a = pfa_from_table([[None, 1], [0, 1]], "ab")
    rep = run_reduction("binarize", Instance(a, frozenset({0, 1})))
    assert not rep.ok
    assert dict(rep.checks)["decoded witness resets the input subset"] is False


# sha256 of the serialized output of each construction, taken before the
# constructions were rewritten as successor tables
CONSTRUCTION_DIGESTS = {
    "add-sinks": "22dc507c16c540012f5d9c145fe52446840db2f359efb9bd03c67bf06b8020da",
    "connect": "5ea81a6451ba8e174e7003017d50506314875bc2e2b95ad607f8c91142915ddf",
    "double": "d4561e6eb70547c76df6c2acc18f1a546b5fe787e79f39ecd7cf1cb330e12c4b",
    "restart": "45a2903ae7173886e90f05b2682a8cfaa8de235cd51b46bdf5f3d65108918f9d",
    "binarize": "4bb923fc9de8f58d60caae81ee4f55cddecb4cc3b4be8f2677a46269ddc70bb6",
    "careful binarize": "51b8ee02d530497763c6a69079f85fab12b69c33dfb561eb8d33ae2b2e875666",
    "counter m=4": "542f965b62a417345dec9c6b8627da567bb78d3b66705d303ea2fad7316c4265",
    "cerny n=5": "8efbfe271e491622d1d56bec347c2415d8c933466e404ac40ea9a2e3013ba59c",
    "random dfa": "847be0f29b7cd7c5710636dbc3cf405c6274b3bab23465596c7198c0ec9b2440",
    "random pfa": "0c4291e346ec695906f6b3d8cfd0e52749db38e5f1045880427d7ac67cc5e514",
    "random nfa": "ef8b465c26a36b28fe486aa49c8a203c04ee3ef4f773e4b3886419e786d11f2b",
}


def test_construction_outputs_are_byte_pinned():
    built = {case: run_reduction(case.split()[-1], instance, pairs=pairs).output
             for case, (instance, pairs) in _pinned_instances().items()}
    built["counter m=4"] = debruijn_counter(4).instance
    built["cerny n=5"] = cerny(5)
    for name, sample in (("dfa", random_dfa), ("pfa", random_pfa), ("nfa", random_nfa)):
        built[f"random {name}"] = Instance(sample(random.Random(61), 6, 3))
    digests = {name: hashlib.sha256(serialize(instance).encode()).hexdigest()
               for name, instance in built.items()}
    assert digests == CONSTRUCTION_DIGESTS


def test_reports_are_frozen():
    rep = run_reduction("binarize", Instance(cerny(3).automaton))
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.checks = ()
    with pytest.raises(TypeError):
        rep.details["length_in"] = 0
    final = binary_chain(2, "subset")[-1]
    assert isinstance(final.checks, tuple)
    assert final.details["formula_states"] == 180


_LOOPS = dfa_from_table([[0], [1], [2]], "a")  # three states, each looping
_NFA = nfa_from_sets([[{0}]], "a")
_NOT_CONNECTING = "the given arcs do not make the automaton strongly connected"


@pytest.mark.parametrize("call, message", [
    (lambda: add_sink_determinization(_NFA, {0}), "determinization applies to dfa/pfa"),
    (lambda: add_link_letters(_NFA, ()), "link letters apply to dfa/pfa"),
    (lambda: swap_doubling(pfa_from_table([[0]], "a"), {0}, [(0, 0), (0, 0)]),
     "doubling applies to dfa"),
    # the arcs link states 0 and 1 but never reach state 2
    (lambda: swap_doubling(_LOOPS, {0, 1}, [(0, 1), (1, 0)]), _NOT_CONNECTING),
    (lambda: binarize(_NFA), "binarization applies to dfa/pfa"),
    (lambda: run_reduction("add-sinks", Instance(_LOOPS)), "add-sinks needs a subset"),
    (lambda: run_reduction("double", Instance(_LOOPS)), "double needs a subset"),
    (lambda: run_reduction("restart", Instance(_LOOPS, subset=frozenset({0}))),
     "restart needs a subset and a partition"),
])
def test_invalid_arguments_raise(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert err.type is ValueError and err.value.args == (message,)
