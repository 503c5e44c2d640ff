import hashlib

import pytest

from syncwords.automata import (augmentation_connects, is_strongly_connected,
                                run, sink_states)
from syncwords.families import (LETTER_BLOCK, LETTER_FINISH, CounterInstance,
                                block_language_shape, cerny, counting_word,
                                de_bruijn, debruijn_counter, switch_value,
                                verify_de_bruijn, window_permutation)
from syncwords.search import shortest_reset, shortest_subset_reset

FIG_SEQUENCE = "00101110"


def test_de_bruijn_order_one():
    assert de_bruijn(1) == "01"


def test_de_bruijn_rejects_zero():
    with pytest.raises(ValueError):
        de_bruijn(0)


@pytest.mark.parametrize("k", range(1, 13))
def test_de_bruijn_passes_verifier(k):
    assert verify_de_bruijn(de_bruijn(k), k)


@pytest.mark.parametrize("k", range(1, 5))
def test_de_bruijn_is_the_least_de_bruijn_sequence(k):
    # every binary string below it in lexicographic order misses a window
    length = 1 << k
    for value in range(1 << length):
        bits = format(value, f"0{length}b")
        ext = bits + bits[:k - 1]
        if len({ext[i:i + k] for i in range(length)}) == length:
            break
    assert de_bruijn(k) == bits


@pytest.mark.parametrize("k, digest", [(4, "afbde163548e"), (8, "077d3bf79df6"),
                                       (12, "b9a9abd9134a"), (16, "f473336a7789")])
def test_de_bruijn_is_pinned(k, digest):
    assert hashlib.sha256(de_bruijn(k).encode()).hexdigest()[:12] == digest


def test_verifier_examples():
    assert verify_de_bruijn("01", 1)
    assert not verify_de_bruijn("00", 1)
    assert verify_de_bruijn(FIG_SEQUENCE, 3)
    with pytest.raises(ValueError):
        verify_de_bruijn("0101", 1)  # length mismatch
    with pytest.raises(ValueError):
        verify_de_bruijn("0a", 1)


def test_window_permutation():
    assert window_permutation("01") == (0, 1)
    perm = window_permutation(FIG_SEQUENCE)
    assert perm[0] == 1  # first window reads 001
    assert sorted(perm) == list(range(8))


@pytest.mark.parametrize("k", range(1, 13))
def test_window_permutation_is_bijection(k):
    perm = window_permutation(de_bruijn(k))
    assert sorted(perm) == list(range(1 << k))


def test_counter_rejects_bad_sizes():
    for m in (0, 1, 3, 6, 12):
        with pytest.raises(ValueError):
            debruijn_counter(m)
    with pytest.raises(ValueError):
        counting_word(3)


def test_counter_state_counts():
    assert debruijn_counter(2).automaton.n == 14
    ci4 = debruijn_counter(4)
    assert ci4.automaton.n == 25
    assert len(ci4.subset) == 6
    assert debruijn_counter(8).automaton.n == 46


@pytest.mark.parametrize("m", [2, 4, 8])
def test_counter_structure(m):
    ci = debruijn_counter(m)
    a = ci.automaton
    assert a.kind == "dfa"
    assert len(a.alphabet) == 4
    assert sink_states(a) == frozenset({ci.drain, ci.trap})
    assert not is_strongly_connected(a)
    assert run(a, a.states, (LETTER_FINISH,)) <= frozenset({ci.drain, ci.trap})
    assert len(ci.subset) == m + 2
    assert augmentation_connects(a, ci.sc_pairs)
    assert not augmentation_connects(a, [])


def test_counter_xi_override():
    ci = debruijn_counter(8, FIG_SEQUENCE)
    assert ci.bits == FIG_SEQUENCE
    assert ci.perm == window_permutation(FIG_SEQUENCE)
    with pytest.raises(ValueError):
        debruijn_counter(8, "00000000")


def test_counter_first_switch_transition():
    # with the figure's sequence, bit 0 is 0, so (0,0) follows letter 0 to (1,0)
    ci = debruijn_counter(8, FIG_SEQUENCE)
    assert run(ci.automaton, {ci.switch_state(0, 0)}, (0,)) == \
        frozenset({ci.switch_state(1, 0)})


def test_counting_word_m2():
    assert counting_word(2) == (0, LETTER_BLOCK, 1, LETTER_BLOCK, 0, LETTER_BLOCK,
                                LETTER_FINISH)


@pytest.mark.parametrize("m", [2, 4, 8])
def test_counting_word_replays_to_drain(m):
    ci = debruijn_counter(m)
    word = counting_word(m)
    assert len(word) == (2 ** m - 1) * (ci.k + 1) + 1
    assert block_language_shape(word, ci.k)
    assert run(ci.automaton, ci.subset, word) == frozenset({ci.drain})


@pytest.mark.parametrize("m", [2, 4])
def test_search_agrees_with_counting_word(m):
    ci = debruijn_counter(m)
    res = shortest_subset_reset(ci.automaton, ci.subset)
    assert res.found
    assert res.witness == counting_word(m)


def test_switch_trace_counts_up():
    ci = debruijn_counter(2)
    word = counting_word(2)
    values = []
    for j in range(2 ** 2):
        image = run(ci.automaton, ci.subset, word[: j * (ci.k + 1)])
        values.append(switch_value(ci, image))
    assert values == [0, 1, 2, 3]
    assert switch_value(ci, frozenset({ci.drain})) is None


def test_block_language_shape_rejections():
    k = 1
    assert not block_language_shape((0, LETTER_BLOCK), k)  # no finish
    assert not block_language_shape((0, 0, LETTER_FINISH), k)  # missing block letter
    assert not block_language_shape((LETTER_BLOCK, LETTER_FINISH), k)
    # the last block is not closed by kappa
    assert not block_language_shape((0, LETTER_BLOCK, 1), k)
    assert not block_language_shape(
        (0, LETTER_BLOCK, LETTER_FINISH, LETTER_FINISH), k)  # trailing letters
    assert block_language_shape((LETTER_FINISH,), k)


def test_counter_condensation_sinks():
    from syncwords.automata import augmenting_pairs, condensation
    ci = debruijn_counter(2)
    cond = condensation(ci.automaton)
    sink_comps = cond.sinks()
    assert {cond.component_of[ci.drain], cond.component_of[ci.trap]} == set(sink_comps)
    pairs = augmenting_pairs(ci.automaton)
    assert len(pairs) == 2
    assert {r for r, _ in pairs} == {ci.drain, ci.trap}


def test_relevant_pairs_connect_the_restriction():
    from syncwords.search import relevant_part
    for m in (2, 4):
        ci = debruijn_counter(m)
        _, restricted = relevant_part(ci.automaton, ci.subset)
        assert is_strongly_connected(restricted, _reindexed(ci, restricted))


def _reindexed(ci: CounterInstance, restricted):
    from syncwords.search import relevant_part
    qrel, _ = relevant_part(ci.automaton, ci.subset)
    order = sorted(qrel)
    index = {s: i for i, s in enumerate(order)}
    return [(index[r], index[q]) for r, q in ci.relevant_sc_pairs]


def test_cerny_family():
    with pytest.raises(ValueError):
        cerny(1)
    inst = cerny(4)
    assert inst.automaton.n == 4
    assert len(inst.automaton.alphabet) == 2
    assert inst.subset == frozenset(range(4))
    assert is_strongly_connected(inst.automaton)
    assert sink_states(inst.automaton) == frozenset()


@pytest.mark.parametrize("n,expected", [(3, 4), (4, 9), (5, 16)])
def test_cerny_reset_lengths(n, expected):
    assert shortest_reset(cerny(n).automaton).length == expected


@pytest.mark.parametrize("call, message", [
    (lambda: verify_de_bruijn("01", 0), "order must be at least 1"),
    (lambda: window_permutation("011"), "sequence length must be a power of two"),
])
def test_invalid_arguments_raise(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert err.type is ValueError and err.value.args == (message,)
