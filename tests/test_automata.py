import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncwords.automata import (Alphabet, Automaton, Instance,
                                augmentation_connects, augmenting_pairs,
                                condensation, dfa_from_table,
                                is_strongly_connected, nfa_from_sets,
                                pfa_from_table, run, sink_states, step)


@st.composite
def dfas(draw, max_states=6, max_letters=3):
    n = draw(st.integers(1, max_states))
    k = draw(st.integers(1, max_letters))
    table = [[draw(st.integers(0, n - 1)) for _ in range(k)] for _ in range(n)]
    return dfa_from_table(table, string.ascii_lowercase[:k])


@st.composite
def pfas(draw, max_states=6, max_letters=3):
    n = draw(st.integers(1, max_states))
    k = draw(st.integers(1, max_letters))
    table = [
        [draw(st.one_of(st.none(), st.integers(0, n - 1))) for _ in range(k)]
        for _ in range(n)
    ]
    return pfa_from_table(table, string.ascii_lowercase[:k])


@st.composite
def nfas(draw, max_states=5, max_letters=3):
    n = draw(st.integers(1, max_states))
    k = draw(st.integers(1, max_letters))
    table = [
        [draw(st.sets(st.integers(0, n - 1), max_size=n)) for _ in range(k)]
        for _ in range(n)
    ]
    return nfa_from_sets(table, string.ascii_lowercase[:k])


def words(a, max_len=6):
    return st.lists(st.integers(0, len(a.alphabet) - 1), max_size=max_len).map(tuple)


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet(())
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError):
        Alphabet(("a b",))
    with pytest.raises(ValueError):
        Alphabet(("-",))
    for tok in (5, ["b"]):
        with pytest.raises(ValueError, match="bad letter token"):
            Alphabet(("a", tok))  # type: ignore[arg-type]
    assert Alphabet(("0", "1", "κ", "ω")).index("κ") == 2


def test_kind_invariants():
    with pytest.raises(ValueError):
        dfa_from_table([[0, None]], "ab")  # type: ignore[list-item]
    with pytest.raises(ValueError):
        Automaton("pfa", 2, Alphabet(("a",)),
                  ((frozenset((0, 1)),), (frozenset((0,)),)))
    with pytest.raises(ValueError):
        dfa_from_table([[5]], "a")
    pfa_from_table([[None]], "a")  # undefined cell is fine for pfa


@pytest.mark.parametrize("label", ["", "p q", "p=q", "p#q", " ", "p\u2003", "\x1c", 5])
def test_labels_the_text_format_cannot_hold_are_rejected(label):
    with pytest.raises(ValueError, match="bad state label"):
        dfa_from_table([[0]], "a", [label])


@pytest.mark.parametrize("label", ["", "p q", "p=q", "p#q", "q "])
def test_the_first_bad_label_is_named(label):
    # the labels are checked together; the message names the first bad one
    with pytest.raises(ValueError, match=f"bad state label {label!r}"):
        dfa_from_table([[0], [1], [2], [0]], "a", ["p", label, "r s", "t"])


def test_step_examples():
    a = pfa_from_table([[1, None], [1, 0]], "ab")
    assert step(a, 0, 0) == frozenset({1})
    assert step(a, 0, 1) == frozenset()
    with pytest.raises(IndexError):
        step(a, 2, 0)
    with pytest.raises(IndexError):
        step(a, 0, 2)


def test_run_identity_and_extension():
    a = dfa_from_table([[1, 0], [0, 1]], "ab")
    assert run(a, {0, 1}, ()) == frozenset({0, 1})
    assert run(a, {0}, (0, 1)) == run(a, run(a, {0}, (0,)), (1,))


@settings(max_examples=60)
@given(st.data())
def test_extension_law(data):
    a = data.draw(dfas())
    s = data.draw(st.integers(0, a.n - 1))
    u = data.draw(words(a))
    v = data.draw(words(a))
    assert run(a, {s}, u + v) == run(a, run(a, {s}, u), v)


@settings(max_examples=60)
@given(st.data())
def test_dfa_monotonicity(data):
    a = data.draw(dfas())
    start = data.draw(st.sets(st.integers(0, a.n - 1), min_size=1))
    w = data.draw(words(a))
    assert len(run(a, start, w)) <= len(start)


@settings(max_examples=60)
@given(st.data())
def test_nfa_union_distribution(data):
    a = data.draw(nfas())
    t1 = data.draw(st.sets(st.integers(0, a.n - 1)))
    t2 = data.draw(st.sets(st.integers(0, a.n - 1)))
    w = data.draw(words(a))
    assert run(a, t1 | t2, w) == run(a, t1, w) | run(a, t2, w)


def test_sink_states():
    a = dfa_from_table([[0, 0], [1, 1], [0, 1]], "ab")
    assert sink_states(a) == frozenset({0, 1})
    trivial = dfa_from_table([[0]], "a")
    assert sink_states(trivial) == frozenset({0})
    # pfa: an undefined letter disqualifies a sink
    p = pfa_from_table([[0, None]], "ab")
    assert sink_states(p) == frozenset()


@settings(max_examples=60)
@given(dfas(max_states=6))
def test_sink_excludes_strong_connectivity(a):
    if a.n >= 2 and sink_states(a):
        assert not is_strongly_connected(a)


def test_strongly_connected_small():
    assert is_strongly_connected(dfa_from_table([[0]], "a"))
    cycle = dfa_from_table([[1], [2], [0]], "a")
    assert is_strongly_connected(cycle)
    chain = dfa_from_table([[1], [1]], "a")
    assert not is_strongly_connected(chain)


def test_condensation_topological():
    # two states feeding a sink
    a = dfa_from_table([[1, 2], [1, 2], [2, 2]], "ab")
    cond = condensation(a)
    order = {comp: i for i, comp in enumerate(cond.components)}
    for i, j in cond.dag_edges:
        assert i < j
    assert sorted(sum(map(list, cond.components), [])) == list(a.states)
    assert all(cond.component_of[s] == ci
               for ci, comp in enumerate(cond.components) for s in comp)


def test_condensation_disjoint_cycles():
    a = pfa_from_table([[1], [0], [3], [2]], "a")
    cond = condensation(a)
    assert len(cond.components) == 2
    assert not cond.dag_edges
    pairs = augmenting_pairs(a)
    assert len(pairs) == 2
    assert augmentation_connects(a, pairs)


def test_augmenting_pairs_sc_is_empty():
    cycle = dfa_from_table([[1], [2], [0]], "a")
    assert augmenting_pairs(cycle) == []
    assert augmentation_connects(cycle, [])


def test_augmentation_examples():
    chain = dfa_from_table([[1], [1]], "a")
    assert not augmentation_connects(chain, [])
    assert augmentation_connects(chain, [(1, 0)])


@settings(max_examples=80)
@given(st.one_of(dfas(), pfas(), nfas()))
def test_augmenting_pairs_always_connect(a):
    pairs = augmenting_pairs(a)
    assert augmentation_connects(a, pairs)
    if is_strongly_connected(a):
        assert pairs == []


def test_word_tokens_rendering():
    from syncwords.automata import Alphabet, word_tokens
    tight = Alphabet(("0", "1", "κ"))
    assert word_tokens(tight, (0, 2, 1)) == "0κ1"
    wide = Alphabet(("a", "ψ1"))
    assert word_tokens(wide, (0, 1, 0)) == "a ψ1 a"
    assert word_tokens(tight, ()) == ""


def _table(kind, n, letters, rows):
    return Automaton(kind, n, Alphabet(tuple(letters)),
                     tuple(tuple(frozenset(cell) for cell in row) for row in rows))


@pytest.mark.parametrize("kind, rows, message", [
    ("dfa", [[1], [2]], "state 1 letter 0: successor out of range"),
    ("nfa", [[(0,), (-1,)], [(), ()]], "state 0 letter 1: successor out of range"),
    ("pfa", [[(0,), ()], [(1.0,), ()]], "state 1 letter 0: successor out of range"),
    ("pfa", [[(1,), ()], [(1.0,), ()]], "state 1 letter 0: successor out of range"),
    ("dfa", [[(0,), (1,)], [(0,), ()]], "dfa must be total: state 1 letter 1"),
    ("pfa", [[(0,), ()], [(), (0, 1)]], "pfa cell (1,1) has 2 successors"),
    ("nfa", [[(0,), (1,)], [(0,)]], "state 1: delta row length != alphabet size"),
    # the first bad cell in table order is named
    ("dfa", [[(0,), ()], [(5,), (0,)]], "dfa must be total: state 0 letter 1"),
    ("pfa", [[(0, 1), (0,)], [(0,), (7,)]], "pfa cell (0,0) has 2 successors"),
], ids=["range", "negative", "not-int", "not-int-after-int", "dfa-total",
        "pfa-two", "row-length", "first-of-two", "first-row-first"])
def test_table_errors_name_the_first_bad_cell(kind, rows, message):
    letters = "ab"[:max(map(len, rows))]
    rows = [[(c,) if isinstance(c, int) else c for c in row] for row in rows]
    with pytest.raises(ValueError) as err:
        _table(kind, len(rows), letters, rows)
    assert str(err.value) == message


def test_instance_validation():
    a = dfa_from_table([[1], [0]], "a")
    with pytest.raises(ValueError):
        Instance(a, frozenset())
    with pytest.raises(ValueError):
        Instance(a, frozenset({5}))
    with pytest.raises(ValueError):
        Instance(a, frozenset({0}), (frozenset({0, 1}), frozenset({1})))
    with pytest.raises(ValueError):
        Instance(a, frozenset({0}), None, ((0, 7),))
    Instance(a, frozenset({0, 1}), (frozenset({0}), frozenset({1})), ((0, 1),))


_ONE_LETTER = Alphabet(("a",))
_LOOP = (frozenset({0}),)  # the row of a state that loops on its one letter
_TWO_LOOPS = dfa_from_table([[0], [1]], "a")


@pytest.mark.parametrize("call, error, message", [
    (lambda: Automaton("tree", 1, _ONE_LETTER, (_LOOP,)), ValueError, "unknown kind 'tree'"),
    (lambda: Automaton("dfa", 0, _ONE_LETTER, ()), ValueError, "need at least one state"),
    (lambda: Automaton("dfa", 2, _ONE_LETTER, (_LOOP,)), ValueError,
     "delta must have one row per state"),
    (lambda: Automaton("dfa", 1, _ONE_LETTER, (_LOOP,), ("p", "q")), ValueError,
     "need one label per state"),
    (lambda: _ONE_LETTER.index("b"), KeyError, "unknown letter 'b'"),
    (lambda: Instance(_TWO_LOOPS, partition=(frozenset({0}), frozenset())), ValueError,
     "empty partition block"),
    (lambda: Instance(_TWO_LOOPS, partition=(frozenset({0, 2}),)), ValueError,
     "partition member out of range"),
    (lambda: run(_TWO_LOOPS, {2}, ()), IndexError, "start state out of range"),
    (lambda: run(_TWO_LOOPS, {0}, (0, 1)), IndexError, "letter 1 out of range"),
])
def test_invalid_arguments_raise(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert err.type is error and err.value.args == (message,)
