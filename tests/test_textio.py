import dataclasses

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from syncwords.automata import Alphabet, Automaton, Instance
from syncwords.families import cerny, debruijn_counter
from syncwords.textio import ParseError, parse, serialize

from test_automata import dfas, nfas, pfas

MINIMAL = """\
kind dfa
states 1
letters a
0 a 0
"""


def test_minimal_roundtrip():
    inst = parse(MINIMAL)
    assert inst.automaton.kind == "dfa"
    assert inst.automaton.n == 1
    assert serialize(inst) == MINIMAL


def test_comments_and_blank_lines():
    text = "# header comment\n\nkind dfa\nstates 1\nletters a\n0 a 0  # loop\n"
    assert parse(text).automaton.n == 1


def test_sections():
    text = MINIMAL.replace("states 1", "states 4").replace(
        "0 a 0",
        "0 a 1\n1 a 0\n2 a 3\n3 a 3\n"
        "subset 0 2\npartition 0,1|2,3\npairs 3:0 1:2\nlabels 0=p 1=q 2=r 3=s",
    )
    inst = parse(text)
    assert inst.subset == frozenset({0, 2})
    assert inst.partition == (frozenset({0, 1}), frozenset({2, 3}))
    assert inst.pairs == ((3, 0), (1, 2))
    assert inst.automaton.state_labels == ("p", "q", "r", "s")
    assert parse(serialize(inst)) == inst


def test_nfa_multi_successors():
    text = "kind nfa\nstates 2\nletters a\n0 a 0,1\n1 a -\n"
    inst = parse(text)
    assert inst.automaton.delta[0][0] == frozenset({0, 1})
    assert inst.automaton.delta[1][0] == frozenset()
    assert serialize(inst) == text


def test_nfa_duplicate_lines_union():
    text = "kind nfa\nstates 2\nletters a\n0 a 0\n0 a 1\n1 a -\n"
    assert parse(text).automaton.delta[0][0] == frozenset({0, 1})
    # the cell of token `1` is read once; merging into (0, a) must not change it
    text = "kind nfa\nstates 2\nletters a b\n0 a 1\n0 a 0\n1 a 1\n0 b 1\n"
    assert parse(text).automaton.delta == ((frozenset({0, 1}), frozenset({1})),
                                           (frozenset({1}), frozenset()))


@pytest.mark.parametrize(
    "text, line, fragment",
    [
        ("kind wat\nstates 1\nletters a\n0 a 0\n", 1, "unknown kind"),
        ("kind dfa\nstates x\nletters a\n0 a 0\n", 2, "not an integer"),
        # integers are ASCII decimal: an optional `-` and the digits 0-9,
        # and a negative one keeps its range message
        ("kind dfa\nstates 1_0\nletters a\n0 a 0\n", 2,
         "state count '1_0' is not an integer"),
        ("kind dfa\nstates -2\nletters a\n0 a 0\n", 2, "state count must be positive"),
        ("kind dfa\nstates 2\nletters a\n0 a 0\n+1 a 1\n", 5, "state '+1' is not an integer"),
        ("kind dfa\nstates 3\nletters a\n0 a \u0662\n", 4,
         "state '\u0662' is not an integer"),
        ("kind dfa\nstates 2\nletters a\n0 a 0\n1 a \uff11\n", 5,
         "state '\uff11' is not an integer"),
        ("kind dfa\nstates 1\nletters a\n0 a 0\nsubset -\n", 5, "state '-' is not an integer"),
        ("kind dfa\nstates 1\nletters a\n0 a -1\n", 4, "state -1 out of range 0..0"),
        ("kind dfa\nstates 1\nalpha a\n0 a 0\n", 3, "letters"),
        ("kind dfa\nstates 1\nletters a\n0 b 0\n", 4, "unknown letter"),
        ("kind dfa\nstates 1\nletters a\n0 a 5\n", 4, "out of range"),
        ("kind dfa\nstates 1\nletters a\n0 a 0\n0 a 0\n", 5, "duplicate"),
        ("kind pfa\nstates 1\nletters a\n0 a 0\n0 a -\n", 5, "duplicate"),
        ("kind dfa\nstates 2\nletters a\nsubset 0 9\n0 a 0\n1 a 1\n", 4, "out of range"),
        ("kind dfa\nstates 1\nletters a\n0 a 0\nlabels 0=p 0=q\n", 5,
         "duplicate label for state 0"),
        # a bad token is reported on the first line that holds it
        ("kind pfa\nstates 2\nletters a b\n0 a 1,7\n1 a 1,7\n", 4, "state 7 out of range"),
        ("kind pfa\nstates 2\nletters a b\n0 a 1\n1 x 1\n0 b 1\n1 a x\n1 b x\n",
         5, "unknown letter 'x'"),
        # a merged nfa cell leaves the memoized cell of its token as it was
        ("kind nfa\nstates 2\nletters a\n0 a 1\n0 a 0\n1 a 1\n1 a 1,2\n", 7,
         "state 2 out of range"),
        # a comment after a transition is not part of it
        ("kind dfa\nstates 1\nletters a\n0 a 0 # 0 a 0\n0 a 0#\n", 5, "duplicate"),
        # a cell with the wrong successor count for the kind, named by its
        # letter token on the first line that holds its destination token
        ("kind dfa\nstates 2\nletters a b\n0 a 1\n1 b -\n0 b -\n", 5,
         "dfa must be total: no successor for state 1 letter 'b'"),
        ("kind dfa\nstates 2\nletters a b\n0 a 1\n1 b 1,0\n0 b 1,0\n", 5,
         "dfa cell of state 1 letter 'b' has 2 successors"),
        ("kind pfa\nstates 3\nletters a b\n0 a -\n2 b 1,2\n0 b 1,2\n", 5,
         "pfa cell of state 2 letter 'b' has 2 successors"),
        # a repeated successor is one successor
        ("kind dfa\nstates 2\nletters a\n0 a 1,1\n1 a 0,1\n", 5,
         "dfa cell of state 1 letter 'a' has 2 successors"),
        ("kind dfa\nstates 1\n", None, "incomplete header"),
        ("kind\nstates 1\nletters a\n0 a 0\n", 1, "expected `kind dfa|pfa|nfa`"),
        ("kind dfa\nstates 0\nletters a\n", 2, "state count must be positive"),
        ("kind dfa\nstates 1 2\nletters a\n0 a 0\n", 2, "expected `states <n>`"),
        ("kind dfa\nstates 1\nletters a a\n0 a 0\n", 3,
         "alphabet tokens must be distinct"),
        ("kind dfa\nstates 1\nletters a\n0 a\n", 4, "transition line must be"),
        ("kind dfa\nstates 1\nletters a\n0 a 0\nsubset 0\nsubset 0\n", 6,
         "duplicate subset section"),
        ("kind dfa\nstates 1\nletters a\n0 a 0\nsubset\n", 5, "empty subset section"),
        ("kind dfa\nstates 2\nletters a\n0 a 0\n1 a 1\npartition 0||1\n", 6,
         "empty partition block"),
        ("kind dfa\nstates 2\nletters a\n0 a 0\n1 a 1\npairs 0:1 1-0\n", 6,
         "pair '1-0' must be <r>:<q>"),
        ("kind dfa\nstates 1\nletters a\n0 a 0\nlabels 0\n", 5,
         "label '0' must be <id>=<name>"),
        # rejected by `Instance` once every line is read, so with no line
        ("kind dfa\nstates 2\nletters a\n0 a 0\n1 a 1\npartition 0,1|1\n", None,
         "partition blocks must be disjoint"),
    ],
)
def test_parse_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line == line
    assert fragment in str(err.value)


def test_dfa_must_be_total():
    text = "kind dfa\nstates 2\nletters a\n0 a 1\n"
    with pytest.raises(ParseError, match="dfa must be total"):
        parse(text)


def test_dfa_error_names_the_first_missing_cell():
    text = "kind dfa\nstates 3\nletters a b\n2 b 0\n0 b 1\n0 a 1\n1 a 0\n2 a 0\n"
    with pytest.raises(ParseError,
                       match="missing transition for state 1 letter 'b'") as err:
        parse(text)
    assert err.value.line is None


def test_states_without_lines_share_the_empty_row():
    a = parse("kind nfa\nstates 200000\nletters a b\n").automaton
    assert a == Automaton("nfa", 200000, Alphabet(("a", "b")),
                          ((frozenset(), frozenset()),) * 200000)
    a = parse("kind pfa\nstates 200000\nletters a b\n7 b 3\n").automaton
    assert a.delta[7] == (frozenset(), frozenset({3}))
    assert a.delta[:7] + a.delta[8:] == ((frozenset(), frozenset()),) * 199999


def test_pfa_undefined_marker():
    text = "kind pfa\nstates 2\nletters a b\n0 a 1\n0 b -\n1 b 0\n"
    inst = parse(text)
    assert inst.automaton.delta[0][1] == frozenset()
    assert inst.automaton.delta[1][0] == frozenset()  # omitted defaults to empty


def test_counter_instance_roundtrips():
    inst = debruijn_counter(2).instance
    assert parse(serialize(inst)) == inst
    assert serialize(parse(serialize(inst))) == serialize(inst)


def test_unicode_tokens_roundtrip():
    inst = debruijn_counter(4).instance
    text = serialize(inst)
    assert "κ" in text and "ω" in text and "↓" in text
    assert parse(text) == inst


def test_cerny_roundtrip():
    inst = cerny(5)
    assert parse(serialize(inst)) == inst


def test_empty_partition_roundtrips():
    inst = Instance(parse(MINIMAL).automaton, None, ())
    assert parse(serialize(inst)) == inst
    inst = Instance(parse(MINIMAL).automaton, None, (), ())
    assert serialize(inst).endswith("\npartition\npairs\n")


@st.composite
def instances(draw):
    """A dfa, pfa or nfa with a subset, a partition, pairs and labels, each
    optional."""
    a = draw(st.one_of(dfas(), pfas(), nfas()))
    states = st.integers(0, a.n - 1)
    label = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=4)
    labels = draw(st.one_of(st.none(), st.lists(label, min_size=a.n, max_size=a.n).map(tuple)))
    try:
        a = dataclasses.replace(a, state_labels=labels)
    except ValueError:
        assume(False)  # a label the automaton rejects
    subset = draw(st.one_of(st.none(), st.frozensets(states, min_size=1)))
    # each state in one block or in none; blocks in order of first owner
    owner = draw(st.lists(st.one_of(st.none(), states), min_size=a.n, max_size=a.n))
    blocks = tuple(frozenset(s for s in a.states if owner[s] == b)
                   for b in dict.fromkeys(b for b in owner if b is not None))
    partition = draw(st.one_of(st.none(), st.just(blocks)))
    pairs = draw(st.one_of(st.none(), st.lists(st.tuples(states, states)).map(tuple)))
    return Instance(a, subset, partition, pairs)


@settings(max_examples=100)
@given(instances())
def test_random_instances_roundtrip(inst):
    text = serialize(inst)
    assert parse(text) == inst
    # an empty partition or pair list is written as its bare keyword
    assert not any(line != line.rstrip() for line in text.splitlines())


def test_serialization_is_deterministic():
    inst = debruijn_counter(2).instance
    assert serialize(inst) == serialize(inst)
    rebuilt = parse(serialize(inst))
    assert serialize(rebuilt) == serialize(inst)


# Lines of the format, well and badly formed.
_HEADERS = st.sampled_from([
    "kind dfa\nstates 3\nletters a b", "kind pfa\nstates 3\nletters a b",
    "kind nfa\nstates 2\nletters a", "kind dfa\nstates 1\nletters a", "",
])
_LINES = st.sampled_from([
    "kind dfa", "kind pfa", "kind nfa", "kind", "kind dfa pfa", "kind xfa",
    "states 1", "states 3", "states 0", "states -2", "states x", "states 1 2",
    "letters a b", "letters a a", "letters", "letters a # b",
    "0 a 0", "0 a 1", "1 b 0,2", "2 a -", "0 a 0,0", "0 c 1", "3 a 0", "-1 a 0", "0 a",
    "x a 0", "0 a 1,,2", "0 a 1,x", "0 b - -",
    "subset 0 2", "subset", "subset 7", "subset a",
    "partition 0,1|2", "partition |", "partition 0,,1", "partition 9",
    "pairs 0:1", "pairs 0-1", "pairs 0:1:2", "pairs :",
    "labels 0=p", "labels 0", "labels 0==", "labels 9=q",
    "# comment", "", "   ",
])
_TEXTS = st.one_of(
    st.text(),
    st.builds(lambda head, lines: "\n".join([head, *lines]), _HEADERS,
              st.lists(st.one_of(_LINES, st.text(max_size=12)), max_size=12)))


@settings(max_examples=200)
@given(_TEXTS)
def test_parse_raises_only_parse_error(text):
    try:
        parse(text)
    except ParseError:
        pass
