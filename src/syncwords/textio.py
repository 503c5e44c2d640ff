"""Line-oriented UTF-8 text format for automaton instances.

    kind dfa|pfa|nfa
    states <n>
    letters <tok> <tok> ...
    <src> <letter-token> <dst>[,<dst>...]      one line per (state, letter)
    <src> <letter-token> -                     undefined / empty cell
    subset <id> <id> ...                       optional
    partition <id,..>|<id,..>|...              optional
    pairs <r>:<q> <r>:<q> ...                  optional
    labels <id>=<name> ...                     optional

`#` starts a comment.  Omitted (state, letter) cells default to `-` for
pfa/nfa and are an error for dfa.  Serialization is canonical: states
ascending, letters in declared order, successor lists ascending, so
parse(serialize(i)) == i byte-for-byte on re-serialization.
"""

from __future__ import annotations

from itertools import chain, count, islice, repeat
from operator import floordiv
from typing import Iterator, Optional

from .automata import DFA, NFA, PFA, Alphabet, Automaton, Instance, Memo


class ParseError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _int(tok: str, what: str, line: int) -> int:
    """An ASCII decimal integer as `serialize` writes it: `0`, or an
    optional `-`, a digit 1-9 and then digits 0-9.  `int` would also take
    `+`, `_`, leading zeros and non-ASCII digits, which `serialize` would
    then write back as other tokens."""
    digits = tok.removeprefix("-")
    if tok != "0" and not (digits.isascii() and digits.isdigit() and digits[0] != "0"):
        raise ParseError(f"{what} {tok!r} is not an integer", line)
    return int(tok)


_SECTIONS = frozenset(("subset", "partition", "pairs", "labels"))


def _tokenized(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) of each line that holds a token once its
    comment is cut."""
    return iter([(lineno, toks) for lineno, raw in enumerate(text.splitlines(), start=1)
                 if (toks := raw.partition("#")[0].split())])


def parse(text: str) -> Instance:
    lines = _tokenized(text)  # the header takes three, the body the rest
    header = list(islice(lines, 3))
    if len(header) < 3:
        raise ParseError("incomplete header: need kind, states and letters lines")
    (l1, kind_toks), (l2, states_toks), (l3, letters_toks) = header
    if kind_toks[0] != "kind" or len(kind_toks) != 2:
        raise ParseError("expected `kind dfa|pfa|nfa`", l1)
    kind = kind_toks[1]
    if kind not in (DFA, PFA, NFA):
        raise ParseError(f"unknown kind {kind!r}", l1)
    if states_toks[0] != "states" or len(states_toks) != 2:
        raise ParseError("expected `states <n>`", l2)
    n = _int(states_toks[1], "state count", l2)
    if n < 1:
        raise ParseError("state count must be positive", l2)
    if letters_toks[0] != "letters" or len(letters_toks) < 2:
        raise ParseError("expected `letters <tok> ...`", l3)
    try:
        alphabet = Alphabet(tuple(letters_toks[1:]))
    except ValueError as e:
        raise ParseError(str(e), l3) from None

    # Each distinct token is read once, on the first line that holds it;
    # `state` and `cell` read that line's `lineno`, source `s` and letter
    # `tok` from the loop below.  `ids` maps a state token to its checked
    # state, `cell_of` a destination token to its cell, checked against
    # the kind's successor count.  A cell is keyed s * k + x.
    def state(tok: str) -> int:
        s = _int(tok, "state", lineno)
        if not 0 <= s < n:
            raise ParseError(f"state {s} out of range 0..{n - 1}", lineno)
        return s

    def cell(dst: str) -> frozenset[int]:
        c = frozenset(map(ids.__getitem__, dst.split(","))) if dst != "-" else frozenset()
        if kind == DFA and not c:
            raise ParseError(f"dfa must be total: no successor for state {s} "
                             f"letter {tok!r}", lineno)
        if kind != NFA and len(c) > 1:
            raise ParseError(f"{kind} cell of state {s} letter {tok!r} has "
                             f"{len(c)} successors", lineno)
        return c

    k = len(alphabet)
    letter_of = {tok: x for x, tok in enumerate(alphabet.symbols)}
    ids = Memo(state)
    cell_of = Memo(cell)
    cells: dict[int, frozenset[int]] = {}
    subset = None
    partition = None
    pairs = None
    labels: dict[int, str] = {}
    seen_sections: set[str] = set()

    for lineno, toks in lines:
        head = toks[0]
        if head in _SECTIONS:
            if head in seen_sections:
                raise ParseError(f"duplicate {head} section", lineno)
            seen_sections.add(head)
            if head == "subset":
                if len(toks) < 2:
                    raise ParseError("empty subset section", lineno)
                subset = frozenset(map(ids.__getitem__, toks[1:]))
            elif head == "partition":
                blocks = []
                spec = " ".join(toks[1:])
                for blk in spec.split("|") if spec else ():  # no blocks: ()
                    members = [t for t in blk.split(",") if t]
                    if not members:
                        raise ParseError("empty partition block", lineno)
                    blocks.append(frozenset(map(ids.__getitem__, members)))
                partition = tuple(blocks)
            elif head == "pairs":
                got = []
                for t in toks[1:]:
                    if ":" not in t:
                        raise ParseError(f"pair {t!r} must be <r>:<q>", lineno)
                    r, q = t.split(":", 1)
                    got.append((ids[r], ids[q]))
                pairs = tuple(got)
            else:
                for t in toks[1:]:
                    if "=" not in t:
                        raise ParseError(f"label {t!r} must be <id>=<name>", lineno)
                    sid, name = t.split("=", 1)
                    s = ids[sid]
                    if s in labels:
                        raise ParseError(f"duplicate label for state {s}", lineno)
                    labels[s] = name
            continue

        if len(toks) != 3:
            raise ParseError("transition line must be `<src> <letter> <dst[,dst...]|->`",
                             lineno)
        src, tok, dst = toks
        s = ids[src]
        x = letter_of.get(tok)
        if x is None:
            raise ParseError(f"unknown letter {tok!r}", lineno)
        key = s * k + x
        cell = cell_of[dst]
        if key in cells:
            if kind != NFA:
                raise ParseError(
                    f"duplicate transition for state {s} letter {tok!r}", lineno)
            cells[key] |= cell
        else:
            cells[key] = cell

    if kind == DFA and len(cells) < n * k:
        s, x = divmod(next(key for key in count() if key not in cells), k)
        raise ParseError(f"dfa must be total: missing transition for state {s} "
                         f"letter {alphabet.symbols[x]!r}")
    # rows only for the states that have lines: the rest share one empty
    # row.  Reading the tokens grows with the file's lines, but the
    # `Automaton` validation below walks every row, states * letters cells
    empty = frozenset()
    delta = [(empty,) * k] * n
    for s in set(map(floordiv, cells, repeat(k))):
        delta[s] = tuple(map(cells.get, range(s * k, s * k + k), repeat(empty)))

    label_tuple = None
    if labels:  # the default labels in one pass, then the given ones
        names = list(map(str, range(n)))
        for s, name in labels.items():
            names[s] = name
        label_tuple = tuple(names)
    try:
        automaton = Automaton(kind, n, alphabet, tuple(delta), label_tuple)
        return Instance(automaton, subset, partition, pairs)
    except ValueError as e:
        raise ParseError(str(e)) from None


def serialize(instance: Instance) -> str:
    a = instance.automaton
    symbols = a.alphabet.symbols
    # each distinct cell written once, successors ascending, `-` when empty
    text_of = {cell: ",".join(map(str, sorted(cell))) or "-"
               for cell in set(chain.from_iterable(a.delta))}
    lines = [f"kind {a.kind}", f"states {a.n}", "letters " + " ".join(symbols)]
    for s, row in enumerate(a.delta):  # `<s> <letter> <dst>` per cell
        lines.extend(map(f"{s} {{}} {{}}".format, symbols, map(text_of.__getitem__, row)))
    if instance.subset is not None:
        lines.append("subset " + " ".join(map(str, sorted(instance.subset))))
    # an empty section is its bare keyword, with no trailing space
    if instance.partition is not None:
        blocks = "|".join(",".join(map(str, sorted(b))) for b in instance.partition)
        lines.append(f"partition {blocks}" if blocks else "partition")
    if instance.pairs is not None:
        pairs = " ".join(f"{r}:{q}" for r, q in instance.pairs)
        lines.append(f"pairs {pairs}" if pairs else "pairs")
    if a.state_labels is not None:
        lines.append("labels " + " ".join(f"{s}={a.state_labels[s]}" for s in a.states))
    return "\n".join(lines) + "\n"


def load(path) -> Instance:
    with open(path, encoding="utf-8") as f:
        return parse(f.read())


def save(path, instance: Instance) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(serialize(instance))
