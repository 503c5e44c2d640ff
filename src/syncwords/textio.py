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

from typing import Optional

from .automata import DFA, NFA, PFA, Alphabet, Automaton, Instance


class ParseError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def _int(tok: str, what: str, line: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"{what} {tok!r} is not an integer", line) from None


def parse(text: str) -> Instance:
    header: list[tuple[int, list[str]]] = []
    body: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if not content:
            continue
        toks = content.split()
        (header if len(header) < 3 else body).append((lineno, toks))

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

    cells: dict[tuple[int, int], frozenset[int]] = {}
    subset = None
    partition = None
    pairs = None
    labels: dict[int, str] = {}
    seen_sections: set[str] = set()

    def check_state(s: int, line: int) -> int:
        if not 0 <= s < n:
            raise ParseError(f"state {s} out of range 0..{n - 1}", line)
        return s

    for lineno, toks in body:
        head = toks[0]
        if head in ("subset", "partition", "pairs", "labels"):
            if head in seen_sections:
                raise ParseError(f"duplicate {head} section", lineno)
            seen_sections.add(head)
            if head == "subset":
                if len(toks) < 2:
                    raise ParseError("empty subset section", lineno)
                subset = frozenset(check_state(_int(t, "state", lineno), lineno)
                                   for t in toks[1:])
            elif head == "partition":
                blocks = []
                spec = " ".join(toks[1:])
                for blk in spec.split("|") if spec else ():  # no blocks: ()
                    members = [t for t in blk.split(",") if t]
                    if not members:
                        raise ParseError("empty partition block", lineno)
                    blocks.append(frozenset(
                        check_state(_int(t, "state", lineno), lineno) for t in members))
                partition = tuple(blocks)
            elif head == "pairs":
                got = []
                for t in toks[1:]:
                    if ":" not in t:
                        raise ParseError(f"pair {t!r} must be <r>:<q>", lineno)
                    r, q = t.split(":", 1)
                    got.append((check_state(_int(r, "state", lineno), lineno),
                                check_state(_int(q, "state", lineno), lineno)))
                pairs = tuple(got)
            else:
                for t in toks[1:]:
                    if "=" not in t:
                        raise ParseError(f"label {t!r} must be <id>=<name>", lineno)
                    sid, name = t.split("=", 1)
                    labels[check_state(_int(sid, "state", lineno), lineno)] = name
            continue

        if len(toks) != 3:
            raise ParseError("transition line must be `<src> <letter> <dst[,dst...]|->`",
                             lineno)
        src = check_state(_int(toks[0], "state", lineno), lineno)
        try:
            letter = alphabet.index(toks[1])
        except KeyError:
            raise ParseError(f"unknown letter {toks[1]!r}", lineno) from None
        if toks[2] == "-":
            dsts: frozenset[int] = frozenset()
        else:
            dsts = frozenset(check_state(_int(t, "state", lineno), lineno)
                             for t in toks[2].split(","))
        key = (src, letter)
        if key in cells:
            if kind in (DFA, PFA):
                raise ParseError(
                    f"duplicate transition for state {src} letter {toks[1]!r}", lineno)
            cells[key] = cells[key] | dsts
        else:
            cells[key] = dsts

    k = len(alphabet)
    if kind == DFA and len(cells) < n * k:
        s, x = next((s, x) for s in range(n) for x in range(k) if (s, x) not in cells)
        raise ParseError(f"dfa must be total: missing transition for state {s} "
                         f"letter {alphabet.symbols[x]!r}")
    # rows only for the states that have lines: the rest share one empty
    # row, so a file costs time in its lines, not in its declared states
    empty = frozenset()
    rows: dict[int, list[frozenset[int]]] = {}
    for (s, x), cell in cells.items():
        rows.setdefault(s, [empty] * k)[x] = cell
    delta = [(empty,) * k] * n
    for s, row in rows.items():
        delta[s] = tuple(row)

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
    lines = [f"kind {a.kind}", f"states {a.n}", "letters " + " ".join(a.alphabet)]
    for s in a.states:
        for x, tok in enumerate(a.alphabet):
            cell = a.delta[s][x]
            dst = ",".join(str(t) for t in sorted(cell)) if cell else "-"
            lines.append(f"{s} {tok} {dst}")
    if instance.subset is not None:
        lines.append("subset " + " ".join(str(s) for s in sorted(instance.subset)))
    # an empty section is its bare keyword, with no trailing space
    if instance.partition is not None:
        blocks = "|".join(",".join(str(s) for s in sorted(b)) for b in instance.partition)
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
