"""Automaton data model and structural graph analyses.

States are dense integer indices 0..n-1; letters are indices into an
ordered alphabet.  One Automaton type covers deterministic (dfa),
partial (pfa) and nondeterministic (nfa) machines via a kind tag; the
transition table maps every (state, letter) cell to a frozenset of
successors (exactly one for dfa, at most one for pfa).

Outside the text parser and `restrict`, whose cells may be an nfa's,
every automaton the package makes is built from a successor table by
`dfa_from_table`, `pfa_from_table` or `nfa_from_sets`.

All values are immutable after construction and every operation here is
a pure function, so instances can be shared freely across threads.  The
one mutable type, `Memo`, is a cache of a pure function, not a value.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Hashable, Iterable, Optional, Sequence

DFA = "dfa"
PFA = "pfa"
NFA = "nfa"
KINDS = (DFA, PFA, NFA)

Word = tuple[int, ...]
StateSet = frozenset[int]
Pair = tuple[int, int]


class Memo(dict):
    """A cache: a dict that fills a missing key with `make(key)`, so a
    lookup that hits stays one subscript.  It is mutable, unlike the
    values of this module; `make` must be a pure function of the key."""

    def __init__(self, make: Callable[[Hashable], object]):
        super().__init__()
        self.make = make

    def __missing__(self, key: Hashable):
        value = self[key] = self.make(key)
        return value


def _check_tokens(tokens: Sequence[str], letters: bool) -> None:
    """Raise ValueError naming the first letter token (`letters`) or state
    label that the text format cannot hold.  The format splits a line on
    whitespace and cuts it at `#`, reads `-` as an undefined cell and a
    label after its `=`: so every token is a nonempty string free of
    whitespace and `#`, a letter is not `-` and a label holds no `=`.
    All tokens are checked at once: joined by spaces, they split back into
    themselves exactly when each is nonempty and free of whitespace."""
    def valid(toks: Sequence[str]) -> bool:
        try:
            joined = " ".join(toks)
        except TypeError:
            return False  # a token that is not a string
        return (joined.split() == list(toks) and "#" not in joined
                and ("-" not in toks if letters else "=" not in joined))

    if not valid(tokens):
        bad = next(tok for tok in tokens if not valid((tok,)))
        raise ValueError(f"bad {'letter token' if letters else 'state label'} {bad!r}")


@dataclass(frozen=True)
class Alphabet:
    """Ordered list of distinct letter tokens; letter index = position."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ValueError("alphabet must be nonempty")
        _check_tokens(self.symbols, letters=True)  # the set below needs hashable tokens
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet tokens must be distinct")

    def __len__(self) -> int:
        return len(self.symbols)

    def index(self, token: str) -> int:
        try:
            return self.symbols.index(token)
        except ValueError:
            raise KeyError(f"unknown letter {token!r}") from None


@dataclass(frozen=True)
class Automaton:
    """A dfa, pfa or nfa on the states 0..n-1: `delta[s][x]` is the
    frozenset of successors of state s under letter x, exactly one in a
    dfa and at most one in a pfa.  `state_labels` names the states for
    the text format; None names each by its index.  Construction checks
    the kind, the table and the labels."""

    kind: str
    n: int
    alphabet: Alphabet
    delta: tuple[tuple[StateSet, ...], ...]
    state_labels: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("need at least one state")
        if len(self.delta) != self.n:
            raise ValueError("delta must have one row per state")
        if not self._table_is_valid():
            self._raise_first_bad_cell()
        if self.state_labels is not None:
            if len(self.state_labels) != self.n:
                raise ValueError("need one label per state")
            _check_tokens(self.state_labels, letters=False)

    def _table_is_valid(self) -> bool:
        """The whole transition table checked at once: row lengths, the
        successors' types, the union of all cells against the states, then
        the cell sizes."""
        if set(map(len, self.delta)) != {len(self.alphabet)}:
            return False
        cells = list(chain.from_iterable(self.delta))
        # types are checked per successor: a union would merge 1.0 into 1
        if not all(map(isinstance, chain.from_iterable(cells), repeat(int))):
            return False
        targets = frozenset().union(*cells)
        if targets and (min(targets) < 0 or max(targets) >= self.n):
            return False
        sizes = set(map(len, cells))
        return (self.kind == NFA or max(sizes) <= 1) and (self.kind != DFA or min(sizes) == 1)

    def _raise_first_bad_cell(self) -> None:
        """Name the first row or cell, in table order, that fails a check."""
        for s, row in enumerate(self.delta):
            if len(row) != len(self.alphabet):
                raise ValueError(f"state {s}: delta row length != alphabet size")
            for x, cell in enumerate(row):
                if any(not isinstance(t, int) or t < 0 or t >= self.n for t in cell):
                    raise ValueError(f"state {s} letter {x}: successor out of range")
                if self.kind == DFA and len(cell) != 1:
                    raise ValueError(f"dfa must be total: state {s} letter {x}")
                if self.kind == PFA and len(cell) > 1:
                    raise ValueError(f"pfa cell ({s},{x}) has {len(cell)} successors")

    @property
    def states(self) -> range:
        return range(self.n)

    def label(self, s: int) -> str:
        return self.state_labels[s] if self.state_labels else str(s)


@dataclass(frozen=True)
class Instance:
    """An automaton with optional designated subset, partition and arc pairs."""

    automaton: Automaton
    subset: Optional[StateSet] = None
    partition: Optional[tuple[StateSet, ...]] = None
    pairs: Optional[tuple[Pair, ...]] = None

    def __post_init__(self) -> None:
        n = self.automaton.n
        if self.subset is not None:
            if not self.subset:
                raise ValueError("subset must be nonempty")
            if any(s < 0 or s >= n for s in self.subset):
                raise ValueError("subset member out of range")
        if self.partition is not None:
            seen: set[int] = set()
            for block in self.partition:
                if not block:
                    raise ValueError("empty partition block")
                if any(s < 0 or s >= n for s in block):
                    raise ValueError("partition member out of range")
                if seen & block:
                    raise ValueError("partition blocks must be disjoint")
                seen |= block
        if self.pairs is not None:
            for r, q in self.pairs:
                if not (0 <= r < n and 0 <= q < n):
                    raise ValueError(f"pair ({r},{q}) out of range")


def dfa_from_table(
    table: Sequence[Sequence[int]],
    letters: Sequence[str],
    labels: Optional[Sequence[str]] = None,
) -> Automaton:
    """Build a DFA from table[s][x] = successor state.  Outside the text
    parser, every dfa the package makes is built here."""
    # zip(row) yields the 1-tuples (t,): no Python-level step per cell
    delta = tuple(tuple(map(frozenset, zip(row))) for row in table)
    return Automaton(DFA, len(table), Alphabet(tuple(letters)), delta,
                     tuple(labels) if labels else None)


def pfa_from_table(
    table: Sequence[Sequence[Optional[int]]],
    letters: Sequence[str],
    labels: Optional[Sequence[str]] = None,
) -> Automaton:
    """Build a PFA from table[s][x] = successor or None for undefined.
    Outside the text parser and `restrict`, every pfa the package makes is
    built here."""
    # a list, not a generator: no generator step per cell
    delta = tuple(tuple([frozenset(() if t is None else (t,)) for t in row])
                  for row in table)
    return Automaton(PFA, len(table), Alphabet(tuple(letters)), delta,
                     tuple(labels) if labels else None)


def nfa_from_sets(
    table: Sequence[Sequence[Iterable[int]]],
    letters: Sequence[str],
    labels: Optional[Sequence[str]] = None,
) -> Automaton:
    """Build an NFA from table[s][x] = an iterable of successors, empty
    for none.  Outside the text parser, every nfa the package makes is
    built here."""
    delta = tuple(tuple(map(frozenset, row)) for row in table)
    return Automaton(NFA, len(table), Alphabet(tuple(letters)), delta,
                     tuple(labels) if labels else None)


def step(a: Automaton, s: int, x: int) -> StateSet:
    """Successor set of state s under letter x (empty = undefined)."""
    if not 0 <= s < a.n:
        raise IndexError(f"state {s} out of range")
    if not 0 <= x < len(a.alphabet):
        raise IndexError(f"letter {x} out of range")
    return a.delta[s][x]


def run(a: Automaton, start: Iterable[int], word: Sequence[int]) -> StateSet:
    """Image of a state set under a word, dropping undefined branches."""
    current = frozenset(start)
    if any(s < 0 or s >= a.n for s in current):
        raise IndexError("start state out of range")
    for x in word:
        if not 0 <= x < len(a.alphabet):
            raise IndexError(f"letter {x} out of range")
        nxt: set[int] = set()
        for s in current:
            nxt |= a.delta[s][x]
        current = frozenset(nxt)
    return current


def restrict(a: Automaton, states: Iterable[int]) -> Automaton:
    """The pfa a induces on a set of its states.

    States are re-indexed in ascending order of their original indices and
    keep their labels; a transition leaving the set becomes undefined.
    """
    domain = sorted(set(states))
    index = {s: i for i, s in enumerate(domain)}
    keep = set(domain)
    delta = tuple(
        tuple(frozenset(index[t] for t in cell) if cell <= keep else frozenset()
              for cell in a.delta[s])
        for s in domain
    )
    labels = tuple(a.label(s) for s in domain) if a.state_labels else None
    return Automaton(PFA, len(domain), a.alphabet, delta, labels)


def sink_states(a: Automaton) -> StateSet:
    """States fixed by every letter."""
    one = frozenset
    return frozenset(
        s for s in a.states if all(a.delta[s][x] == one((s,)) for x in range(len(a.alphabet)))
    )


@dataclass(frozen=True)
class Condensation:
    """SCCs in topological order plus the component DAG."""

    components: tuple[tuple[int, ...], ...]
    component_of: tuple[int, ...]
    dag_edges: frozenset[Pair]

    def sources(self) -> list[int]:
        targets = {j for _, j in self.dag_edges}
        return [c for c in range(len(self.components)) if c not in targets]

    def sinks(self) -> list[int]:
        origins = {i for i, _ in self.dag_edges}
        return [c for c in range(len(self.components)) if c not in origins]


def _tarjan(n: int, adj: Sequence[Iterable[int]]) -> list[list[int]]:
    """Iterative Tarjan; components in reverse topological order."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(adj[w])))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def condensation(a: Automaton, extra_arcs: Iterable[Pair] = ()) -> Condensation:
    adj = [set().union(*row) for row in a.delta]  # the underlying digraph
    for r, q in extra_arcs:
        adj[r].add(q)
    comps = _tarjan(a.n, adj)
    comps.reverse()  # topological: edges go from earlier to later components
    comp_of = [0] * a.n
    for ci, comp in enumerate(comps):
        comp.sort()
        for s in comp:
            comp_of[s] = ci
    edges: set[Pair] = set()
    for s in a.states:
        for t in adj[s]:
            if comp_of[s] != comp_of[t]:
                edges.add((comp_of[s], comp_of[t]))
    return Condensation(tuple(tuple(c) for c in comps), tuple(comp_of), frozenset(edges))


def is_strongly_connected(a: Automaton, extra_arcs: Iterable[Pair] = ()) -> bool:
    return len(condensation(a, extra_arcs).components) == 1


def augmentation_connects(a: Automaton, pairs: Iterable[Pair]) -> bool:
    """True iff adding the given arcs makes the digraph strongly connected."""
    return is_strongly_connected(a, pairs)


def augmenting_pairs(a: Automaton) -> list[Pair]:
    """A set of arcs whose addition makes the digraph strongly connected.

    Pairs each DAG sink component with a source component that reaches
    it and closes the chain into a cycle; leftover sources and sinks are
    attached to that cycle.  Minimal cardinality is not attempted.
    """
    cond = condensation(a)
    t = len(cond.components)
    if t == 1:
        return []
    dag: list[list[int]] = [[] for _ in range(t)]
    for i, j in sorted(cond.dag_edges):
        dag[i].append(j)
    sources = cond.sources()
    sinks = cond.sinks()
    sink_set = set(sinks)
    matched_sinks: set[int] = set()
    pairs_vw: list[Pair] = []  # (source comp, sink comp reachable from it)
    for v in sources:
        found = None
        seen = {v}
        queue = [v]
        while queue:
            c = queue.pop()
            if c in sink_set and c not in matched_sinks:
                found = c
                break
            for d in dag[c]:
                if d not in seen:
                    seen.add(d)
                    queue.append(d)
        if found is not None:
            matched_sinks.add(found)
            pairs_vw.append((v, found))
    vs = [v for v, _ in pairs_vw]
    ws = [w for _, w in pairs_vw]
    extra_sources = [v for v in sources if v not in set(vs)]
    extra_sinks = [w for w in sinks if w not in matched_sinks]
    arcs: list[Pair] = []
    q = len(pairs_vw)
    for i in range(q):
        arcs.append((ws[i], vs[(i + 1) % q]))
    arcs.extend((w, vs[0]) for w in extra_sinks)
    arcs.extend((ws[0], v) for v in extra_sources)
    rep = [comp[0] for comp in cond.components]
    out = []
    for ci, cj in arcs:
        if ci != cj:  # intra-component arcs add nothing
            out.append((rep[ci], rep[cj]))
    return out


def word_tokens(alphabet: Alphabet, word: Sequence[int]) -> str:
    """Render a word as text; single-character tokens are joined tightly."""
    toks = [alphabet.symbols[x] for x in word]
    if all(len(t) == 1 for t in toks):
        return "".join(toks)
    return " ".join(toks)
