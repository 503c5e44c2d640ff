"""Exact shortest-word searches over the power-set graph, plus verifiers.

Subsets of states are encoded as integer bit masks.  Every search is
built from two pieces, and both work a whole BFS level at a time:

* the image kernel `_images(a, careful)`, whose `expand(frontier)` lists
  the images of a level's masks in one flat list, k per mask (k
  letters), node-major and in declared alphabet order, with 0 where the
  careful rule forbids the letter.  A wide level of masks of at most 64
  states, when every letter applies to every mask, is byte-sliced: one
  `bytes.translate` pass over the whole level per pair of input and
  output byte.  Every other level, at any width, runs mask by mask, each
  mask on a bit loop over packed columns (one int per state holding its
  images under all letters) or on byte tables built from them, chosen
  per mask by one rule (the paths are set out in `_images`);
* the driver `_bfs(start, expand, goal, ...)`, one level-synchronized
  breadth-first search that returns the `SearchResult`.  It calls `goal`
  on `[start]` first, so a start that is a goal gives the empty word,
  and then calls `expand` once per level.  A new node's parent is
  `frontier[j // k]` and its letter `j % k`, where j is its position in
  the level's flat list.  Its visited set is a dict from node to
  position until, in a wide search over n-state masks, a
  `bytearray(1 << n)` indexed by mask is the smaller (see `_bfs`).
  `goal(fresh)` is called once per level on the new nodes in discovery
  order.  It answers the index of the first hit and the nodes to expand;
  a node left out stays visited but is pruned.  A caller that needs the
  discovered nodes collects them in its goal.

Letter order makes the returned witness the lexicographically least
among all shortest ones.  A search either finds an exact answer,
reports a definite negative, or stops with `budget_exceeded` on any of
the node, length and memory caps; it never returns a wrong length.

The three reset searches (classic, careful, subset) prune by pair
dominance: a set of three or more states is not expanded when it
contains a 2-state set discovered before it, on an earlier level or
earlier on the same level.  This keeps the answer exact.  A careful word
v that applies to a set T applies to every nonempty S inside T, and
S.v is a nonempty subset of T.v, so if v resets T it resets S (or a
prefix of v does).  The word reaching S is shorter than the one reaching
T, or of equal length and lexicographically smaller, because discovery
order within a level is the lex order of the words reaching the sets.
So the least word through S is never worse than the least through T,
and the shortest length and lex-least witness do not change.  Pairs are
indexed by one partner mask per state; until the first pair is
discovered a level costs one pass of bit counts in C, and after it one
loop that sizes each set and stops at the first singleton.  A general
index of discovered sets would prune more but costs a subset test
against many sets; pairs already catch all the pruning of the switch
counter.  `relevant_part`,
`check_transversal_partition`, `count_shortest_reset_words`, the
directing and composition searches and the oracle stay unpruned: the
first two need the whole subset graph, the count needs every word
through the levels up to the first singleton (a pruned set's words keep
the length and the least witness, not their number), and the goals of
the others are not kept by shrinking a set (empty nfa images, D2,
composition targets).
`explored` counts every discovered set, pruned ones included, and
`max_nodes` caps that count.  The three reset searches are memoized on
(automaton, start mask, budget, negative status), 128 entries deep, so
a search that a reduction, a sampler or a suite repeats while it is
still cached is not made again; no other engine search is cached.

The brute-force oracle shares neither piece on purpose, so that it stays
an independent check of the kernel and the driver: it builds its own
successor columns from the transition table and runs its own level loop,
one for all six modes.  It numbers each distinct mask or node and lists
each level as one number per word, one byte per word until the numbers
pass 255, so it memoizes per node but still generates, tests and counts
every word up to its length bound, merging none.  The three directing
modes share one word tree, so one run of the loop tests every word in
all three and answers them together; those answers are memoized on
(automaton, length bound), 128 entries deep, and the classic, careful
and subset modes run one at a time (see `brute_force_oracle`).

The "careful" applicability rule (a letter may be applied to an active
set only if it is defined on every active state) is used for pfa in all
subset searches; for dfa it degenerates to the total case.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial, reduce
from itertools import chain, compress, count, islice, repeat
from math import inf
from operator import and_, mul, not_
from struct import pack, unpack
from typing import Callable, Hashable, Iterable, Optional, Sequence

from .automata import DFA, PFA, Automaton, Memo, StateSet, Word, restrict

FOUND = "found"
BLIND = "blind"
NOT_SYNCHRONIZING = "not_synchronizing"
BUDGET_EXCEEDED = "budget_exceeded"

# The modes of `shortest_word` and `brute_force_oracle`: reset words of a
# dfa, careful reset words of a dfa/pfa, careful reset words of a subset,
# and the three senses of directing an nfa.
CLASSIC = "classic"
CAREFUL = "careful"
SUBSET = "subset"
D1 = "d1"
D2 = "d2"
D3 = "d3"
MODES = (CLASSIC, CAREFUL, SUBSET, D1, D2, D3)
_DIRECTING = (D1, D2, D3)


class BudgetExceededError(RuntimeError):
    """Raised by operations that cannot return a partial answer."""


class BlindSubsetError(ValueError):
    """Raised when an operation requires a carefully synchronizable subset."""


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 10_000_000
    max_length: int = 10_000_000
    # a byte cap, enforced exactly against the per-node estimate `_node_bytes`
    # (see `_bfs`), not against the memory a search really takes
    max_memory: int = 8 << 30

    def __post_init__(self) -> None:
        if self.max_nodes <= 0 or self.max_length <= 0 or self.max_memory <= 0:
            raise ValueError("budget bounds must be positive")


DEFAULT_BUDGET = SearchBudget()


@dataclass(frozen=True)
class SearchResult:
    """A search's answer: `status`, and for FOUND the word's `length` and
    `witness`; `explored` counts the nodes discovered.  `elapsed` is the
    time of the search that produced the result: a reset search's result
    is cached (see `_reset_search`), and a cached result keeps that time.
    The oracle's d1, d2 and d3 answers come from one shared enumeration
    and are cached together (see `brute_force_oracle`); all three keep
    that enumeration's `elapsed`."""
    status: str
    length: Optional[int] = None
    witness: Optional[Word] = None
    explored: int = 0
    elapsed: float = field(default=0.0, compare=False)

    @property
    def found(self) -> bool:
        return self.status == FOUND

    def decided(self, what: str) -> SearchResult:
        """The result itself, unless the budget stopped the search: a
        stopped search decides nothing about `what`, so it raises."""
        if self.status == BUDGET_EXCEEDED:
            raise BudgetExceededError(
                f"{what} undecided within budget after {self.explored} nodes")
        return self


@lru_cache(maxsize=128)
def transition_masks(a: Automaton) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The image kernel's tables: per letter, the mask of the states where
    it is defined; per state, its successor masks under all letters packed
    in one int, letter x's shifted left by x * n."""
    defined = [0] * len(a.alphabet)
    packed = []
    for s, row in enumerate(a.delta):
        p = 0
        shift = 0
        for x, cell in enumerate(row):
            if cell:
                defined[x] |= 1 << s
                for t in cell:
                    p |= 1 << (shift + t)
            shift += a.n
        packed.append(p)
    return tuple(defined), tuple(packed)


def mask_of(states: Iterable[int]) -> int:
    m = 0
    for s in states:
        m |= 1 << s
    return m


def _subset_mask(a: Automaton, subset: Iterable[int]) -> int:
    """The mask of a nonempty set of a's states (a subset or a block)."""
    m = 0
    for s in subset:
        if not 0 <= s < a.n:
            raise IndexError("subset member out of range")
        m |= 1 << s
    if not m:
        raise ValueError("subset must be nonempty")
    return m


def set_of(mask: int) -> StateSet:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return frozenset(out)


def _node_bytes(n: int) -> int:
    # The per-node estimate that `max_memory` is checked against, sized for
    # a dict slot, an int object and a (parent, letter) tuple.  It
    # over-estimates, most after the driver's switch to a mask-indexed
    # table, but is kept so that a memory cap stops a search where it did.
    return 120 + 2 * (n // 4)


def _byte_tables(packed: Sequence[int], nbytes: int) -> list[list[int]]:
    """For each byte of a mask, the packed image of every value of that byte."""
    tables = []
    for i in range(nbytes):
        table = [0]
        for v in packed[8 * i:8 * i + 8]:
            table += [w | v for w in table]  # byte values with this state's bit set
        tables.append(table)
    return tables


def _slice_tables(tables: list[list[int]], k: int, n: int) -> list[list[tuple[int, bytes]]]:
    """For each byte i of a mask of at most 64 states, the
    `bytes.translate` tables of wide levels, cut from its byte table:
    (x * 8 + o, T) for each of the k letters x and byte o that byte i's
    states reach under x, T[v] being byte o of the x-image of byte value v."""
    slices = []
    for table in tables:
        sliced = []
        for x in range(k):
            images = [u >> x * n & (1 << n) - 1 for u in table]
            rows = pack(f"<{len(images)}Q", *images)
            reach = images[-1]  # all of byte i's states
            while reach:  # only the bytes reached, the highest first
                o = (reach.bit_length() - 1) >> 3
                reach &= (1 << 8 * o) - 1
                sliced.append((x * 8 + o, rows[o::8].ljust(256, b"\0")))
        slices.append(sliced)
    return slices


Expand = Callable[[list], list]


def _images(a: Automaton, careful: bool) -> Expand:
    """The image kernel: `expand(frontier)` lists the images of a whole
    level of masks in one flat list, k per mask (k letters), node-major and
    in alphabet order, with 0 where the careful rule forbids the letter.

    A level that is not byte-sliced (below) runs one mask at a time:
    OR-ing the packed columns of t's states gives its images under all
    letters side by side, cut into one mask per letter.  The careful rule
    is checked per mask, unless every letter applies to every mask.  The
    bit loop ORs one column per set bit; the byte tables (`_byte_tables`)
    one entry per nonzero byte of t.  The path is chosen per mask, by one
    rule at every level width: once the search has expanded entries /
    nbytes masks, so that the tables (256 entries per full byte, 2^r for
    a top byte of r states) cost no more than the bit loops already run,
    a mask takes the tables when it is dense, and the first such mask
    builds them.  A mask is dense when it has more than 2 + nbytes // 4
    states: a lookup costs about three bit-loop steps plus a quarter step
    per byte, so the bit loop keeps the one- and two-state masks of small
    automata, as in the directing searches of a pfa read as an nfa.

    A level of 16 masks or more, once 256 * nbytes masks are expanded, is
    byte-sliced, its per-mask work in C, when a mask fits in a machine
    word (n <= 64) and every letter applies to every mask: the careful
    rule is off or every letter is total.  Any other kernel runs every
    level one mask at a time.  A sliced level is packed 8 bytes a mask,
    little-endian on every host, by one `struct.pack("<{width}Q")`.
    Column i, `data[i::8]`, holds byte i of every mask; each
    `_slice_tables` table is one `translate` pass over a column, OR-ed in
    as a big int (a zero column is skipped).  The images are written out
    node-major and read back by one `struct.unpack("<{width * k}Q")`.
    The fixed cost of a level grows with the tables: on Cerny 18 (9
    tables) the per-mask paths are faster up to about 10 masks, so a
    level under 16 masks is never sliced.
    """
    defined, packed = transition_masks(a)
    n = a.n
    full = (1 << n) - 1
    nbytes = (n + 7) // 8
    k = len(defined)
    shifts = range(0, k * n, n)
    # (shift, mask of the states where the letter may be applied)
    letters = [(x * n, d if careful else full) for x, d in enumerate(defined)]
    total = all(d == full for _, d in letters)  # every letter applies to every mask
    # the masks expanded before wide levels are sliced, if they ever are
    switch = 256 * nbytes if total and n <= 64 else inf
    entries = 256 * (n // 8) + (1 << n % 8 if n % 8 else 0)
    expanded = 0
    tables: Optional[list[list[int]]] = None
    slices: Optional[list] = None

    def expand(frontier: list[int]) -> list[int]:
        nonlocal expanded, tables, slices
        width = len(frontier)
        if width < 16 or expanded < switch:  # one mask at a time
            lookup = expanded * nbytes >= entries
            expanded += width
            flat = []
            for t in frontier:
                u = 0
                if lookup and t.bit_count() > 2 + nbytes // 4:
                    if tables is None:
                        tables = _byte_tables(packed, nbytes)
                    for table, byte in zip(tables, t.to_bytes(nbytes, "little")):
                        if byte:
                            u |= table[byte]
                else:
                    m = t
                    while m:
                        b = m & -m
                        u |= packed[b.bit_length() - 1]
                        m ^= b
                if total:
                    for shift in shifts:
                        flat.append(u >> shift & full)
                else:
                    for shift, d in letters:
                        flat.append(u >> shift & full if t & d == t else 0)
            return flat
        if slices is None:
            tables = tables or _byte_tables(packed, nbytes)
            slices = _slice_tables(tables, k, n)
        data = pack(f"<{width}Q", *frontier)
        acc = [0] * (k * 8)  # acc[x * 8 + o]: byte o of every x-image
        zero = bytes(width)
        for i, sliced in enumerate(slices):
            column = data[i::8]  # byte i of every mask
            if column != zero:  # else every table maps it to 0
                for slot, table in sliced:
                    acc[slot] |= int.from_bytes(column.translate(table), "little")
        # byte o of mask j's x-image goes to out[(j * k + x) * 8 + o]
        out = bytearray(width * k * 8)
        for slot, u in enumerate(acc):
            if u:
                out[slot::k * 8] = u.to_bytes(width, "little")
        del data, acc  # freed before the images are made
        return list(unpack(f"<{width * k}Q", out))

    return expand


# A goal's answer for one level: the index of the first hit among the
# level's new nodes, or None, and the nodes to expand on the next level.
Goal = Callable[[list], tuple[Optional[int], list]]


def _bfs(start: Hashable, expand: Expand, goal: Goal, budget: Optional[SearchBudget],
         node_bytes: int, negative: str, bits: Optional[int] = None) -> SearchResult:
    """The level-synchronized search driver, from `start` to a `SearchResult`.

    `start` is level 0: `goal([start])` is called first, and a hit there is
    the empty word.  `expand(frontier)` lists the children of a whole level
    in one flat list, k per node, node-major and in letter order; a falsy
    child means the letter gives no edge.  A child not seen before is new,
    and its position j in that list names its parent `frontier[j // k]`
    and its letter `j % k`.  `goal(fresh)` is called once per level on the
    level's new nodes in discovery order.  It answers (hit, keep): the
    index of the first hit in `fresh`, or None, and the nodes to expand
    next, in the order of `fresh`; a node left out of `keep` is pruned.
    The status is FOUND with the word reaching the first hit,
    BUDGET_EXCEEDED, or `negative` when the reachable graph is exhausted.
    `explored` counts the nodes discovered up to the hit, `start` and
    pruned ones included.  `budget` None means `DEFAULT_BUDGET`.

    The visited set is the dict `parents` from node to position, and
    the expanded levels are kept as node lists.  For int masks of `bits`
    states (None for other nodes), after the level that brings the
    discovered count to 4,096 and to 2^bits / 32, a `bytearray(1 << bits)`
    indexed by mask, 0 pre-marked as no edge, replaces the dict, which
    costs over 32 bytes a node.  Every expanded level is then kept as an
    `array('i')` of its nodes' positions alone, 4 bytes a node.  Signed
    32 bits suffice: a position is -1 for `start`, else below the length
    of its level's flat list, which is far below 2^31 for any level that
    fits in memory; one that did not fit would raise OverflowError, never
    wrap.  Table and dict answer the same membership questions and the
    positions are the same, so no length, witness or count changes.  The
    floor of 4,096 keeps the tiny searches of a reduction from allocating
    tables.

    The node and memory caps are exact: `explored` never exceeds the cap
    `min(max_nodes, max_memory // node_bytes)`.  A cap of 0 stops the
    search right after `start` is tested, with `explored` 1.  After that,
    once per level and before `goal`, the newest new nodes past the cap
    are dropped as never discovered; the level's goal sees only those
    within it, so a hit past the cap is not found, and the search stops
    with BUDGET_EXCEEDED.  The length cap stops it before it discovers a
    node whose word is longer than `max_length`.
    """
    t0 = time.perf_counter()
    budget = budget or DEFAULT_BUDGET
    cap = min(budget.max_nodes, budget.max_memory // node_bytes)
    # the count of discovered nodes from which the table is the smaller
    switch = max(4096, (1 << bits) // 32) if bits is not None else inf
    parents: Optional[dict] = {start: -1}  # node -> position, until the switch
    table: Optional[bytearray] = None
    frontiers: list = []  # the expanded levels, for the walk back
    fresh = [start]  # level 0
    explored = 1
    over = explored - cap  # a cap of 0 is exceeded by the start alone
    while True:
        hit, frontier = goal(fresh) if fresh else (None, fresh)
        if hit is not None:
            explored -= len(fresh) - hit - 1  # found after the hit: never discovered
            j = parents[fresh[hit]] if table is None else where[hit]
            word = []
            for level in reversed(frontiers):
                word.append(j % k)
                j = level[j // k]  # the parent, or after the switch its position
                if table is None:
                    j = parents[j]
            word.reverse()
            return SearchResult(FOUND, len(word), tuple(word), explored,
                                time.perf_counter() - t0)
        # stop past a cap, before words longer than max_length, or when the
        # reachable graph is exhausted
        if over > 0 or not frontier or len(frontiers) >= budget.max_length:
            status = BUDGET_EXCEEDED if over > 0 or frontier else negative
            return SearchResult(status, explored=explored, elapsed=time.perf_counter() - t0)
        if table is None:
            frontiers.append(frontier)
        else:
            if frontier is not fresh:
                where = map(dict(zip(fresh, where)).__getitem__, frontier)
            frontiers.append(array("i", where))
        if explored >= switch and table is None:
            # every level, the next one included, now keeps its positions
            # imported here: loading it adds to every process's RSS, and only
            # wide searches use it
            from array import array
            frontiers = [array("i", map(parents.__getitem__, level)) for level in frontiers]
            table = bytearray(1 << bits)
            table[0] = 1
            for t in parents:
                table[t] = 1
            parents = None
        flat = expand(frontier)
        k = len(flat) // len(frontier)
        fresh = []
        if table is None:
            for j, child in enumerate(flat):
                if child and child not in parents:
                    parents[child] = j
                    fresh.append(child)
        else:
            where = []  # the positions of the new nodes
            for j, child in enumerate(flat):
                if not table[child]:
                    table[child] = 1
                    fresh.append(child)
                    where.append(j)
        explored += len(fresh)
        over = explored - cap
        if over > 0:  # the newest nodes past the cap are never discovered
            explored = cap
            del fresh[len(fresh) - over:]


def _first_hit(hit: Callable[[Hashable], object]) -> Goal:
    """The goal that expands every node and hits on the first one `hit` accepts."""
    def goal(fresh: list) -> tuple[Optional[int], list]:
        return next(compress(count(), map(hit, fresh)), None), fresh

    return goal


def _is_singleton(t: int) -> bool:
    return t.bit_count() == 1


def _pair_goal(n: int) -> Goal:
    """The goal of the reset searches: hit on the first singleton, record
    every pair, and prune a larger set that contains a pair recorded
    before it, on an earlier level or earlier on its own.

    Each pair {p, q} with p < q is stored as q's bit in `partner[p]`, p's
    bit in `low` and q's bit in `high`.  Only a set that meets both masks
    can contain a pair, and then only its states in `low` are looked up.
    Until the first pair is found, a level of sets of three or more states
    is kept whole after one C pass.  Otherwise one loop sizes each set and
    answers the first singleton as it reaches it; an unpruned level is
    returned itself, so the driver need not remap it.
    """
    partner = [0] * n
    low = high = 0

    def goal(fresh: list[int]) -> tuple[Optional[int], list[int]]:
        nonlocal low, high
        if not low and min(map(int.bit_count, fresh)) > 2:
            return None, fresh
        keep = []
        for i, t in enumerate(fresh):
            size = t.bit_count()
            if size == 1:
                return i, fresh
            if size == 2:
                b = t & -t
                partner[b.bit_length() - 1] |= t ^ b
                low |= b
                high |= t ^ b
            elif (m := t & low) and t & high:
                while m:
                    b = m & -m
                    if partner[b.bit_length() - 1] & t:
                        break
                    m ^= b
                if m:
                    continue  # contains an earlier pair: pruned
            keep.append(t)
        return None, keep if len(keep) < len(fresh) else fresh

    return goal


@lru_cache(maxsize=128)
def _reset_search(a: Automaton, start: int, budget: Optional[SearchBudget],
                  negative: str) -> SearchResult:
    """The classic, careful and subset searches from mask `start`, pruned
    by pair dominance (see the module docstring).  All three take the
    careful rule: on a dfa, the only automaton of a classic search, every
    letter is total and the rule allows them all, so a dfa's classic and
    careful searches are one search.

    A set of three or more states is discovered, counted in `explored`
    and capped by `max_nodes`, but not expanded when it contains a pair
    discovered before it.  Any careful word that resets the set also
    resets that pair, whose word is shorter or lex-smaller, so the length
    and witness are those of the unpruned search; `explored` can only be
    smaller.

    The search is a pure function of its arguments, so it is memoized on
    them, as `transition_masks` is: a repeated search, of an equal
    automaton under an equal budget, returns the first one's result
    object.  A budget stop is cached too; it decides nothing, and
    `decided` raises on it every time.
    """
    return _bfs(start, _images(a, True), _pair_goal(a.n), budget,
                _node_bytes(a.n), negative, a.n)


def shortest_reset(a: Automaton, budget: Optional[SearchBudget] = None) -> SearchResult:
    """Shortest word merging all states of a dfa into one."""
    if a.kind != DFA:
        raise ValueError("shortest_reset requires a dfa")
    return _reset_search(a, (1 << a.n) - 1, budget, NOT_SYNCHRONIZING)


def shortest_careful_reset(a: Automaton,
                           budget: Optional[SearchBudget] = None) -> SearchResult:
    """Shortest careful reset word of the full state set of a dfa/pfa."""
    if a.kind not in (DFA, PFA):
        raise ValueError("shortest_careful_reset requires a dfa or pfa")
    return _reset_search(a, (1 << a.n) - 1, budget, NOT_SYNCHRONIZING)


def shortest_subset_reset(a: Automaton, subset: Iterable[int],
                          budget: Optional[SearchBudget] = None) -> SearchResult:
    """Shortest careful reset word of a subset (plain reset word for dfa)."""
    if a.kind not in (DFA, PFA):
        raise ValueError("subset search requires a dfa or pfa; use directing_word for nfa")
    return _reset_search(a, _subset_mask(a, subset), budget, BLIND)


def is_blind(a: Automaton, subset: Iterable[int],
             budget: Optional[SearchBudget] = None) -> bool:
    """True iff no careful reset word of the subset exists."""
    return shortest_subset_reset(a, subset, budget).decided("blindness").status == BLIND


def replay(a: Automaton, start: Iterable[int], word: Sequence[int]) -> Optional[StateSet]:
    """Apply a word under the careful rule; None if some letter is inapplicable.

    Each letter reads the active states' transition cells and takes their
    union, so a long word costs no kernel call and no mask."""
    states = frozenset(start)
    if any(s < 0 or s >= a.n for s in states):
        raise IndexError("start state out of range")
    k = len(a.alphabet)
    for x in word:
        if not 0 <= x < k:
            raise IndexError(f"letter {x} out of range")
        cells = [a.delta[s][x] for s in states]
        if not all(cells):
            return None  # x is undefined on some active state
        states = frozenset().union(*cells)
    return states


def relevant_part(a: Automaton, subset: Iterable[int],
                  budget: Optional[SearchBudget] = None
                  ) -> tuple[StateSet, Automaton]:
    """States active along some prefix of some careful reset word of the subset.

    Returns the state set together with the sub-automaton restricted to it
    (transitions leaving the set become undefined; states are re-indexed
    in ascending order of the original indices, labels preserved).
    """
    if a.kind not in (DFA, PFA):
        raise ValueError("relevant_part requires a dfa or pfa")
    images = _images(a, True)
    k = len(a.alphabet)
    preds: dict[int, list[int]] = {}  # set -> the sets with an edge to it

    def expand(frontier: list[int]) -> list[int]:
        flat = images(frontier)
        for j, u in enumerate(flat):
            if u:
                preds.setdefault(u, []).append(frontier[j // k])
        return flat

    stack: list[int] = []  # the singletons discovered

    def goal(fresh: list[int]) -> tuple[None, list[int]]:
        stack.extend(filter(_is_singleton, fresh))
        return None, fresh

    _bfs(_subset_mask(a, subset), expand, goal, budget, _node_bytes(a.n), BLIND,
         a.n).decided("relevant part")
    if not stack:
        raise BlindSubsetError("subset is blind: no careful reset word exists")
    alive = set(stack)  # sets from which a singleton is reachable
    united = 0
    while stack:
        u = stack.pop()
        united |= u
        for t in preds.get(u, ()):
            if t not in alive:
                alive.add(t)
                stack.append(t)
    states = set_of(united)
    return states, restrict(a, states)


def is_swap_congruence(a: Automaton, partition: Sequence[Iterable[int]]) -> bool:
    """Check that a partition is a congruence mapped injectively by every letter."""
    if a.kind != DFA:
        raise ValueError("swap congruence is defined for dfa")
    blocks = [frozenset(b) for b in partition]
    block_of: dict[int, int] = {}
    for i, b in enumerate(blocks):
        for s in b:
            if s in block_of:
                raise ValueError("partition blocks must be disjoint")
            block_of[s] = i
    if set(block_of) != set(a.states):
        raise ValueError("partition must cover all states")
    for b in blocks:
        for x in range(len(a.alphabet)):
            images = [next(iter(a.delta[s][x])) for s in b]
            if len(set(images)) != len(images):
                return False  # two congruent states merge
            if len({block_of[t] for t in images}) != 1:
                return False  # not a congruence
    return True


@dataclass(frozen=True)
class TransversalViolation:
    word: Word
    subset: StateSet


def check_transversal_partition(a: Automaton, subset: Iterable[int],
                                partition: Sequence[Iterable[int]],
                                budget: Optional[SearchBudget] = None
                                ) -> Optional[TransversalViolation]:
    """Verify the transversal-partition property of a subset instance.

    Traverses every set reachable from the subset by words that keep all
    active states inside the union of the blocks (careful applicability
    for pfa).  Passes (returns None) iff each such set is a synchronizing
    singleton or meets every block exactly once.  Raises BlindSubsetError
    when no singleton is reachable inside the block domain at all.
    """
    if a.kind not in (DFA, PFA):
        raise ValueError("transversal check requires a dfa or pfa")
    blocks = [_subset_mask(a, b) for b in partition]
    domain = 0
    for b in blocks:
        if domain & b:
            raise ValueError("partition blocks must be disjoint")
        domain |= b
    start = _subset_mask(a, subset)
    if len(blocks) != start.bit_count():
        raise ValueError("need exactly one block per subset state")
    if start & ~domain:
        raise ValueError("subset must lie inside the union of the blocks")
    images = _images(a, True)

    # the goal keeps no singleton: its images stay singletons
    def expand(frontier: list[int]) -> list[int]:
        return [0 if u & ~domain else u for u in images(frontier)]

    def verdict(t: int) -> bool:
        return _is_singleton(t) or all((t & b).bit_count() == 1 for b in blocks)

    synchronized = False  # whether a singleton is discovered
    violation = 0  # the first set that fails the verdict

    def goal(fresh: list[int]) -> tuple[Optional[int], list[int]]:
        nonlocal synchronized, violation
        hit = next(compress(count(), map(not_, map(verdict, fresh))), None)
        if hit is not None:
            violation = fresh[hit]
        keep = [t for t in fresh if not _is_singleton(t)]
        synchronized = synchronized or len(keep) < len(fresh)
        return hit, keep

    res = _bfs(start, expand, goal, budget, _node_bytes(a.n), BLIND,
               a.n).decided("transversal partition")
    if res.found:
        return TransversalViolation(res.witness, set_of(violation))
    if not synchronized:
        raise BlindSubsetError(
            "no careful reset word inside the block domain "
            "(subset blind or blocks do not cover the relevant part)")
    return None


def count_shortest_reset_words(a: Automaton, subset: Iterable[int],
                               budget: Optional[SearchBudget] = None
                               ) -> Optional[tuple[int, int]]:
    """Shortest careful reset length of the subset and the number of
    distinct words of that length, or None if the subset is blind.

    Counts words (not subset-graph paths) by dynamic programming over the
    levels of one unpruned search, so a result of (L, 1) proves the
    shortest word unique.  Every prefix of a shortest word reaches its set
    at exactly the set's BFS depth (from an earlier one the rest of the
    word would make a shorter reset word), so a set's count sums its
    parents' counts over the edges from the level before its own, and the
    answer sums them over the edges into singletons.  The search stops on
    the level of the first singleton, and its cap is the search's: the
    sets are counted as `explored` is, the start included, against
    `min(max_nodes, max_memory // node_bytes)`, and past it the count
    raises BudgetExceededError.
    """
    if a.kind not in (DFA, PFA):
        raise ValueError("word counting requires a dfa or pfa")
    images = _images(a, True)
    k = len(a.alphabet)
    start = _subset_mask(a, subset)
    ways = {start: 1}  # every set discovered -> the words reaching it at its depth
    hits = int(_is_singleton(start))  # the empty word resets a singleton start

    def expand(frontier: list[int]) -> list[int]:
        nonlocal hits
        flat = images(frontier)
        counts = list(map(ways.__getitem__, frontier))
        level: dict[int, int] = {}  # the sets new on this level
        for j, u in enumerate(flat):
            if _is_singleton(u):
                hits += counts[j // k]
            elif u and u not in ways:
                level[u] = level.get(u, 0) + counts[j // k]
        ways.update(level)
        return flat

    res = _bfs(start, expand, _first_hit(_is_singleton), budget, _node_bytes(a.n),
               BLIND, a.n).decided("word counting")
    return (res.length, hits) if res.found else None


# --- directing words for nfa -------------------------------------------------


def directing_word(a: Automaton, mode: str,
                   budget: Optional[SearchBudget] = None) -> SearchResult:
    """Shortest word directing an nfa in the chosen sense.

    d1: all per-state images equal one singleton; d2: all images equal;
    d3: some state lies in every image.  The search tracks the tuple of
    per-start images, so it is meant for small n (about 8 or less).
    """
    if mode not in (D1, D2, D3):
        raise ValueError(f"unknown directing mode {mode!r}")
    images = _images(a, False)
    n = a.n
    k = len(a.alphabet)

    def expand(frontier: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
        flat = images(list(chain.from_iterable(frontier)))  # per node, start, letter
        children: list[tuple[int, ...]] = [()] * (len(frontier) * k)
        for x in range(k):
            column = iter(flat[x::k])
            new = list(zip(*[column] * n))  # each node's images under x
            # an empty image never recovers: () is no edge
            children[x::k] = new if mode == D2 else map(mul, new, map(all, new))
        return children

    if mode == D1:
        def hit(node: tuple[int, ...]) -> bool:
            return node[0].bit_count() == 1 and node.count(node[0]) == n
    elif mode == D2:
        def hit(node: tuple[int, ...]) -> bool:
            return node.count(node[0]) == n
    else:
        def hit(node: tuple[int, ...]) -> bool:
            return reduce(and_, node) != 0

    return _bfs(tuple(1 << s for s in range(n)), expand, _first_hit(hit), budget,
                _node_bytes(n) * n, NOT_SYNCHRONIZING)


# --- one call per mode ------------------------------------------------------


def _check_mode(mode: str, subset: Optional[Iterable[int]]) -> None:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == SUBSET and subset is None:
        raise ValueError("subset mode needs a subset")


def shortest_word(a: Automaton, subset: Optional[Iterable[int]], mode: str,
                  budget: Optional[SearchBudget] = None) -> SearchResult:
    """The engine's answer to the question `brute_force_oracle` answers:
    the shortest word of the mode, lexicographically least among the
    shortest ones.  `subset` is read in subset mode only."""
    _check_mode(mode, subset)
    if mode == CLASSIC:
        return shortest_reset(a, budget)
    if mode == CAREFUL:
        return shortest_careful_reset(a, budget)
    if mode == SUBSET:
        return shortest_subset_reset(a, subset, budget)
    return directing_word(a, mode, budget)


# --- brute-force oracle ------------------------------------------------------


def _column_image(column: Sequence[int], m: int) -> int:
    """The image of mask m under one letter, from the letter's successor
    column: the oracle's own bit loop."""
    u = 0
    while m:
        b = m & -m
        u |= column[b.bit_length() - 1]
        m ^= b
    return u


def brute_force_oracle(a: Automaton, subset: Optional[Iterable[int]], mode: str,
                       max_len: int) -> SearchResult:
    """Independent oracle: test every word of length 0..max_len in
    length-then-lexicographic order and return the first hit.

    No visited-set deduplication or reachability pruning is performed;
    only words that cannot go on are not extended.  A careful-mode letter
    undefined on an active state is not applied, so that word is neither
    tested nor counted; in the classic, careful and subset modes a word
    whose set has fewer than two states is tested but not extended.
    `explored` counts the tested words of length 1 or more (1 when the
    empty word hits).  Status not_synchronizing means "no hit within
    max_len".

    The three directing modes share one word tree: no letter is forbidden
    and no word ends.  So one enumeration answers all three, and
    `_directing_oracle` memoizes the three answers on (automaton,
    max_len).  A d1 word also directs in the senses d2 and d3, so that
    enumeration runs until d1 is decided: a lone d2 or d3 call goes on
    past its own hit, up to the first d1 hit or to max_len.  Each answer,
    `explored` included, is the one a run of its mode alone would give.
    The classic, careful and subset modes run one at a time.  See
    `_word_levels` for the level loop they all share.
    """
    _check_mode(mode, subset)
    if max_len < 0:
        raise ValueError(f"max_len must be nonnegative, got {max_len}")
    if mode in _DIRECTING:
        return _directing_oracle(a, max_len)[_DIRECTING.index(mode)]
    return _word_levels(a, subset, (mode,), max_len)[0]


@lru_cache(maxsize=128)
def _directing_oracle(a: Automaton, max_len: int) -> tuple[SearchResult, ...]:
    """The oracle's d1, d2 and d3 answers from one enumeration, memoized
    as `_reset_search` is; the three keep that enumeration's `elapsed`."""
    return _word_levels(a, None, _DIRECTING, max_len)


def _word_levels(a: Automaton, subset: Optional[Iterable[int]], modes: Sequence[str],
                 max_len: int) -> tuple[SearchResult, ...]:
    """The oracle's level loop: the answers of `modes`, which share a word
    tree, from one enumeration of it.  `modes` is one of the classic,
    careful and subset modes, or `_DIRECTING`.

    The oracle shares no table or search code with the engine.  Images
    come from one `Memo` per letter over a successor column built from
    `a.delta`.  Each distinct node (a mask, or in the directing modes the
    tuple of per-start images) is numbered once, when it is first met,
    and then gets its go-on flag and one hit flag per mode; number 0
    stands for a letter the careful rule forbids.  Before a level is
    stepped, the successors of its new nodes (the kept ones numbered on
    the level before) are numbered into one dict per letter.  A level
    lists one number per word, k per word of the level before, built a
    letter at a time, so every word is still generated, tested and
    counted; the dicts merge no words.  A level is one byte per word,
    stepped by one `translate` per letter, until the numbers pass 255;
    then it is a list stepped through `map`.  The next level keeps the
    words that go on, and every level is kept, so a hit's word is spelled
    back through the positions of the kept words.  A level is scanned for
    a mode's first hit only when it numbered a hit node of that mode: it
    is the first level that can hold a hit, and every earlier level is
    counted whole.  The loop ends when every mode is decided, or after
    max_len.
    """
    t0 = time.perf_counter()
    n = a.n
    k = len(a.alphabet)
    images = [Memo(partial(_column_image, [mask_of(a.delta[s][x]) for s in a.states]))
              .__getitem__ for x in range(k)]
    directing = modes[0] in _DIRECTING

    if not directing:
        mode, = modes
        start = _subset_mask(a, subset) if mode == SUBSET else (1 << n) - 1
        careful = mode != CLASSIC or a.kind == PFA
        # every letter is allowed on t when t & defined == t; -1 allows all
        defined = [mask_of(s for s in a.states if a.delta[s][x]) if careful else -1
                   for x in range(k)]

        def successor(x: int, t: int) -> Optional[int]:
            return images[x](t) if t & defined[x] == t else None  # None: forbidden

        def hit(t: int) -> bool:
            return t.bit_count() == 1

        def goes_on(t: int) -> bool:
            return t & (t - 1) != 0  # two or more states

        tests = [hit]
    else:
        start = tuple(1 << s for s in range(n))

        def successor(x: int, node: tuple[int, ...]) -> tuple[int, ...]:
            return tuple(map(images[x], node))

        def d1(node: tuple[int, ...]) -> bool:
            return node[0].bit_count() == 1 and node.count(node[0]) == n

        def d2(node: tuple[int, ...]) -> bool:
            return node.count(node[0]) == n

        def d3(node: tuple[int, ...]) -> bool:
            return reduce(and_, node) != 0

        def goes_on(node: tuple[int, ...]) -> bool:
            return True

        tests = [d1, d2, d3]  # the order of _DIRECTING

    # node number -> node, go-on flag and per mode a hit flag; node ->
    # number; the forbidden successor None is number 0
    nodes: list = [None]
    kept = [False]
    hits = [[False] for _ in tests]
    number: dict = {None: 0}

    def numbered(fresh: list) -> None:  # number the nodes met first
        number.update(zip(fresh, count(len(nodes))))
        nodes.extend(fresh)
        kept.extend(map(goes_on, fresh))
        for flags, test in zip(hits, tests):
            flags.extend(map(test, fresh))

    numbered([start])
    # per mode, (status, length, witness, explored) once decided
    answers: list = [(FOUND, 0, (), 1) if flags[1] else None for flags in hits]
    # per letter, a node's number -> its successor's number, and while
    # every number is a byte, the same as a `translate` table
    steps = [{} for _ in range(k)]
    tables = [b""] * k
    level = b"\1"  # the start's number
    levels = []  # per length, one number per word
    explored = 0
    first = 1  # the first number given on the level before
    # no level at all when the empty word decides every mode
    for depth in range(1, max_len + 1 if None in answers else 1):
        # the level's new nodes: the kept ones numbered on the level before
        todo = list(compress(range(first, len(nodes)), kept[first:]))
        first = len(nodes)
        for x, step in enumerate(steps if todo else ()):
            succ = list(map(successor, repeat(x), map(nodes.__getitem__, todo)))
            numbered([node for node in dict.fromkeys(succ) if node not in number])
            step.update(zip(todo, map(number.__getitem__, succ)))
            if len(nodes) <= 256:
                tables[x] = bytes(map(step.get, range(len(nodes)), repeat(0))).ljust(256, b"\0")
        small = len(nodes) <= 256  # one byte per word
        if small:
            nxt = bytearray(len(level) * k)
            for x, table in enumerate(tables):
                nxt[x::k] = level.translate(table)
        else:
            nxt = [0] * (len(level) * k)
            for x, step in enumerate(steps):
                nxt[x::k] = map(step.__getitem__, level)
        levels.append(nxt)
        for m, flags in enumerate(hits):
            if answers[m] is None and any(flags[first:]):  # first met on this level
                i = next(compress(count(), map(flags.__getitem__, nxt)))
                found = explored + i + 1 - nxt[:i + 1].count(0)
                # word i of a level extends kept word i // k of the level before
                word = [i % k]
                for prev in reversed(levels[:-1]):
                    i = next(islice(compress(count(), map(kept.__getitem__, prev)), i // k, None))
                    word.append(i % k)
                answers[m] = (FOUND, depth, tuple(reversed(word)), found)
        if None not in answers:
            break
        explored += len(nxt)
        level = nxt  # the directing modes forbid no letter and end no word
        if not directing:
            explored -= nxt.count(0)
            level = (nxt.translate(None, bytes(compress(count(), map(not_, kept)))) if small
                     else list(compress(nxt, map(kept.__getitem__, nxt))))
    elapsed = time.perf_counter() - t0
    return tuple(SearchResult(*(answer or (NOT_SYNCHRONIZING, None, None, explored)), elapsed)
                 for answer in answers)


# --- composition depth over transformation semigroups ------------------------

Transform = tuple[int, ...]


def constant_target(f: Transform) -> bool:
    return len(set(f)) == 1


def merging_target(subset: Iterable[int]) -> Callable[[Transform], bool]:
    members = tuple(subset)

    def target(f: Transform) -> bool:
        return len({f[s] for s in members}) == 1

    return target


def composition_depth(n: int, generators: Sequence[Sequence[int]],
                      target: Callable[[Transform], bool],
                      budget: Optional[SearchBudget] = None) -> SearchResult:
    """Length of a shortest generator sequence whose composition hits the target.

    The search starts from the empty composition `()`, which is never
    tested, so sequences have length >= 1; the witness lists generator
    indices in application order g1,...,gk with the composition
    g1 o ... o gk applying gk first.
    """
    gens: list[Transform] = []
    for g in generators:
        f = tuple(g)
        if len(f) != n or any(v < 0 or v >= n for v in f):
            raise ValueError(f"generator {g!r} is not a function on 0..{n - 1}")
        gens.append(f)

    def expand(frontier: list[Transform]) -> list[Transform]:
        if frontier == [()]:  # the empty composition
            return gens
        return [tuple(map(h.__getitem__, g)) for h in frontier for g in gens]  # h o g

    res = _bfs((), expand, _first_hit(lambda f: f != () and target(f)), budget,
               _node_bytes(n) * n, NOT_SYNCHRONIZING)
    return replace(res, explored=res.explored - 1)  # () is not a transform
