"""Generators for extremal automaton families.

The centerpiece is the De Bruijn switch-counter family: a four-letter
DFA built around a binary De Bruijn sequence whose designated subset can
only be merged by driving m binary "switches" through a full binary
count, which forces reset words of length exponential in m.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .automata import Automaton, Instance, Pair, StateSet, Word, dfa_from_table


def de_bruijn(k: int) -> str:
    """Lexicographically least binary De Bruijn sequence of order k."""
    if k < 1:
        raise ValueError("order must be at least 1")
    seq: list[int] = []
    a = [0] * (k + 1)

    def db(t: int, p: int) -> None:
        if t > k:
            if k % p == 0:
                seq.extend(a[1:p + 1])
        else:
            a[t] = a[t - p]
            db(t + 1, p)
            for j in range(a[t - p] + 1, 2):
                a[t] = j
                db(t + 1, t)

    db(1, 1)
    return "".join(map(str, seq))


def verify_de_bruijn(bits: str, k: int) -> bool:
    """True iff every binary k-word occurs exactly once as a cyclic factor."""
    if k < 1:
        raise ValueError("order must be at least 1")
    if len(bits) != 1 << k:
        raise ValueError(f"sequence must have length {1 << k}, got {len(bits)}")
    if any(c not in "01" for c in bits):
        raise ValueError("sequence must be binary")
    ext = bits + bits[:k - 1]
    factors = {ext[i:i + k] for i in range(len(bits))}
    return len(factors) == len(bits)


def window_permutation(bits: str) -> tuple[int, ...]:
    """Value of the length-k cyclic factor starting at each position.

    k is the base-2 log of the sequence length; for a De Bruijn sequence
    the result is a permutation of 0..len(bits)-1.
    """
    m = len(bits)
    k = m.bit_length() - 1
    if m != 1 << k:
        raise ValueError("sequence length must be a power of two")
    ext = bits + bits[:k - 1]
    return tuple(int(ext[i:i + k], 2) for i in range(m))


# Switch flavors: value tracks 0 and 1 plus comparison markers for
# "went below" (0-, 1-) and "went above" (1+) mid-block.
_FLAVORS = ("0", "0↓", "1", "1↓", "1↑")
_F0, _F0DN, _F1, _F1DN, _F1UP = range(5)

LETTER_ZERO = 0
LETTER_ONE = 1
LETTER_BLOCK = 2   # closes each k-digit block (token kappa)
LETTER_FINISH = 3  # maps everything onto the two sinks (token omega)

COUNTER_LETTERS = ("0", "1", "κ", "ω")


@dataclass(frozen=True)
class CounterInstance:
    """De Bruijn switch-counter automaton with all attached metadata."""

    instance: Instance
    m: int
    k: int
    bits: str
    perm: tuple[int, ...]
    sc_pairs: tuple[Pair, ...]           # arcs making the whole automaton SC
    relevant_sc_pairs: tuple[Pair, ...]  # arcs making its relevant restriction SC

    @property
    def automaton(self) -> Automaton:
        return self.instance.automaton

    @property
    def subset(self) -> StateSet:
        assert self.instance.subset is not None
        return self.instance.subset

    def switch_state(self, i: int, flavor: int) -> int:
        return 5 * i + flavor

    @property
    def drain(self) -> int:
        return 5 * self.m + self.k + 1

    @property
    def trap(self) -> int:
        return 5 * self.m + self.k + 2


def debruijn_counter(m: int, bits: Optional[str] = None) -> CounterInstance:
    """Build the m-switch counter automaton (m = 2^k).

    State layout: switch (i, flavor) at index 5*i + flavor with flavors
    ordered 0, 0-, 1, 1-, 1+; then clock states C0..Ck; then the drain
    sink D and the trap sink Dx.  The designated subset is every (i, 0)
    plus C0 and D.  Every transition not fixed by the switch, clock or
    finish rules leads to the trap.
    """
    k = m.bit_length() - 1
    if m < 2 or m != 1 << k:
        raise ValueError("switch count must be a power of two, at least 2")
    if bits is None:
        bits = de_bruijn(k)
    elif not verify_de_bruijn(bits, k):
        raise ValueError("override sequence is not De Bruijn of the right order")
    perm = window_permutation(bits)
    xi = [int(c) for c in bits]
    n = 5 * m + k + 3

    def sw(i: int, f: int) -> int:
        return 5 * (i % m) + f

    clock0 = 5 * m
    drain = 5 * m + k + 1
    trap = 5 * m + k + 2

    table = [[trap] * 4 for _ in range(n)]
    # kappa flips the equal-track value and resolves markers back to a value
    kappa_value = {_F0: _F1, _F0DN: _F0, _F1: _F1, _F1DN: _F1, _F1UP: _F0}
    for i in range(m):
        nxt = i + 1
        if xi[i] == 0:
            table[sw(i, _F0)][LETTER_ZERO] = sw(nxt, _F0)
            table[sw(i, _F0)][LETTER_ONE] = trap
            table[sw(i, _F1)][LETTER_ZERO] = sw(nxt, _F1)
            table[sw(i, _F1)][LETTER_ONE] = sw(nxt, _F1UP)
        else:
            table[sw(i, _F0)][LETTER_ZERO] = sw(nxt, _F0DN)
            table[sw(i, _F0)][LETTER_ONE] = sw(nxt, _F0)
            table[sw(i, _F1)][LETTER_ZERO] = sw(nxt, _F1DN)
            table[sw(i, _F1)][LETTER_ONE] = sw(nxt, _F1)
        for f in (_F0DN, _F1DN, _F1UP):
            table[sw(i, f)][LETTER_ZERO] = sw(nxt, f)
            table[sw(i, f)][LETTER_ONE] = sw(nxt, f)
        for f, v in kappa_value.items():
            table[sw(i, f)][LETTER_BLOCK] = sw(i - k, v)
        table[sw(i, _F1)][LETTER_FINISH] = drain
        for f in (_F0, _F0DN, _F1DN, _F1UP):
            table[sw(i, f)][LETTER_FINISH] = trap
    # clock: counts k digits, then requires the block letter; finish only at C0
    for j in range(k + 1):
        c = clock0 + j
        if j < k:
            table[c][LETTER_ZERO] = c + 1
            table[c][LETTER_ONE] = c + 1
            table[c][LETTER_BLOCK] = trap
        else:
            table[c][LETTER_ZERO] = trap
            table[c][LETTER_ONE] = trap
            table[c][LETTER_BLOCK] = clock0
        table[c][LETTER_FINISH] = drain if j == 0 else trap
    for x in range(4):
        table[drain][x] = drain
        table[trap][x] = trap

    labels = []
    for i in range(m):
        labels.extend(f"({i},{f})" for f in _FLAVORS)
    labels.extend(f"C{j}" for j in range(k + 1))
    labels.extend(("D", "Dx"))

    automaton = dfa_from_table(table, COUNTER_LETTERS, labels)

    subset = frozenset([sw(i, _F0) for i in range(m)] + [clock0, drain])
    blocks = [frozenset(range(5 * i, 5 * i + 5)) for i in range(m)]
    blocks.append(frozenset(range(clock0, clock0 + k + 1)))
    blocks.append(frozenset((drain,)))
    sc_pairs = ((drain, clock0), (trap, sw(0, _F0)))
    relevant_sc_pairs = ((drain, clock0), (clock0, sw(0, _F0)))
    instance = Instance(automaton, subset, tuple(blocks), sc_pairs)
    return CounterInstance(instance, m, k, bits, perm, sc_pairs, relevant_sc_pairs)


def counting_word(m: int) -> Word:
    """The word driving the switches through a full binary count.

    Concatenates blocks bin(t_j) kappa for j = 1 .. 2^m - 1, where t_j is
    the position of the least significant 0 bit of j - 1, followed by the
    finish letter; bin is the k-digit representation, most significant
    digit first.
    """
    k = m.bit_length() - 1
    if m < 2 or m != 1 << k:
        raise ValueError("switch count must be a power of two, at least 2")
    word: list[int] = []
    for j in range(1, 1 << m):
        prev = j - 1
        t = 0
        while prev & (1 << t):
            t += 1
        word.extend((t >> (k - 1 - d)) & 1 for d in range(k))
        word.append(LETTER_BLOCK)
    word.append(LETTER_FINISH)
    return tuple(word)


def switch_value(counter: CounterInstance, active: StateSet) -> Optional[int]:
    """Decode the active switch states as a binary number.

    Returns None unless exactly one of (i,0), (i,1) is active for each i.
    Switch i contributes 2**perm[i] when set to 1.
    """
    value = 0
    for i in range(counter.m):
        on0 = counter.switch_state(i, _F0) in active
        on1 = counter.switch_state(i, _F1) in active
        if on0 == on1:
            return None
        if on1:
            value |= 1 << counter.perm[i]
    return value


def block_language_shape(word: Sequence[int], k: int) -> bool:
    """Check the ({0,1}^k kappa)* omega shape of a counter reset word."""
    i = 0
    while i < len(word) and word[i] != LETTER_FINISH:
        block = word[i:i + k + 1]
        if len(block) < k + 1:
            return False
        if any(x not in (LETTER_ZERO, LETTER_ONE) for x in block[:k]):
            return False
        if block[k] != LETTER_BLOCK:
            return False
        i += k + 1
    return i == len(word) - 1 and word[i] == LETTER_FINISH


def cerny(n: int) -> Instance:
    """The classical n-state binary family with shortest reset length (n-1)^2."""
    if n < 2:
        raise ValueError("need at least 2 states")
    table = [[(s + 1) % n, s] for s in range(n)]
    table[0][1] = 1
    return Instance(dfa_from_table(table, "ab"), frozenset(range(n)))
