"""Seeded random automaton instances for experiments and cross-checks.

The rejection samplers draw until the engine accepts a draw, and return
that search with the instance.  A caller that searches the draw again,
as a reduction does, gets the engine's cached result rather than a new
search.  They search under the caller's budget; a search it stops
decides nothing about the draw, so the sampler raises
BudgetExceededError (`SearchResult.decided`) rather than reject it.
"""

from __future__ import annotations

import random
import string
from typing import Optional

from .automata import (Automaton, Pair, augmenting_pairs, dfa_from_table,
                       nfa_from_sets, pfa_from_table)
from .search import (SearchBudget, SearchResult, shortest_careful_reset,
                     shortest_subset_reset)

PFA_DEFINED = 0.85   # chance that a pfa transition is defined
NFA_DENSITY = 0.3    # chance of each successor in an nfa cell
SUBSET_MIN_SIZE = 2  # random subsets have at least this many states, n permitting


def _letters(count: int) -> tuple[str, ...]:
    return tuple(string.ascii_lowercase[:count])


def random_dfa(rng: random.Random, n: int, letters: int) -> Automaton:
    return dfa_from_table([[rng.randrange(n) for _ in range(letters)] for _ in range(n)],
                          _letters(letters))


def random_pfa(rng: random.Random, n: int, letters: int) -> Automaton:
    return pfa_from_table([[rng.randrange(n) if rng.random() < PFA_DEFINED else None
                            for _ in range(letters)] for _ in range(n)], _letters(letters))


def random_nfa(rng: random.Random, n: int, letters: int) -> Automaton:
    return nfa_from_sets([[[t for t in range(n) if rng.random() < NFA_DENSITY]
                           for _ in range(letters)] for _ in range(n)], _letters(letters))


def random_subset(rng: random.Random, n: int) -> frozenset[int]:
    size = rng.randint(min(SUBSET_MIN_SIZE, n), n)
    return frozenset(rng.sample(range(n), size))


def random_synchronizable_subset_dfa(rng: random.Random, n: int, letters: int,
                                     budget: Optional[SearchBudget] = None,
                                     ) -> tuple[Automaton, frozenset[int], SearchResult]:
    """A dfa with a synchronizable subset of at least two states, and the
    subset's search under `budget` that accepted it."""
    while True:
        a = random_dfa(rng, n, letters)
        s = random_subset(rng, n)
        res = shortest_subset_reset(a, s, budget).decided("rejection sampling")
        if res.found:
            return a, s, res


def random_careful_subset_pfa(rng: random.Random, n: int, letters: int,
                              budget: Optional[SearchBudget] = None,
                              ) -> tuple[Automaton, frozenset[int], SearchResult]:
    """A pfa with a carefully synchronizable subset of at least two states,
    and the subset's search under `budget` that accepted it."""
    while True:
        a = random_pfa(rng, n, letters)
        s = random_subset(rng, n)
        res = shortest_subset_reset(a, s, budget).decided("rejection sampling")
        if res.found:
            return a, s, res


def random_carefully_synchronizing_pfa(rng: random.Random, n: int, letters: int,
                                       budget: Optional[SearchBudget] = None,
                                       ) -> tuple[Automaton, SearchResult]:
    """A pfa whose whole state set has a careful reset word, and the
    careful search under `budget` that accepted it."""
    while True:
        a = random_pfa(rng, n, letters)
        res = shortest_careful_reset(a, budget).decided("rejection sampling")
        if res.found:
            return a, res


def random_connectable_pairs(rng: random.Random, a: Automaton,
                             min_arcs: int = 0) -> list[Pair]:
    """Arcs making the automaton strongly connected, padded to min_arcs.

    Extra arcs keep the augmented graph strongly connected, so the result
    is always a valid witness for the class of automata connectable with
    len(result) arcs.
    """
    pairs = augmenting_pairs(a)
    while len(pairs) < min_arcs:
        pairs.append((rng.randrange(a.n), rng.randrange(a.n)))
    return pairs
