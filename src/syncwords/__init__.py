"""syncwords: exact synchronization-word computation for finite automata.

Shortest reset, careful-reset and subset-reset words by exact power-set
search; structural verifiers (swap congruences, transversal partitions,
connecting arc sets); directing words for nondeterministic automata;
composition depth over transformation semigroups; the De Bruijn
switch-counter family with exponential subset thresholds; and the
threshold-preserving reductions that compress it onto binary strongly
connected automata.
"""

from .automata import (Alphabet, Automaton, Condensation, DFA, Instance, NFA,
                       PFA, Pair, StateSet, Word, augmentation_connects,
                       augmenting_pairs, condensation, dfa_from_table,
                       is_strongly_connected, nfa_from_sets, pfa_from_table,
                       run, sink_states, step, word_tokens)
from .families import (CounterInstance, cerny, counting_word, de_bruijn,
                       debruijn_counter, switch_value, verify_de_bruijn,
                       window_permutation)
from .reduce import (ReductionReport, add_link_letters, add_restart_letter,
                     add_sink_determinization, binarize, binary_chain,
                     decode_word, encode_word, run_reduction, swap_doubling)
from .search import (BLIND, BUDGET_EXCEEDED, BlindSubsetError,
                     BudgetExceededError, D1, D2, D3, DEFAULT_BUDGET, FOUND,
                     NOT_SYNCHRONIZING, SearchBudget, SearchResult,
                     TransversalViolation, brute_force_oracle,
                     check_transversal_partition,
                     composition_depth, constant_target,
                     count_shortest_reset_words, directing_word,
                     is_blind, is_swap_congruence, merging_target,
                     relevant_part, replay, shortest_careful_reset,
                     shortest_reset, shortest_subset_reset, shortest_word)
from .textio import ParseError, load, parse, save, serialize

__version__ = "0.1.0"
