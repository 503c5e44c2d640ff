import dataclasses
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from syncwords.automata import Memo, dfa_from_table, nfa_from_sets, pfa_from_table, run
from syncwords.families import cerny, counting_word, debruijn_counter
from syncwords.sampling import (random_careful_subset_pfa,
                                random_carefully_synchronizing_pfa, random_dfa,
                                random_nfa, random_pfa, random_subset,
                                random_synchronizable_subset_dfa)
from syncwords.search import (BLIND, BUDGET_EXCEEDED, CAREFUL, D1, D2, D3, FOUND,
                              NOT_SYNCHRONIZING, SUBSET,
                              BlindSubsetError, BudgetExceededError,
                              SearchBudget, brute_force_oracle,
                              check_transversal_partition, composition_depth,
                              constant_target, count_shortest_reset_words,
                              directing_word, is_blind,
                              is_swap_congruence, mask_of, merging_target,
                              relevant_part, replay, shortest_careful_reset,
                              shortest_reset, shortest_subset_reset,
                              shortest_word)
from syncwords import search
from syncwords.reduce import run_reduction
from syncwords.search import _images
from syncwords.textio import parse, serialize

from test_automata import dfas


def _crossing_nfa(rng, n, k):
    """An nfa whose cells each hold a random state, the mirror n - 1 - s
    and s + 8: a byte's states reach several other bytes."""
    return nfa_from_sets([[{rng.randrange(n), n - 1 - s, (s + 8) % n} for _ in range(k)]
                          for s in range(n)], "abc"[:k])


def _split_pfa(rng, n, k):
    """A random pfa whose first letter is undefined on states 0 and n - 1
    alone, two different bytes once n > 8."""
    table = [[None if x == 0 and s in (0, n - 1) else rng.randrange(n) for x in range(k)]
             for s in range(n)]
    return pfa_from_table(table, "abc"[:k])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([random_dfa, random_pfa, random_nfa]), st.integers(1, 24),
       st.integers(1, 3), st.booleans(), st.randoms(use_true_random=False))
@example(random_pfa, 5, 3, True, random.Random(5))
@example(random_dfa, 8, 2, False, random.Random(8))
@example(random_dfa, 8, 2, True, random.Random(8))  # a dfa's images: careful or not
@example(random_pfa, 64, 3, False, random.Random(64))
@example(random_pfa, 65, 2, True, random.Random(65))
@example(random_dfa, 100, 2, False, random.Random(100))
@example(random_dfa, 1, 2, False, random.Random(1))
@example(random_pfa, 9, 2, True, random.Random(9))
@example(random_nfa, 63, 2, False, random.Random(63))
@example(_crossing_nfa, 20, 2, False, random.Random(20))
@example(_crossing_nfa, 70, 3, True, random.Random(70))
@example(_split_pfa, 20, 3, True, random.Random(21))
@example(_split_pfa, 130, 2, True, random.Random(130))
def test_image_kernel_matches_delta(sample, n, k, careful, rng):
    # every path of the kernel against the transition table.  A level that
    # is not sliced runs one mask at a time, whatever its width: once the
    # masks expanded before it reach the tables' entries / nbytes, each
    # dense mask (more than 2 + nbytes // 4 states) on the byte tables,
    # which the first one builds, and each other mask on the bit loop.  A
    # level of 16 masks or more is byte-sliced once 256 * nbytes masks are
    # expanded, but only over masks of at most 64 states and when no
    # careful letter is undefined on some state; any other kernel builds
    # the byte tables for its dense masks but never slices.  The examples
    # take one-byte masks (n = 1, 5, 8), pack and unpack masks of one
    # machine word (n = 9, 63, 64), run wider ones one mask at a time (65,
    # 70, 100, 130), and cover nfa cells that cross bytes and careful
    # letters undefined in two bytes
    a = sample(rng, n, k)
    nbytes = (n + 7) // 8
    full = (1 << n) - 1
    partial = careful and not all(cell for row in a.delta for cell in row)
    sliced = n <= 64 and not partial  # whether a kernel slices its wide levels
    entries = 256 * (n // 8) + (1 << n % 8 if n % 8 else 0)

    def images_of(t):
        cells = [a.delta[s] for s in range(n) if t >> s & 1]
        return [0 if careful and not all(row[x] for row in cells)
                else mask_of(frozenset().union(*(row[x] for row in cells)))
                for x in range(k)]

    memo = Memo(images_of)  # each mask once: the wide level is checked five times

    def images(level):
        return [u for t in level for u in memo[t]]

    def dense(t):
        return t.bit_count() > 2 + nbytes // 4

    wide = ([0, full] + [1 << s for s in range(n)]
            + [rng.getrandbits(n) for _ in range(256 * nbytes)])
    narrow_dense = [full] + [rng.getrandbits(n) | 1 for _ in range(14)]
    narrow_sparse = [0, 1 << n - 1] * 7
    mixed = [0, 1 << n - 1, full, 1]  # sparse masks before and after a dense one
    assert dense(full) == (n > 2) and not dense(0) and not dense(1 << n - 1)
    # (kernel, level): the first kernel's levels take every path in turn,
    # the second's a wide level under its switch and one past it
    steps = [(0, []),
             (0, narrow_dense),  # no mask expanded yet: the bit loop
             (0, wide),  # under the switch, one mask at a time
             (0, narrow_sparse),  # past it: the bit loop for sparse masks
             (0, mixed),  # the byte tables for a dense mask
             (0, narrow_dense),
             (0, wide),  # byte-sliced, or one mask at a time
             (0, narrow_dense[:1]),
             (0, wide),  # the slice tables are built once
             (1, wide),  # a new kernel: the bit loop under its switch
             (1, wide)]  # sliced, the slices cut from its own byte tables
    # per kernel, the masks expanded one at a time and whether it has built
    # byte tables and slice tables, by the rule above
    expanded, built, cut = [0, 0], [False, False], [False, False]
    with mock.patch.object(search, "_byte_tables", wraps=search._byte_tables) as tables, \
            mock.patch.object(search, "_slice_tables", wraps=search._slice_tables) as slices:
        kernels = [_images(a, careful), _images(a, careful)]
        for kernel, level in steps:
            assert kernels[kernel](level) == images(level)
            if len(level) >= 16 and sliced and expanded[kernel] >= 256 * nbytes:
                built[kernel] = cut[kernel] = True
            else:
                if expanded[kernel] * nbytes >= entries and any(map(dense, level)):
                    built[kernel] = True
                expanded[kernel] += len(level)
            assert (tables.call_count, slices.call_count) == (sum(built), sum(cut))
    # every kernel slices, or with a dense mask looks it up, in the end
    assert cut == [sliced] * 2 and built == [sliced or n > 2] * 2


def test_one_state_reset_is_empty():
    a = dfa_from_table([[0]], "a")
    res = shortest_reset(a)
    assert (res.status, res.length, res.witness) == (FOUND, 0, ())


def test_sink_absorbs_every_letter():
    from syncwords.automata import step
    ci = debruijn_counter(2)
    for x in range(4):
        assert step(ci.automaton, ci.drain, x) == frozenset({ci.drain})


def test_permutation_letter_never_synchronizes():
    a = dfa_from_table([[1], [2], [0]], "a")
    assert shortest_reset(a).status == NOT_SYNCHRONIZING


def test_shortest_reset_requires_dfa():
    p = pfa_from_table([[None]], "a")
    with pytest.raises(ValueError):
        shortest_reset(p)


def test_budget_exceeded_on_nodes():
    a = cerny(6).automaton
    res = shortest_reset(a, SearchBudget(max_nodes=3))
    assert res.status == BUDGET_EXCEEDED
    assert res.explored == 3


def test_node_cap_is_exact():
    # the hit is the 58th set discovered: it is found only within the cap
    a = cerny(6).automaton
    res = shortest_reset(a)
    assert (res.status, res.explored) == (FOUND, 58)
    assert shortest_reset(a, SearchBudget(max_nodes=58)) == res
    res = shortest_reset(a, SearchBudget(max_nodes=57))
    assert (res.status, res.explored) == (BUDGET_EXCEEDED, 57)
    # a wide level is cut inside, not after it
    res = directing_word(cerny(8).automaton, D1, SearchBudget(max_nodes=100))
    assert (res.status, res.explored) == (BUDGET_EXCEEDED, 100)


def test_memory_cap_is_exact():
    # a d1 node of Cerny 8 is estimated as 8 sets: 100 nodes fit, 101 do not
    node = search._node_bytes(8) * 8
    res = directing_word(cerny(8).automaton, D1, SearchBudget(max_memory=101 * node - 1))
    assert (res.status, res.explored) == (BUDGET_EXCEEDED, 100)


def test_budget_exceeded_on_length():
    a = cerny(6).automaton
    res = shortest_reset(a, SearchBudget(max_length=2))
    assert res.status == BUDGET_EXCEEDED


def test_budget_is_checked_on_a_level_with_no_new_sets():
    # the full set maps to itself, so the first level discovers nothing;
    # the memory cap is below one set's estimate and still stops the search
    a = dfa_from_table([[0], [1]], "a")
    assert shortest_reset(a).status == NOT_SYNCHRONIZING
    res = shortest_reset(a, SearchBudget(max_memory=1))
    assert (res.status, res.explored) == (BUDGET_EXCEEDED, 1)


def test_results_are_immutable():
    res = shortest_reset(cerny(3).automaton)
    with pytest.raises(dataclasses.FrozenInstanceError):
        res.status = NOT_SYNCHRONIZING
    assert res.status == FOUND


def _unpruned(a, start, careful):
    """(status, length, witness, explored) of the driver run without the
    reset searches' pair pruning, the status None when exhausted."""
    def goal(fresh):  # hit on the first singleton, expand every set
        return next((i for i, t in enumerate(fresh) if t.bit_count() == 1), None), fresh

    res = search._bfs(start, _images(a, careful), goal, search.DEFAULT_BUDGET, 1, None)
    return res.status, res.length, res.witness, res.explored


def test_explored_counts_are_pinned():
    # the driver tests the goal on discovery and counts the start node;
    # explored counts every discovered set, pruned ones included
    ci = debruijn_counter(4)
    res = shortest_subset_reset(ci.automaton, ci.subset)
    assert (res.length, res.explored) == (46, 148)
    assert _unpruned(ci.automaton, mask_of(ci.subset), True)[1:] == (46, res.witness, 946)
    res = shortest_reset(cerny(12).automaton)
    assert (res.length, res.explored) == (121, 4084)  # nothing is pruned
    ci = debruijn_counter(8)  # solved exactly: the word of the paper's formula
    res = shortest_subset_reset(ci.automaton, ci.subset)
    assert (res.status, res.length, res.explored) == (FOUND, 1021, 3006)
    assert res.witness == counting_word(8)
    # {1, 2}, found on the hit's level after the hit {0}, is not counted
    a = dfa_from_table([[0, 1], [0, 2], [0, 1]], "ab")
    res = shortest_reset(a)
    assert (res.witness, res.explored) == ((0,), 2)


def test_pair_goal_hit_is_the_first_singleton_of_its_level():
    # level 1 records the pair {0, 1}; on level 2 a set holding it (pruned)
    # and a new pair come before the singleton {6}: the hit is still the
    # third set discovered, and the set after it is not counted
    levels = iter([[0b00000011, 0b11110000],
                   [0b00000111, 0b00110000, 0b01000000, 0b11000000]])
    goal = search._pair_goal(8)
    res = search._bfs(0b11111111, lambda frontier: next(levels), goal, None,
                      search._node_bytes(8), NOT_SYNCHRONIZING, 8)
    assert (res.status, res.witness, res.explored) == (FOUND, (1, 0), 6)


def test_pair_goal_returns_an_unpruned_level_itself():
    goal = search._pair_goal(8)
    level = [0b111, 0b111000]  # before the first pair
    assert goal(level)[1] is level
    level = [0b11, 0b11100]  # a pair, and a set that holds no earlier pair
    hit, keep = goal(level)
    assert hit is None and keep is level
    level = [0b111, 0b1100000]  # {0, 1, 2} holds {0, 1}: pruned
    assert goal(level) == (None, [0b1100000])


def test_counter_8_builds_the_byte_tables_once():
    # its narrow levels are dense, so they run on the tables once enough
    # masks are expanded; the answer does not change
    ci = debruijn_counter(8)
    search._reset_search.cache_clear()  # measure a search, not a cache hit
    with mock.patch.object(search, "_byte_tables", wraps=search._byte_tables) as tables:
        res = shortest_subset_reset(ci.automaton, ci.subset)
    assert tables.call_count == 1
    assert (res.length, res.explored, res.witness) == (1021, 3006, counting_word(8))


def _driver(a, careful, goal, bits):
    """(status, word, explored) of the driver from all of a's states, with
    the mask-indexed visited table allowed (`bits` = n) or not (None),
    the status None when exhausted."""
    res = search._bfs((1 << a.n) - 1, _images(a, careful), goal, search.DEFAULT_BUDGET,
                      search._node_bytes(a.n), None, bits)
    return res.status, res.witness, res.explored


def _cerny_with_partial_letter(n):
    """Cerny n with a third letter, undefined on state 0 and the identity
    elsewhere: careful images of the sets that hold 0 are empty, no edge."""
    table = [[next(iter(cell)) for cell in row] + [None if s == 0 else s]
             for s, row in enumerate(cerny(n).automaton.delta)]
    return pfa_from_table(table, "abc")


@pytest.mark.parametrize("a, careful", [(cerny(13).automaton, False),
                                        (cerny(14).automaton, False),
                                        (_cerny_with_partial_letter(13), True)])
def test_visited_table_changes_no_answer(a, careful):
    # every search discovers more than 4,096 sets, so with bits = n the
    # driver switches to the table part way through
    runs = [_driver(a, careful, search._pair_goal(a.n), bits) for bits in (None, a.n)]
    assert runs[0] == runs[1]
    assert runs[0][0] == FOUND and runs[0][2] > 4096


def test_visited_table_changes_no_exhaustive_search():
    # the traversal of relevant_part: every set reachable from all states
    a = cerny(14).automaton
    runs = [_driver(a, True, lambda fresh: (None, fresh), bits) for bits in (None, 14)]
    assert runs[0] == runs[1] == (None, None, 2 ** 14 - 1)
    assert relevant_part(a, a.states)[0] == frozenset(a.states)


def _cerny_word(n):
    """The shortest reset word of Cerny n, b (a^(n-1) b)^(n-2)."""
    return (1,) + ((0,) * (n - 1) + (1,)) * (n - 2)


CERNY_14_WITNESS = _cerny_word(14)


def test_cerny_14_is_pinned_past_the_switch():
    res = shortest_reset(cerny(14).automaton)
    assert (res.length, res.explored) == (169, 16370)
    assert res.witness == CERNY_14_WITNESS


def test_cerny_18_is_pinned():
    # 262,126 sets in 289 levels, most of them on byte-sliced levels
    res = shortest_reset(cerny(18).automaton)
    assert (res.length, res.explored, res.witness) == (289, 262_126, _cerny_word(18))


def _cerny_14_in_100_states(partial):
    """Cerny 14 on 14 of 100 states spread over 9 bytes, and the states
    the search starts from.  The other states loop on every letter, or
    with `partial` have no transitions, and a third letter is undefined
    on Cerny's state 0 and the identity elsewhere."""
    spots = sorted(random.Random(1).sample(range(100), 14))
    table = [[None] * 3 if partial else [s, s] for s in range(100)]
    for s, row in enumerate(cerny(14).automaton.delta):
        table[spots[s]] = [spots[next(iter(cell))] for cell in row]
        if partial:
            table[spots[s]].append(None if s == 0 else spots[s])
    return (pfa_from_table(table, "abc") if partial else dfa_from_table(table, "ab")), spots


@pytest.mark.parametrize("partial", [False, True])
def test_wide_search_past_64_states_is_never_sliced(partial):
    # masks wider than a machine word are never byte-sliced, whether every
    # letter is total or the careful rule meets letters undefined on every
    # byte's states: every level runs one mask at a time, and the answer
    # does not change
    a, spots = _cerny_14_in_100_states(partial)
    search._reset_search.cache_clear()  # measure a search, not a cache hit
    with mock.patch.object(search, "_slice_tables", wraps=search._slice_tables) as slices:
        res = shortest_subset_reset(a, spots)
    assert slices.call_count == 0
    assert (res.length, res.explored, res.witness) == (169, 16370, CERNY_14_WITNESS)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relabeled_cerny_14_keeps_length_witness_and_count(seed):
    # a relabeling moves every mask's bits, in the bit loop and in the byte
    # tables, but changes neither the answer nor the sets discovered
    base = cerny(14).automaton
    perm = list(range(14))
    random.Random(seed).shuffle(perm)
    table = [[0, 0] for _ in range(14)]
    for s, row in enumerate(base.delta):
        for x, (t,) in enumerate(row):
            table[perm[s]][x] = perm[t]
    res = shortest_reset(dfa_from_table(table, base.alphabet.symbols))
    assert (res.length, res.explored) == (169, 16370)
    assert res.witness == CERNY_14_WITNESS


def test_node_cap_is_exact_past_the_switch():
    res = shortest_reset(cerny(14).automaton, SearchBudget(max_nodes=10_000))
    assert (res.status, res.explored) == (BUDGET_EXCEEDED, 10_000)


def test_wide_search_memory_stays_small():
    # Cerny 16 and 18 discover 65,520 and 262,126 sets; past the switch
    # each expanded set keeps a 4-byte position (signed 32 bits hold any
    # position of a level that fits in memory), and the visited table takes
    # 64 and 256 KiB.  Cerny 18 peaks near 1.9 MiB; its bound fails with
    # 8-byte positions, which peak at 2.45 MiB.
    for n, length, explored, bound in [(16, 225, 65520, 3 << 20),
                                       (18, 289, 262126, 2.2 * 2 ** 20)]:
        a = cerny(n).automaton
        search._reset_search.cache_clear()  # measure a search, not a cache hit
        tracemalloc.start()
        try:
            res = shortest_reset(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.length, res.explored) == (length, explored)
        assert peak < bound, n


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([random_dfa, random_pfa]), st.integers(1, 9),
       st.integers(1, 3), st.randoms(use_true_random=False))
def test_pair_pruning_keeps_reset_answers(sample, n, k, rng):
    # classic, careful and subset searches against the power-set distances,
    # blind and non-synchronizing instances included; pruning only lowers
    # `explored` below the unpruned driver's
    a = sample(rng, n, k)
    answer = _power_set_oracle(a)
    full = (1 << n) - 1
    cases = [(shortest_careful_reset(a), full, NOT_SYNCHRONIZING)]
    if a.kind == "dfa":
        cases.append((shortest_reset(a), full, NOT_SYNCHRONIZING))
    for _ in range(4):
        subset = random_subset(rng, n)
        cases.append((shortest_subset_reset(a, subset), mask_of(subset), BLIND))
    for res, start, negative in cases:
        assert _engine_answer(res) == answer(start, negative)
        assert res.explored <= _unpruned(a, start, True)[3]


def _power_set_oracle(a):
    """The shortest careful reset words of a dfa/pfa from exact distances
    over the whole power set; shares no code with the engine's kernel,
    driver or word oracle.  `answer(start, negative)` gives (status,
    length, witness) for mask `start`.

    img[x][t], the x-image of t, comes from img[x][t ^ b] | col[x][b] with
    b the lowest bit of t, and is 0 where x is undefined on a state of t.
    One BFS runs back from the singletons along the edges out of sets of
    two or more states, so dist[t] is t's exact careful reset length, -1
    when t is blind.  Taking from t the least letter that lowers the
    distance by one spells the lex-least shortest word."""
    n, k = a.n, len(a.alphabet)
    size = 1 << n
    img = []
    for x in range(k):
        col = [sum(1 << q for q in a.delta[s][x]) for s in range(n)]
        undefined = sum(1 << s for s in range(n) if not a.delta[s][x])
        images = [0] * size
        for t in range(1, size):
            b = t & -t
            images[t] = images[t ^ b] | col[b.bit_length() - 1]
        img.append([0 if t & undefined else u for t, u in enumerate(images)])
    preds = [[] for _ in range(size)]
    for t in range(size):
        if t & (t - 1):  # two or more states
            for x in range(k):
                if img[x][t]:
                    preds[img[x][t]].append(t)
    dist = [-1] * size
    queue = [1 << s for s in range(n)]
    for t in queue:
        dist[t] = 0
    for t in queue:  # grows as it is read: a breadth-first search
        for p in preds[t]:
            if dist[p] < 0:
                dist[p] = dist[t] + 1
                queue.append(p)

    def answer(start, negative):
        if dist[start] < 0:
            return negative, None, None
        word = []
        t = start
        while dist[t]:
            x = next(x for x in range(k) if img[x][t] and dist[img[x][t]] == dist[t] - 1)
            word.append(x)
            t = img[x][t]
        return FOUND, len(word), tuple(word)

    return answer


def _engine_answer(res):
    return res.status, res.length, res.witness


def test_power_set_distances_agree_on_every_subset_of_cerny_10():
    # 1,023 subset searches, the longest word 81 letters: pair pruning on
    # words far longer than the brute-force oracle reaches
    a = cerny(10).automaton
    answer = _power_set_oracle(a)
    lengths = set()
    for start in range(1, 1 << a.n):
        subset = [s for s in range(a.n) if start >> s & 1]
        res = shortest_subset_reset(a, subset)
        assert _engine_answer(res) == answer(start, BLIND), subset
        lengths.add(res.length)
    assert max(lengths) == 81


def test_power_set_distances_agree_on_wide_careful_levels():
    # Cerny 13 with a letter undefined on one state: its careful searches
    # have wide levels, which run one mask at a time
    a = _cerny_with_partial_letter(13)
    answer = _power_set_oracle(a)
    assert (_engine_answer(shortest_careful_reset(a))
            == answer((1 << a.n) - 1, NOT_SYNCHRONIZING))
    rng = random.Random(13)
    for _ in range(20):
        subset = random_subset(rng, a.n)
        assert (_engine_answer(shortest_subset_reset(a, subset))
                == answer(mask_of(subset), BLIND)), sorted(subset)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([random_dfa, random_pfa]), st.integers(1, 7),
       st.integers(1, 3), st.randoms(use_true_random=False))
def test_power_set_distances_agree_on_every_subset(sample, n, k, rng):
    a = sample(rng, n, k)
    answer = _power_set_oracle(a)
    full = (1 << n) - 1
    assert _engine_answer(shortest_careful_reset(a)) == answer(full, NOT_SYNCHRONIZING)
    if a.kind == "dfa":
        assert _engine_answer(shortest_reset(a)) == answer(full, NOT_SYNCHRONIZING)
    for start in range(1, full + 1):
        subset = [s for s in range(n) if start >> s & 1]
        assert _engine_answer(shortest_subset_reset(a, subset)) == answer(start, BLIND), subset


def test_careful_requires_total_letter():
    # no letter is defined on both states, so nothing careful can start
    a = pfa_from_table([[0, None], [None, 1]], "ab")
    assert shortest_careful_reset(a).status == NOT_SYNCHRONIZING


def test_careful_upper_bound_on_random_instances():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(2, 7)
        a, res = random_carefully_synchronizing_pfa(rng, n, rng.randint(2, 3))
        assert res == shortest_careful_reset(a)
        assert res.found
        assert res.length <= 2 ** n - n - 1
        image = replay(a, a.states, res.witness)
        assert image is not None and len(image) == 1


def test_replay_is_careful_and_checks_range():
    a = pfa_from_table([[1, 0], [None, 0]], "ab")
    assert replay(a, {0, 1}, [1]) == frozenset({0})
    assert replay(a, {0, 1}, [0]) is None  # a is undefined on state 1
    assert replay(a, {0}, [0, 1]) == frozenset({0})
    for word in ([-1], [2]):
        with pytest.raises(IndexError):
            replay(a, {0, 1}, word)
    for start in ({-1}, {2}):
        with pytest.raises(IndexError):
            replay(a, start, [1])


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([random_dfa, random_pfa, random_nfa]), st.integers(1, 9),
       st.integers(1, 3), st.randoms(use_true_random=False))
def test_replay_agrees_with_run(sample, n, k, rng):
    # replay is run with the careful rule: None exactly when some letter
    # meets a state it is undefined on
    a = sample(rng, n, k)
    start = random_subset(rng, n)
    word = [rng.randrange(k) for _ in range(rng.randrange(12))]
    image = replay(a, start, word)
    current = frozenset(start)
    for x in word:
        if any(not a.delta[s][x] for s in current):
            assert image is None
            return
        current = run(a, current, [x])
    assert image == current == run(a, start, word)


def test_replay_of_the_counter_witness():
    ci = debruijn_counter(8)
    image = replay(ci.automaton, ci.subset, counting_word(8))
    assert image == run(ci.automaton, ci.subset, counting_word(8))
    assert len(image) == 1


def test_singleton_subset_is_trivial():
    a = dfa_from_table([[1], [0]], "a")
    res = shortest_subset_reset(a, {1})
    assert (res.status, res.length, res.witness) == (FOUND, 0, ())
    assert not is_blind(a, {1})


def test_subset_reset_blind_on_permutation():
    a = dfa_from_table([[1, 0], [0, 1]], "ab")
    res = shortest_subset_reset(a, {0, 1})
    assert res.status == BLIND
    assert is_blind(a, {0, 1})


def test_is_blind_budget_is_an_error():
    ci = debruijn_counter(4)
    with pytest.raises(BudgetExceededError):
        is_blind(ci.automaton, ci.subset, SearchBudget(max_nodes=5))


@pytest.mark.parametrize("site, cap", [
    (lambda ci, b: is_blind(ci.automaton, ci.subset, b), 100),
    (lambda ci, b: relevant_part(ci.automaton, ci.subset, b), 100),
    (lambda ci, b: check_transversal_partition(ci.automaton, ci.subset,
                                               ci.instance.partition, b), 50),
    (lambda ci, b: count_shortest_reset_words(ci.automaton, ci.subset, b), 945),
    (lambda ci, b: random_synchronizable_subset_dfa(random.Random(7), 6, 2, b), 2),
    (lambda ci, b: random_careful_subset_pfa(random.Random(7), 6, 2, b), 2),
    (lambda ci, b: random_carefully_synchronizing_pfa(random.Random(7), 6, 2, b), 2),
    (lambda ci, b: run_reduction("binarize", ci.instance, b), 100),
], ids=["is-blind", "relevant-part", "transversal", "word-counting", "subset-dfa",
        "subset-pfa", "careful-pfa", "run-reduction"])
def test_budget_stops_raise_naming_the_cap(site, cap):
    # each library site turns a stopped search into the error of
    # `SearchResult.decided`; the caps are exact, so the count it names is
    # the cap given
    with pytest.raises(BudgetExceededError,
                       match=f"undecided within budget after {cap} nodes$"):
        site(debruijn_counter(4), SearchBudget(max_nodes=cap))


def test_decided_returns_a_decided_result_itself():
    for res in (shortest_reset(cerny(3).automaton),
                shortest_subset_reset(dfa_from_table([[1, 0], [0, 1]], "ab"), {0, 1}),
                shortest_reset(dfa_from_table([[0], [1]], "a"))):
        assert res.status != BUDGET_EXCEEDED
        assert res.decided("the search") is res
    res = shortest_reset(cerny(6).automaton, SearchBudget(max_nodes=3))
    with pytest.raises(BudgetExceededError,
                       match="^the search undecided within budget after 3 nodes$"):
        res.decided("the search")


def test_equal_automata_share_one_cached_search():
    # the cache keys on equality, so a parsed copy finds the search made
    # on the original
    inst = debruijn_counter(2).instance
    copy = parse(serialize(inst))
    assert copy.automaton is not inst.automaton and copy.automaton == inst.automaton
    first = shortest_subset_reset(inst.automaton, inst.subset)
    assert shortest_subset_reset(copy.automaton, copy.subset) is first
    assert shortest_word(copy.automaton, copy.subset, SUBSET) is first


def test_a_different_budget_or_mode_is_a_different_search():
    # a dfa's classic and careful searches are one search, since every
    # letter is total; the subset of all states is another, because its
    # negative is BLIND, not NOT_SYNCHRONIZING
    a = cerny(5).automaton
    info = search._reset_search.cache_info
    search._reset_search.cache_clear()
    classic = shortest_reset(a)
    others = (shortest_reset(a, SearchBudget(max_nodes=1000)),
              shortest_subset_reset(a, a.states))
    assert (info().misses, info().hits) == (3, 0)
    assert all(res == classic and res is not classic for res in others)
    assert shortest_careful_reset(a) is classic
    assert shortest_reset(a) is classic
    assert (info().misses, info().hits) == (3, 2)


def test_a_cached_budget_stop_still_decides_nothing():
    a = cerny(6).automaton
    budget = SearchBudget(max_nodes=3)
    stopped = shortest_reset(a, budget)
    for _ in range(2):
        res = shortest_reset(a, budget)
        assert res is stopped and res.status == BUDGET_EXCEEDED
        with pytest.raises(BudgetExceededError, match="after 3 nodes$"):
            res.decided("the search")


def test_synchronizing_dfa_has_no_blind_subsets():
    rng = random.Random(9)
    hits = 0
    while hits < 10:
        a = random_dfa(rng, rng.randint(2, 6), 2)
        if not shortest_reset(a).found:
            continue
        hits += 1
        s = random_subset(rng, a.n)
        assert not is_blind(a, s)


def test_factor_property_for_full_state_set():
    rng = random.Random(21)
    hits = 0
    while hits < 10:
        a = random_dfa(rng, rng.randint(2, 5), 2)
        res = shortest_reset(a)
        if not res.found:
            continue
        hits += 1
        u = tuple(rng.randrange(2) for _ in range(3))
        v = tuple(rng.randrange(2) for _ in range(3))
        assert len(run(a, a.states, u + res.witness + v)) == 1


def test_factor_property_fails_for_proper_subsets():
    # frozen counterexample: w resets S but prefixing a letter breaks it
    a = dfa_from_table([[3, 3], [0, 2], [3, 3], [2, 3]], "ab")
    s = frozenset({1, 3})
    w = (0, 0)
    assert len(run(a, s, w)) == 1
    assert len(run(a, s, (1,) + w)) > 1


def test_witness_is_lexicographically_least():
    rng = random.Random(33)
    checked = 0
    while checked < 40:
        a = random_dfa(rng, rng.randint(2, 5), rng.randint(2, 3))
        s = random_subset(rng, a.n)
        res = shortest_subset_reset(a, s)
        oracle = brute_force_oracle(a, s, "subset", 10)
        if res.found and res.length <= 10:
            assert oracle.witness == res.witness
            checked += 1
        else:
            assert oracle.status == NOT_SYNCHRONIZING
            checked += 1


def test_count_shortest_reset_words():
    from syncwords.search import count_shortest_reset_words
    a = dfa_from_table([[1, 0], [0, 1]], "ab")
    assert count_shortest_reset_words(a, {0, 1}) is None  # blind
    assert count_shortest_reset_words(a, {0}) == (0, 1)
    both = dfa_from_table([[1, 1], [1, 1]], "ab")  # a and b both merge
    assert count_shortest_reset_words(both, {0, 1}) == (1, 2)
    for m in (2, 4):
        ci = debruijn_counter(m)
        length, count = count_shortest_reset_words(ci.automaton, ci.subset)
        assert (length, count) == ((2 ** m - 1) * (ci.k + 1) + 1, 1)


@pytest.mark.parametrize("budget", [SearchBudget(max_nodes=200),
                                    SearchBudget(max_memory=200 * search._node_bytes(25))],
                         ids=["nodes", "memory"])
def test_word_counting_respects_the_caps(budget):
    # the pruned search fits in 200 sets; the count's unpruned levels hold
    # 946 up to the first singleton
    ci = debruijn_counter(4)
    assert shortest_subset_reset(ci.automaton, ci.subset, budget).explored == 148
    with pytest.raises(BudgetExceededError, match="word counting"):
        count_shortest_reset_words(ci.automaton, ci.subset, budget)


def test_word_counting_walks_each_set_once():
    # the count walks the unpruned search's levels, each set once: 946 sets
    # up to the first singleton, the start included, not 31,317; its cap is
    # counted as the search's `explored`, so 946 is the least that suffices
    ci = debruijn_counter(4)
    budget = SearchBudget(max_nodes=946)
    assert count_shortest_reset_words(ci.automaton, ci.subset, budget) == (46, 1)
    with pytest.raises(BudgetExceededError, match="after 945 nodes"):
        count_shortest_reset_words(ci.automaton, ci.subset, SearchBudget(max_nodes=945))


def test_count_agrees_with_oracle():
    # oracle-side count: enumerate all words of the shortest length
    from itertools import product as iproduct
    from syncwords.search import count_shortest_reset_words
    rng = random.Random(123)
    checked = 0
    while checked < 15:
        a = random_dfa(rng, rng.randint(2, 5), 2)
        s = random_subset(rng, a.n)
        got = count_shortest_reset_words(a, s)
        if got is None or got[0] > 7:
            continue
        length, count = got
        brute = sum(1 for w in iproduct(range(2), repeat=length)
                    if len(run(a, s, w)) == 1)
        assert brute == count
        checked += 1


def test_careful_count_agrees_with_brute_force():
    # pfa: every word up to the shortest length, applied by `replay` under
    # the careful rule; none shorter resets the subset
    from itertools import product as iproduct
    rng = random.Random(321)
    checked = 0
    while checked < 15:
        a = random_pfa(rng, rng.randint(2, 5), rng.randint(2, 3))
        s = random_subset(rng, a.n)
        got = count_shortest_reset_words(a, s)
        if got is None:
            assert shortest_subset_reset(a, s).status == BLIND
            continue
        if got[0] > 6:
            continue
        length, count = got
        letters = range(len(a.alphabet))
        brute = [sum(1 for w in iproduct(letters, repeat=j)
                     if len(replay(a, s, w) or ()) == 1) for j in range(length + 1)]
        assert brute == [0] * length + [count]
        checked += 1


# --- relevant part ------------------------------------------------------------


def test_relevant_part_memory_stays_small():
    # all 16,383 sets of Cerny 14 are reachable; their predecessors are
    # recorded as each level is expanded, and no level's images are kept
    a = cerny(14).automaton
    tracemalloc.start()
    try:
        states, _ = relevant_part(a, a.states)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert states == frozenset(a.states)
    assert peak < 3.5 * 2 ** 20


def test_relevant_part_singleton():
    a = dfa_from_table([[0]], "a")
    qrel, sub = relevant_part(a, {0})
    assert qrel == frozenset({0})
    assert sub.n == 1


def test_relevant_part_blind_raises():
    a = dfa_from_table([[1, 0], [0, 1]], "ab")
    with pytest.raises(BlindSubsetError):
        relevant_part(a, {0, 1})


def test_relevant_part_counter_m2():
    # frozen by exact search: three marker states are never active, plus the trap
    ci = debruijn_counter(2)
    qrel, sub = relevant_part(ci.automaton, ci.subset)
    assert qrel == frozenset({0, 1, 2, 3, 5, 7, 9, 10, 11, 12})
    labels = {ci.automaton.label(s) for s in range(ci.automaton.n) if s not in qrel}
    assert labels == {"(0,1↑)", "(1,0↓)", "(1,1↓)", "Dx"}
    assert ci.trap not in qrel
    assert ci.subset <= qrel


def test_relevant_part_restriction_stays_inside():
    rng = random.Random(41)
    for _ in range(10):
        a, s, _ = random_careful_subset_pfa(rng, 5, 2)
        qrel, sub = relevant_part(a, s)
        order = sorted(qrel)
        for row in sub.delta:
            for cell in row:
                assert all(0 <= t < sub.n for t in cell)
        # searching inside the restriction gives the same length
        index = {orig: i for i, orig in enumerate(order)}
        res_full = shortest_subset_reset(a, s)
        res_sub = shortest_subset_reset(sub, {index[t] for t in s})
        assert res_full.length == res_sub.length


# --- swap congruences ----------------------------------------------------------


def test_swap_congruence_singletons():
    a = dfa_from_table([[1, 0], [0, 1]], "ab")
    assert is_swap_congruence(a, [{0}, {1}])


def test_swap_congruence_rejects_merging():
    a = dfa_from_table([[1, 1], [1, 0]], "ab")  # both states map to 1 under a
    assert not is_swap_congruence(a, [{0, 1}])


def test_swap_congruence_rejects_a_split_block():
    # a maps 0 and 1 to distinct states, but in two blocks
    a = dfa_from_table([[0], [2], [1], [3]], "a")
    assert not is_swap_congruence(a, [{0, 1}, {2, 3}])
    assert is_swap_congruence(a, [{0, 3}, {1, 2}])


def test_swap_congruence_requires_partition():
    a = dfa_from_table([[1, 0], [0, 1]], "ab")
    with pytest.raises(ValueError):
        is_swap_congruence(a, [{0}])
    with pytest.raises(ValueError):
        is_swap_congruence(a, [{0, 1}, {1}])


def test_swap_congruence_blindness():
    # doubled states stay distinct forever, so pairs in one class are blind
    rng = random.Random(55)
    from syncwords.reduce import swap_doubling
    from syncwords.sampling import random_connectable_pairs
    hits = 0
    while hits < 8:
        a, s, _ = random_synchronizable_subset_dfa(rng, rng.randint(2, 5), 2)
        pairs = random_connectable_pairs(rng, a, min_arcs=2)
        doubled = swap_doubling(a, s, pairs)
        assert is_swap_congruence(doubled.automaton, doubled.partition)
        state = rng.randrange(a.n)
        assert is_blind(doubled.automaton, {state, state + a.n})
        hits += 1


# --- transversal partitions -----------------------------------------------------


def test_transversal_on_counter():
    for m in (2, 4):
        ci = debruijn_counter(m)
        assert check_transversal_partition(
            ci.automaton, ci.subset, ci.instance.partition) is None


def test_transversal_violation_on_merged_blocks():
    ci = debruijn_counter(2)
    blocks = list(ci.instance.partition)
    merged = (blocks[0] | blocks[1],) + tuple(blocks[2:])
    with pytest.raises(ValueError):
        # block count no longer matches the subset size
        check_transversal_partition(ci.automaton, ci.subset, merged)
    # same block count but wrong split: move a switch state between rows
    b0 = set(blocks[0]); b1 = set(blocks[1])
    b1_member = min(b1)
    b0.add(b1_member); b1.remove(b1_member)
    bad = (frozenset(b0), frozenset(b1)) + tuple(blocks[2:])
    violation = check_transversal_partition(ci.automaton, ci.subset, bad)
    assert violation is not None
    image = run(ci.automaton, ci.subset, violation.word)
    assert image == violation.subset


def test_transversal_singleton_subset():
    a = pfa_from_table([[1, None], [1, 0]], "ab")
    qrel, _ = relevant_part(a, {0})
    assert check_transversal_partition(a, {0}, (qrel,)) is None
    # a singleton's images stay singletons: nothing is traversed, so one
    # node fits the budget
    assert check_transversal_partition(a, {0}, (qrel,), SearchBudget(max_nodes=1)) is None
    # the start alone is over a memory cap below one node's estimate
    with pytest.raises(BudgetExceededError):
        check_transversal_partition(a, {0}, (qrel,), SearchBudget(max_memory=1))


def test_transversal_blind_raises():
    a = dfa_from_table([[1, 0], [0, 1]], "ab")
    with pytest.raises(BlindSubsetError):
        check_transversal_partition(a, {0, 1}, ({0}, {1}))


# --- directing words ------------------------------------------------------------


def test_directing_one_state():
    a = nfa_from_sets([[{0}]], "a")
    for mode in ("d1", "d2", "d3"):
        res = directing_word(a, mode)
        assert (res.status, res.length) == (FOUND, 0)


def test_directing_rejects_bad_mode():
    a = nfa_from_sets([[{0}]], "a")
    with pytest.raises(ValueError):
        directing_word(a, "d4")


def test_d2_accepts_killing_everything():
    a = pfa_from_table([[None, 1], [None, 0]], "ab")
    res = directing_word(a, "d2")
    assert res.found and res.length == 1 and res.witness == (0,)


def test_pfa_modes_match_careful():
    rng = random.Random(77)
    for _ in range(20):
        a, car = random_carefully_synchronizing_pfa(rng, rng.randint(2, 6), 2)
        d1 = directing_word(a, "d1")
        d2 = directing_word(a, "d2")
        d3 = directing_word(a, "d3")
        assert d1.length == d3.length == car.length
        assert d2.found and d2.length <= d1.length


def test_directing_against_oracle():
    rng = random.Random(99)
    for _ in range(25):
        a = random_nfa(rng, rng.randint(2, 5), 2)
        for mode in ("d1", "d2", "d3"):
            res = directing_word(a, mode)
            oracle = brute_force_oracle(a, None, mode, 8)
            if res.found and res.length <= 8:
                assert (oracle.status, oracle.length) == (FOUND, res.length)
                assert oracle.witness == res.witness
            else:
                assert oracle.status == NOT_SYNCHRONIZING


# --- oracle ----------------------------------------------------------------------


def test_oracle_trivial_cases():
    a = dfa_from_table([[1], [1]], "a")
    res = brute_force_oracle(a, {1}, "subset", 5)
    assert (res.status, res.length) == (FOUND, 0)
    assert brute_force_oracle(a, None, "classic", 5).length == 1


def test_oracle_cerny3():
    assert brute_force_oracle(cerny(3).automaton, None, "classic", 10).length == 4


def test_oracle_respects_max_len():
    a = cerny(4).automaton
    assert brute_force_oracle(a, None, "classic", 8).status == NOT_SYNCHRONIZING
    assert brute_force_oracle(a, None, "classic", 9).length == 9


_PFA3 = pfa_from_table([[0, 3, 0], [4, None, 0], [4, 1, 2], [0, 2, 1], [2, 2, 4]], "abc")
_NFA3 = nfa_from_sets([[{0, 3}, (), {0, 1}], [{1}, {0, 3}, {0}],
                       [{0, 2, 3}, {2, 3}, {0, 2, 3}], [{3}, {2}, ()]], "abc")
_NFA_D1 = nfa_from_sets([[{0}, {0}, {1}], [(), {2}, ()], [{0, 2}, {0, 1, 2}, {0, 1}]],
                        "abc")
# careful and subset searches of _PFA_BLIND find nothing; neither does d3
# on _NFA_D3_NONE.  _PFA_LATE's careful word ends in c on a set where a and
# b are both undefined, so the last word counts 1 letter, not 3.
_PFA_BLIND = pfa_from_table([[2, 1, 1], [0, 2, 2], [1, None, 0]], "abc")
_PFA_LATE = pfa_from_table([[None, 4, 3], [4, 4, 2], [0, None, 3], [0, 1, 1], [2, 1, 1]],
                           "abc")
_NFA_D3_NONE = nfa_from_sets([[{3}, {3}], [{0, 3}, {1, 2, 3}], [{2, 3}, ()], [(), {2}]], "ab")
# b empties every set: classic mode tests and counts that empty image but
# does not extend it, so each length holds one word and counts two
_NFA_EMPTIES = nfa_from_sets([[{0, 1}, ()], [{0, 1}, ()]], "ab")
_NFA_ONE = nfa_from_sets([[{0}]], "a")
# The oracle keeps a level one byte per word while it has numbered at most
# 256 nodes: _DFA_289 numbers 289 masks in classic mode and steps its levels
# from length 8 on as lists, _NFA_309 numbers 309 nodes from length 6 on
# while d1 stays undecided over all 88,572 words.
_DFA_289 = dfa_from_table([[8, 7, 5], [3, 4, 0], [3, 5, 5], [6, 3, 2], [5, 0, 6], [4, 8, 4],
                           [7, 6, 8], [6, 2, 1], [2, 5, 7]], "abc")
_NFA_309 = nfa_from_sets([[{3, 4, 5}, {1, 3}, {0, 1, 4}], [{0, 1, 3}, {0, 4}, {3}],
                          [{5}, {4, 5}, {0}], [{3}, {1, 2, 3}, {5}], [{2, 4}, {5}, {1, 2}],
                          [{1, 2, 3}, {5}, {1, 2}]], "abc")

# (automaton, subset, mode, max_len) -> (status, length, witness, explored);
# the careful pfa cases skip prefixes (226 words tested, not the 363 of all
# shorter words), d1 on _NFA3 tests all 3 + 9 + ... + 729 words, and d1 on
# _NFA_D1 hits at index 150 of its 243 words of length 5 (3 + ... + 81 + 151);
# at max_len 4 d1 stays undecided on both _NFA_D1 and _NFA_D3_NONE, while
# d2 hits on an earlier level or on the last one
ORACLE_PINS = [
    ((cerny(4).automaton, None, "classic", 10), (FOUND, 9, (1, 0, 0, 0, 1, 0, 0, 0, 1), 784)),
    ((cerny(4).automaton, None, "classic", 8), (NOT_SYNCHRONIZING, None, None, 510)),
    ((_PFA3, None, "careful", 10), (FOUND, 6, (0, 1, 0, 1, 1, 0), 226)),
    ((_PFA3, {0, 1, 2, 3}, "subset", 10), (FOUND, 4, (0, 1, 1, 0), 34)),
    ((_NFA3, None, "d1", 6), (NOT_SYNCHRONIZING, None, None, 1092)),
    ((_NFA3, None, "d2", 6), (FOUND, 4, (0, 1, 1, 0), 52)),
    ((_NFA3, None, "d3", 6), (FOUND, 3, (0, 1, 0), 16)),
    ((_NFA_D1, None, "d1", 6), (FOUND, 5, (1, 2, 1, 2, 0), 271)),
    ((_NFA_D1, None, "d2", 6), (FOUND, 3, (2, 2, 0), 37)),
    ((_NFA_D1, None, "d3", 6), (FOUND, 2, (1, 0), 7)),
    ((_NFA_D1, None, "d1", 4), (NOT_SYNCHRONIZING, None, None, 120)),
    ((_NFA_D1, None, "d2", 4), (FOUND, 3, (2, 2, 0), 37)),
    ((_NFA_D1, None, "d3", 4), (FOUND, 2, (1, 0), 7)),
    ((_PFA_BLIND, None, "careful", 5), (NOT_SYNCHRONIZING, None, None, 62)),
    ((_PFA_BLIND, {0, 1}, "subset", 5), (NOT_SYNCHRONIZING, None, None, 135)),
    ((_NFA_D3_NONE, None, "d1", 6), (NOT_SYNCHRONIZING, None, None, 126)),
    ((_NFA_D3_NONE, None, "d2", 6), (FOUND, 4, (0, 0, 1, 1), 18)),
    ((_NFA_D3_NONE, None, "d3", 6), (NOT_SYNCHRONIZING, None, None, 126)),
    ((_NFA_D3_NONE, None, "d1", 4), (NOT_SYNCHRONIZING, None, None, 30)),
    ((_NFA_D3_NONE, None, "d2", 4), (FOUND, 4, (0, 0, 1, 1), 18)),
    ((_NFA_D3_NONE, None, "d3", 4), (NOT_SYNCHRONIZING, None, None, 30)),
    ((_PFA_LATE, None, "careful", 10), (FOUND, 6, (2, 0, 1, 0, 0, 2), 42)),
    ((_NFA_EMPTIES, None, "classic", 4), (NOT_SYNCHRONIZING, None, None, 8)),
    ((cerny(4).automaton, None, "classic", 0), (NOT_SYNCHRONIZING, None, None, 0)),
    ((cerny(4).automaton, None, "d2", 0), (NOT_SYNCHRONIZING, None, None, 0)),
    ((_NFA_ONE, None, "d1", 3), (FOUND, 0, (), 1)),
    ((_DFA_289, None, "classic", 10), (FOUND, 9, (0, 1, 2, 1, 2, 1, 1, 1, 1), 13931)),
    ((_NFA_309, None, "d1", 10), (NOT_SYNCHRONIZING, None, None, 88572)),
]


def _oracle_answers():
    return [(r.status, r.length, r.witness, r.explored)
            for r in (brute_force_oracle(*args) for args, _ in ORACLE_PINS)]


def test_oracle_counts_are_pinned():
    search._directing_oracle.cache_clear()  # enumerate, not read an earlier test's answer
    assert _oracle_answers() == [pin for _, pin in ORACLE_PINS]


def test_one_enumeration_answers_all_three_directing_modes():
    # the first call enumerates until d1 is decided; the others read its
    # answers, each the one a run of its mode alone would give
    search._directing_oracle.cache_clear()
    with mock.patch.object(search, "_word_levels", wraps=search._word_levels) as levels:
        answers = [brute_force_oracle(_NFA_D1, None, mode, 6) for mode in (D3, D2, D1)]
        again = brute_force_oracle(_NFA_D1, None, D2, 6)
    assert levels.call_count == 1
    assert [(r.length, r.witness, r.explored) for r in answers] == \
        [(2, (1, 0), 7), (3, (2, 2, 0), 37), (5, (1, 2, 1, 2, 0), 271)]
    assert again is answers[1]
    assert len({r.elapsed for r in answers}) == 1  # the shared enumeration's time


def test_oracle_is_independent_of_the_engine(monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("the oracle called the engine")

    for name in ("transition_masks", "_images", "_bfs", "directing_word", "_first_hit",
                 "_reset_search", "_pair_goal", "_byte_tables", "_slice_tables"):
        monkeypatch.setattr(search, name, broken)
    search._directing_oracle.cache_clear()  # enumerate, not read an earlier test's answer
    assert _oracle_answers() == [pin for _, pin in ORACLE_PINS]


# the modes each kind of automaton is searched in; classic needs a dfa,
# careful and subset a dfa or pfa, and the engine rejects the rest
_KIND_MODES = {"dfa": search.MODES, "pfa": (CAREFUL, SUBSET, D1, D2, D3),
               "nfa": (D1, D2, D3)}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([random_dfa, random_pfa, random_nfa]), st.integers(1, 9),
       st.integers(1, 3), st.randoms(use_true_random=False))
# the oracle numbers more than 256 masks in classic mode (from length 8 on)
# and in subset mode (from length 7 on): few random draws get there
@example(random_dfa, 9, 3, random.Random(1934))
def test_engine_agrees_with_the_oracle(sample, n, k, rng):
    # the driver's lex order and parent walk against a search that shares
    # no code with it, in all six modes
    a = sample(rng, n, k)
    subset = random_subset(rng, n)
    for mode in search.MODES:
        if mode not in _KIND_MODES[a.kind]:
            with pytest.raises(ValueError):
                shortest_word(a, subset, mode)
            continue
        res = shortest_word(a, subset, mode)
        oracle = brute_force_oracle(a, subset, mode, 10)
        if res.found and res.length <= 10:
            assert (oracle.status, oracle.length, oracle.witness) == \
                (FOUND, res.length, res.witness)
        else:  # a negative, or a word longer than the oracle looks
            assert res.status != BUDGET_EXCEEDED
            assert oracle.status == NOT_SYNCHRONIZING


@pytest.mark.parametrize("args, pin", ORACLE_PINS)
def test_shortest_word_agrees_with_the_oracle(args, pin):
    a, subset, mode, max_len = args
    status, length, witness, _ = pin
    if mode not in _KIND_MODES[a.kind]:  # the oracle also answers what the engine rejects
        with pytest.raises(ValueError):
            shortest_word(a, subset, mode)
        return
    res = shortest_word(a, subset, mode)
    if status == FOUND:
        assert (res.status, res.length, res.witness) == (FOUND, length, witness)
    else:  # no word within max_len
        assert not res.found or res.length > max_len


def test_shortest_word_rejects_what_the_oracle_rejects():
    a = dfa_from_table([[1, 0], [1, 1]], "ab")
    for ask in (lambda subset, mode: shortest_word(a, subset, mode),
                lambda subset, mode: brute_force_oracle(a, subset, mode, 5)):
        with pytest.raises(ValueError, match="subset mode needs a subset"):
            ask(None, "subset")
        with pytest.raises(ValueError, match="unknown mode"):
            ask({0, 1}, "reset")


def test_oracle_rejects_empty_subset_and_negative_length():
    a = dfa_from_table([[1, 0], [1, 1]], "ab")
    with pytest.raises(ValueError, match="nonempty"):
        brute_force_oracle(a, set(), "subset", 5)
    with pytest.raises(ValueError, match="max_len"):
        brute_force_oracle(a, None, "classic", -1)


@settings(max_examples=40, deadline=None)
@given(dfas(max_states=5, max_letters=2), st.data())
def test_oracle_matches_engine(a, data):
    s = frozenset(data.draw(st.sets(st.integers(0, a.n - 1), min_size=1)))
    res = shortest_subset_reset(a, s)
    oracle = brute_force_oracle(a, s, "subset", 8)
    if res.found and res.length <= 8:
        assert (oracle.status, oracle.length) == (FOUND, res.length)
    else:
        assert oracle.status == NOT_SYNCHRONIZING


# --- composition depth ------------------------------------------------------------


def test_composition_single_generator_hit():
    res = composition_depth(3, [(0, 0, 0)], constant_target)
    assert (res.status, res.length, res.witness) == (FOUND, 1, (0,))


def test_composition_cerny4():
    a = cerny(4).automaton
    gens = [tuple(next(iter(a.delta[s][x])) for s in a.states) for x in range(2)]
    res = composition_depth(4, gens, constant_target)
    assert res.length == shortest_reset(a).length == 9
    assert res.explored == 91  # the goal is tested when a node is discovered
    composed = gens[res.witness[0]]
    for i in res.witness[1:]:
        composed = tuple(composed[gens[i][x]] for x in range(4))
    assert constant_target(composed)


def test_composition_matches_subset_reset():
    rng = random.Random(111)
    for _ in range(10):
        a, s, expected = random_synchronizable_subset_dfa(rng, rng.randint(2, 5), 2)
        gens = [tuple(next(iter(a.delta[q][x])) for q in a.states)
                for x in range(len(a.alphabet))]
        res = composition_depth(a.n, gens, merging_target(s))
        assert res.length == max(expected.length, 1)


def test_composition_misses_target():
    res = composition_depth(2, [(1, 0)], constant_target)
    assert res.status == NOT_SYNCHRONIZING


def test_composition_validates_generators():
    with pytest.raises(ValueError):
        composition_depth(2, [(0, 5)], constant_target)


@pytest.mark.parametrize("member", [5, -1])
@pytest.mark.parametrize("call", [
    lambda a, s: shortest_subset_reset(a, s),
    lambda a, s: relevant_part(a, s),
    lambda a, s: check_transversal_partition(a, s, [s]),
    lambda a, s: count_shortest_reset_words(a, s),
    lambda a, s: brute_force_oracle(a, s, "subset", 5),
], ids=["subset_reset", "relevant_part", "transversal", "count_words", "oracle"])
def test_subset_members_are_range_checked(call, member):
    a = dfa_from_table([[1, 0], [1, 1]], "ab")
    with pytest.raises(IndexError, match="subset member out of range"):
        call(a, {member})


_NFA = nfa_from_sets([[{0}]], "a")
_LOOPS = dfa_from_table([[0], [1], [2]], "a")  # three states, each looping


@pytest.mark.parametrize("call, message", [
    (lambda: relevant_part(_NFA, {0}), "relevant_part requires a dfa or pfa"),
    (lambda: is_swap_congruence(pfa_from_table([[0]], "a"), [[0]]),
     "swap congruence is defined for dfa"),
    (lambda: check_transversal_partition(_NFA, {0}, [[0]]),
     "transversal check requires a dfa or pfa"),
    (lambda: count_shortest_reset_words(_NFA, {0}), "word counting requires a dfa or pfa"),
    (lambda: check_transversal_partition(_LOOPS, {0, 1}, [[0, 1], [1, 2]]),
     "partition blocks must be disjoint"),
    (lambda: check_transversal_partition(_LOOPS, {0, 2}, [[0], [1]]),
     "subset must lie inside the union of the blocks"),
])
def test_invalid_arguments_raise(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert err.type is ValueError and err.value.args == (message,)
