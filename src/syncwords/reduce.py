"""Constructive reductions between synchronization thresholds.

Each transform turns an instance satisfying a structural precondition
into one whose shortest word length L' relates to the input's L:

    add-sinks  L' = L + 1        double    L' >= L + 1
    connect    L' = L            restart   L <= L' <= L + 1
    binarize   L' >= L careful; in subset mode witnesses must decode

`run_reduction` applies one transform with its structural checks,
searches the input and the output, then checks the relation and the
witnesses, and builds one frozen ReductionReport.  The engine caches
its reset searches (`search._reset_search`), so a search that a
transform, a rejection sampler of `sampling` or the previous stage of a
chain has made already is not made again.  `binary_chain` runs the
stages double -> binarize (subset) or restart -> connect -> binarize
(careful) on the switch counter, ending in a binary strongly connected
instance, and checks a witness propagated through them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from .automata import (DFA, PFA, Automaton, Instance, Pair, StateSet, Word,
                       augmentation_connects, dfa_from_table,
                       is_strongly_connected, pfa_from_table, restrict, run)
from .families import counting_word, debruijn_counter
from .search import (BLIND, BlindSubsetError, SearchBudget, SearchResult,
                     check_transversal_partition, is_swap_congruence, replay,
                     shortest_careful_reset, shortest_subset_reset)
from .textio import parse, serialize


def _fresh_tokens(base: str, number: int, taken: Iterable[str],
                  first: int = 0) -> list[str]:
    """The first `number` of base<first>, base<first+1>, ... not in `taken`,
    suffix 0 written as the bare base."""
    taken = set(taken)
    names = (f"{base}{i}" if i else base for i in itertools.count(first))
    return list(itertools.islice((t for t in names if t not in taken), number))


def _table(a: Automaton) -> list[list[Optional[int]]]:
    """The successor table of a dfa or pfa: table[s][x] is the successor,
    or None where the cell is undefined."""
    return [[next(iter(cell), None) for cell in row] for row in a.delta]


def _chosen_arc(a: Automaton, target: int, pairs: Sequence[Pair]) -> tuple[int, Word]:
    """The arc swap_doubling routes its fresh pair through: the first of
    `pairs` whose origin is reachable from the synchronization target.
    Returns its index and a shortest word from the target to its origin,
    the least in letter order among those a breadth-first search meets
    first."""
    paths = {target: ()}
    queue = [target]
    for s in queue:
        for x, cell in enumerate(a.delta[s]):
            for t in cell:
                if t not in paths:
                    paths[t] = paths[s] + (x,)
                    queue.append(t)
    for i, (r, _) in enumerate(pairs):
        if r in paths:
            return i, paths[r]
    raise ValueError("no arc origin is reachable from the synchronization target")


def _shortest(a: Automaton, subset: Optional[StateSet],
              budget: Optional[SearchBudget]) -> SearchResult:
    """Careful search of the subset, or of all states when it is None.  A
    search stopped by the budget decides no length, so it raises
    BudgetExceededError (`SearchResult.decided`)."""
    res = (shortest_careful_reset(a, budget) if subset is None
           else shortest_subset_reset(a, subset, budget))
    return res.decided("careful search")


def _sync_target(a: Automaton, subset: StateSet,
                 budget: Optional[SearchBudget]) -> int:
    """The state the subset's shortest careful reset word ends in."""
    res = _shortest(a, subset, budget)
    if res.status == BLIND:
        raise BlindSubsetError("subset is blind")
    (target,) = run(a, subset, res.witness)
    return target


def add_sink_determinization(a: Automaton, subset: Iterable[int],
                             budget: Optional[SearchBudget] = None) -> Instance:
    """Turn careful subset synchronization into plain subset synchronization.

    Adds a drain sink D and a trap sink, routes undefined transitions to
    the trap, and adds a finish letter sending only the synchronization
    target to D.  The new subset gains length exactly +1.
    """
    if a.kind not in (DFA, PFA):
        raise ValueError("determinization applies to dfa/pfa")
    subset = frozenset(subset)
    target = _sync_target(a, subset, budget)
    drain, trap = a.n, a.n + 1
    (finish,) = _fresh_tokens("ω", 1, a.alphabet.symbols)
    table = [[trap if t is None else t for t in row] + [drain if s == target else trap]
             for s, row in enumerate(_table(a))]
    table += [[drain] * (len(a.alphabet) + 1), [trap] * (len(a.alphabet) + 1)]
    labels = a.state_labels + ("D", "Dx") if a.state_labels else None
    out = dfa_from_table(table, a.alphabet.symbols + (finish,), labels)
    return Instance(out, subset | {drain})


def add_link_letters(a: Automaton, pairs: Sequence[Pair]) -> Instance:
    """Make a pfa strongly connected without changing its careful threshold.

    Adds one letter per arc, defined on a single state only; such letters
    cannot occur in a shortest careful reset word.
    """
    if a.kind not in (DFA, PFA):
        raise ValueError("link letters apply to dfa/pfa")
    if not augmentation_connects(a, pairs):
        raise ValueError("the given arcs do not make the automaton strongly connected")
    if not pairs:
        return Instance(a)
    toks = _fresh_tokens("ψ", len(pairs), a.alphabet.symbols, first=1)
    table = [row + [q if s == r else None for r, q in pairs]
             for s, row in enumerate(_table(a))]
    return Instance(pfa_from_table(table, a.alphabet.symbols + tuple(toks),
                                   a.state_labels))


def swap_doubling(a: Automaton, subset: Iterable[int], pairs: Sequence[Pair],
                  budget: Optional[SearchBudget] = None) -> Instance:
    """Make a subset-synchronization instance strongly connected.

    Doubles the automaton into swap-partner pairs {s, s'} plus a fresh
    pair {E, E'}, and adds one letter per arc.  The partner classes form
    a swap congruence, so the doubled subset still cannot shortcut; its
    shortest reset word gains at least +1.
    """
    if a.kind != DFA:
        raise ValueError("doubling applies to dfa")
    pairs = list(pairs)
    if len(pairs) < 2:
        raise ValueError("need at least two arcs")
    if not augmentation_connects(a, pairs):
        raise ValueError("the given arcs do not make the automaton strongly connected")
    subset = frozenset(subset)
    chosen, _ = _chosen_arc(a, _sync_target(a, subset, budget), pairs)

    # the rows of the unbarred copy and of E; each barred state's row is
    # its partner's row mapped through `partner`
    n = a.n
    east, east_bar = 2 * n, 2 * n + 1
    partner = [*range(n, 2 * n), *range(n), east_bar, east]
    half = [row + [q if s == r else (partner[q] if j == chosen else east_bar)
                   for j, (r, q) in enumerate(pairs)]
            for s, row in enumerate(_table(a))]
    half.append([east] * len(a.alphabet)
                + [q if j == chosen else east for j, (_, q) in enumerate(pairs)])
    barred = [[partner[t] for t in row] for row in half]
    toks = _fresh_tokens("ψ", len(pairs), a.alphabet.symbols, first=1)
    labels = ([a.label(s) for s in a.states] + [a.label(s) + "'" for s in a.states]
              + ["E", "E'"])
    out = dfa_from_table(half[:n] + barred[:n] + half[n:] + barred[n:],
                         a.alphabet.symbols + tuple(toks), labels)
    partition = tuple(frozenset((s, s + n)) for s in range(n)) + (
        frozenset((east, east_bar)),)
    return Instance(out, subset | {east}, partition)


def add_restart_letter(a: Automaton, subset: Iterable[int],
                       partition: Sequence[Iterable[int]],
                       budget: Optional[SearchBudget] = None) -> Instance:
    """Turn a transversal-partition subset instance into whole-automaton
    careful synchronization.

    Restricts the automaton to the union of the blocks and adds a total
    restart letter mapping each block onto its unique subset state.  The
    careful threshold of the result is csub or csub + 1.
    """
    subset = frozenset(subset)
    blocks = [frozenset(b) for b in partition]
    violation = check_transversal_partition(a, subset, blocks, budget)
    if violation is not None:
        raise ValueError(
            f"not a transversal partition: word {violation.word} reaches "
            f"{sorted(violation.subset)}")
    domain = sorted(set().union(*blocks))
    sub = restrict(a, domain)
    (restart,) = _fresh_tokens("α", 1, a.alphabet.symbols)
    anchor = {}
    for b in blocks:
        (q,) = b & subset
        for s in b:
            anchor[s] = q
    table = [row + [domain.index(anchor[s])] for s, row in zip(domain, _table(sub))]
    return Instance(pfa_from_table(table, a.alphabet.symbols + (restart,),
                                   sub.state_labels))


BINARY_LETTERS = ("α", "β")  # alpha applies the current letter, beta advances


def _careful_letter_order(a: Automaton) -> list[int]:
    """Alphabet order for careful binarization: a total letter moved last."""
    total = [x for x in range(len(a.alphabet))
             if all(a.delta[s][x] for s in a.states)]
    if not total:
        raise ValueError("careful binarization needs a letter defined everywhere")
    last = len(a.alphabet) - 1
    chosen = last if last in total else total[0]
    return [x for x in range(len(a.alphabet)) if x != chosen] + [chosen]


def binarize(a: Automaton, subset: Optional[Iterable[int]] = None) -> Instance:
    """Reduce the alphabet to two letters, preserving the thresholds.

    State (s, i) means "s with letter i selected"; alpha applies the
    selected letter and resets the selection, beta advances it (capped at
    the last).  A word a_{i1}..a_{id} corresponds to beta^{i1} alpha ...
    beta^{id} alpha.  With a subset the designated set becomes S x {first
    letter}; without one the instance is for careful synchronization and
    the alphabet is reordered to place a total letter last.
    """
    if a.kind not in (DFA, PFA):
        raise ValueError("binarization applies to dfa/pfa")
    K = len(a.alphabet)
    order = list(range(K)) if subset is not None else _careful_letter_order(a)
    # state (s, i) is s * K + i; alpha leads to (t, 0), beta to (s, i + 1)
    table = [[None if row[x] is None else row[x] * K, s * K + min(i + 1, K - 1)]
             for s, row in enumerate(_table(a)) for i, x in enumerate(order)]
    labels = [f"{a.label(s)}|{a.alphabet.symbols[x]}" for s in a.states for x in order]
    build = dfa_from_table if a.kind == DFA else pfa_from_table
    if subset is not None:
        subset = frozenset(s * K for s in subset)
    return Instance(build(table, BINARY_LETTERS, labels), subset)


def encode_word(word: Sequence[int], n_letters: int) -> Word:
    """Translate a word into the two-letter encoding beta^i alpha per letter."""
    out: list[int] = []
    for x in word:
        if not 0 <= x < n_letters:
            raise ValueError(f"letter {x} out of range")
        out.extend([1] * x)
        out.append(0)
    return tuple(out)


def decode_word(word: Sequence[int]) -> Word:
    """Inverse of encode_word; rejects words not of the (beta^i alpha)* shape."""
    out: list[int] = []
    count = 0
    for x in word:
        if x == 1:
            count += 1
        elif x == 0:
            out.append(count)
            count = 0
        else:
            raise ValueError(f"not a binary word: letter {x}")
    if count:
        raise ValueError("trailing advance letters without an apply letter")
    return tuple(out)


# --- reports and the chain driver --------------------------------------------

@dataclass(frozen=True)
class ReductionReport:
    """A reduction's output with its named checks in the order they ran;
    `details` holds the measured lengths and other figures."""
    name: str
    output: Instance
    checks: tuple[tuple[str, bool], ...]
    details: Mapping[str, object]  # read-only

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)


# op -> (name of its length check, holds(length_in, length_out))
_RELATIONS = {
    "add-sinks": ("gap exactly +1", lambda l, k: k == l + 1),
    "connect": ("careful length equal", lambda l, k: k == l),
    "double": ("gap at least +1", lambda l, k: k >= l + 1),
    "restart": ("careful length in [L, L+1]", lambda l, k: l <= k <= l + 1),
    "binarize": ("careful length does not drop", lambda l, k: k >= l),
}


def run_reduction(name: str, instance: Instance,
                  budget: Optional[SearchBudget] = None,
                  pairs: Optional[Sequence[Pair]] = None) -> ReductionReport:
    """Apply one named reduction and record its checks.

    Names: add-sinks, connect, double, restart, binarize (subset mode
    when the instance has a subset, careful mode otherwise).  The checks
    are the op's structural ones, whether both searches find a word or
    neither does, the length relation and witness checks when both do,
    and the serialization round trip.
    The input search is the careful search of the instance's subset, or
    of all states when it has none or the op is connect.  Raises
    BudgetExceededError when either search stops at the budget.
    """
    a = instance.automaton
    arcs = pairs if pairs is not None else (instance.pairs or ())
    subset = instance.subset
    relation = _RELATIONS.get(name)
    witness_checks = lambda before, after: ()
    if name == "add-sinks":
        if subset is None:
            raise ValueError("add-sinks needs a subset")
        out = add_sink_determinization(a, subset, budget)
        checks = [("state count +2", out.automaton.n == a.n + 2),
                  ("letter count +1",
                   len(out.automaton.alphabet) == len(a.alphabet) + 1)]
    elif name == "connect":
        subset = None  # the careful threshold of the whole automaton
        out = add_link_letters(a, arcs)
        checks = [("strongly connected", is_strongly_connected(out.automaton)),
                  ("letter count +arcs",
                   len(out.automaton.alphabet) == len(a.alphabet) + len(arcs))]
        witness_checks = lambda before, after: [
            ("witness avoids link letters",
             all(x < len(a.alphabet) for x in after.witness))]
    elif name == "double":
        if subset is None:
            raise ValueError("double needs a subset")
        out = swap_doubling(a, subset, arcs, budget)
        checks = [("state count 2n+2", out.automaton.n == 2 * a.n + 2),
                  ("strongly connected", is_strongly_connected(out.automaton)),
                  ("swap congruence",
                   is_swap_congruence(out.automaton, out.partition))]
    elif name == "restart":
        if subset is None or instance.partition is None:
            raise ValueError("restart needs a subset and a partition")
        out = add_restart_letter(a, subset, instance.partition, budget)
        restart = (len(out.automaton.alphabet) - 1,)
        image = run(out.automaton, out.automaton.states, restart)
        checks = [("letter count +1",
                   len(out.automaton.alphabet) == len(a.alphabet) + 1),
                  ("state count = block union",
                   out.automaton.n == sum(len(b) for b in instance.partition)),
                  ("restart letter idempotent on its image",
                   run(out.automaton, image, restart) == image)]
    elif name == "binarize":
        out = binarize(a, subset)
        checks = [("state count k*n", out.automaton.n == a.n * len(a.alphabet)),
                  ("binary", len(out.automaton.alphabet) == 2)]
        if subset is not None:
            relation = None  # subset mode checks the witness encodings instead
            witness_checks = lambda before, after: [
                ("decoded witness resets the input subset",
                 len(replay(a, subset, decode_word(after.witness)) or ()) == 1),
                ("encoded witness resets the output subset",
                 replay(out.automaton, out.subset,
                        encode_word(before.witness, len(a.alphabet))) is not None)]
        elif a.n >= 2:  # 1-state witnesses need no apply letter and don't decode
            order = _careful_letter_order(a)
            witness_checks = lambda before, after: [
                ("decoded witness carefully resets the input",
                 len(replay(a, a.states, [order[c] for c in decode_word(after.witness)])
                     or ()) == 1)]
    else:
        raise ValueError(f"unknown reduction {name!r}")

    before = _shortest(a, subset, budget)
    after = _shortest(out.automaton, out.subset, budget)
    checks.append(("synchronizability preserved", before.found == after.found))
    details = {}
    if name == "connect":
        details.update(status_in=before.status, status_out=after.status)
    if before.found and after.found:
        details.update(length_in=before.length, length_out=after.length)
        if name == "double":
            details["gap"] = after.length - before.length
        if relation is not None:
            check_name, holds = relation
            checks.append((check_name, holds(before.length, after.length)))
        checks.extend(witness_checks(before, after))
    checks.append(("output serialization round-trips", parse(serialize(out)) == out))
    return ReductionReport(name, out, tuple(checks), MappingProxyType(details))


def binary_chain(m: int, variant: str,
                 budget: Optional[SearchBudget] = None) -> list[ReductionReport]:
    """Chain the reductions from the switch counter down to a binary
    strongly connected instance, validating a propagated witness.

    variant "subset": counter -> double -> binarize (a binary SC DFA with
    a designated subset).  variant "careful": counter -> restart ->
    connect -> binarize (a binary SC PFA).  The last report also holds
    the final-stage checks and `formula_states`, the paper's state count.
    """
    if variant not in ("subset", "careful"):
        raise ValueError("variant must be subset or careful")
    counter = debruijn_counter(m)
    a = counter.automaton
    base = counting_word(m)  # the counter subset's lex-least shortest reset word
    if variant == "subset":
        stages = (("double", counter.sc_pairs), ("binarize", None))
    else:
        # the restart stage keeps the states of the blocks, renumbered in order
        index = {s: i for i, s in
                 enumerate(sorted(set().union(*counter.instance.partition)))}
        stages = (("restart", None),
                  ("connect", tuple((index[r], index[q])
                                    for r, q in counter.relevant_sc_pairs)),
                  ("binarize", None))
    reports = []
    instance = counter.instance
    for name, pairs in stages:
        reports.append(run_reduction(name, instance, budget, pairs=pairs))
        instance = reports[-1].output

    last = reports[-1]
    pre = reports[-2].output.automaton  # the input of the binarize stage
    final = instance.automaton
    letters = len(pre.alphabet)
    log_m = m.bit_length() - 1
    if variant == "subset":
        # the counter word, a shortest walk from its target to the origin of
        # the arc swap_doubling chose, then that arc's letter
        (target,) = run(a, counter.subset, base)
        chosen, walk = _chosen_arc(a, target, counter.sc_pairs)
        word = encode_word(base + walk + (len(a.alphabet) + chosen,), letters)
        formula = 60 * m + 12 * log_m + 48
        checks = [("final state count matches formula",
                   final.n == 6 * (2 * a.n + 2) == formula)]
        synchronizes = "propagated witness synchronizes"
    else:
        # select the total letter, then restart and the counter word, each
        # letter renamed to its place in the careful binarization order
        rank = {x: i for i, x in enumerate(_careful_letter_order(pre))}
        restart = len(reports[0].output.automaton.alphabet) - 1
        word = (1,) * (letters - 1) + (0,) + encode_word(
            [rank[x] for x in (restart,) + base], letters)
        formula = 35 * m + 7 * log_m + 21
        checks = [("final state count = letters * relevant states",
                   final.n == letters * pre.n),
                  ("final state count within formula", final.n <= formula)]
        synchronizes = "propagated witness carefully synchronizes"
    image = replay(final, instance.subset or final.states, word)
    checks += [("final strongly connected", is_strongly_connected(final)),
               (synchronizes, image is not None and len(image) == 1)]
    reports[-1] = replace(
        last, checks=last.checks + tuple(checks),
        details=MappingProxyType({**last.details, "final_states": final.n,
                                  "formula_states": formula,
                                  "witness_length": len(word)}))
    return reports
