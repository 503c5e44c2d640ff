"""Constructive reductions between synchronization thresholds.

Each transform takes an instance satisfying a structural precondition
and emits a new instance with a provable relation between the shortest
word lengths of the two.  `run_reduction` wraps a transform together
with its structural checks into a ReductionReport; `binary_chain`
composes the transforms into the two chains that turn the switch-counter
family into binary strongly connected instances, propagating a witness
word through every stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Iterable, Optional, Sequence

from .automata import (DFA, PFA, Alphabet, Automaton, Instance, Pair,
                       StateSet, Word, augmentation_connects,
                       is_strongly_connected, run, successors)
from .families import debruijn_counter
from .search import (BLIND, BUDGET_EXCEEDED, BlindSubsetError,
                     BudgetExceededError, SearchBudget, SearchResult, check_transversal_partition,
                     is_swap_congruence, replay, shortest_careful_reset,
                     shortest_subset_reset)
from .textio import parse, serialize


def _fresh_tokens(base: str, count: int, taken: Iterable[str]) -> list[str]:
    taken = set(taken)
    out = []
    suffix = 0
    while len(out) < count:
        tok = base if suffix == 0 else f"{base}{suffix}"
        suffix += 1
        if tok not in taken:
            taken.add(tok)
            out.append(tok)
    return out


def _numbered_tokens(base: str, count: int, taken: Iterable[str]) -> list[str]:
    taken = set(taken)
    out = []
    suffix = 1
    while len(out) < count:
        tok = f"{base}{suffix}"
        suffix += 1
        if tok not in taken:
            taken.add(tok)
            out.append(tok)
    return out


def _sync_target(a: Automaton, subset: StateSet, budget: Optional[SearchBudget]
                 ) -> tuple[int, Word]:
    res = shortest_subset_reset(a, subset, budget)
    if res.status == BLIND:
        raise BlindSubsetError("subset is blind")
    if res.status == BUDGET_EXCEEDED:
        raise BudgetExceededError("could not synchronize the subset within budget")
    image = run(a, subset, res.witness)
    (target,) = image
    return target, res.witness


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
    target, _ = _sync_target(a, subset, budget)
    n = a.n
    drain, trap = n, n + 1
    (finish,) = _fresh_tokens("ω", 1, a.alphabet.symbols)
    letters = Alphabet(a.alphabet.symbols + (finish,))
    delta = []
    for s in a.states:
        row = [cell if cell else frozenset((trap,)) for cell in a.delta[s]]
        row.append(frozenset((drain if s == target else trap,)))
        delta.append(tuple(row))
    sink_row = lambda t: tuple(frozenset((t,)) for _ in range(len(letters)))
    delta.append(sink_row(drain))
    delta.append(sink_row(trap))
    labels = None
    if a.state_labels:
        labels = a.state_labels + ("D", "Dx")
    out = Automaton(DFA, n + 2, letters, tuple(delta), labels)
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
    toks = _numbered_tokens("ψ", len(pairs), a.alphabet.symbols)
    letters = Alphabet(a.alphabet.symbols + tuple(toks))
    delta = []
    for s in a.states:
        row = list(a.delta[s])
        for r, q in pairs:
            row.append(frozenset((q,)) if s == r else frozenset())
        delta.append(tuple(row))
    out = Automaton(PFA, a.n, letters, tuple(delta), a.state_labels)
    return Instance(out)


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
    target, _ = _sync_target(a, subset, budget)

    reach = {target}
    stack = [target]
    adj = successors(a)
    while stack:
        s = stack.pop()
        for t in adj[s]:
            if t not in reach:
                reach.add(t)
                stack.append(t)
    chosen = next((i for i, (r, _) in enumerate(pairs) if r in reach), None)
    if chosen is None:
        raise ValueError("no arc origin is reachable from the synchronization target")

    n = a.n
    east, east_bar = 2 * n, 2 * n + 1

    def partner(s: int) -> int:
        if s == east:
            return east_bar
        if s == east_bar:
            return east
        return s + n if s < n else s - n

    toks = _numbered_tokens("ψ", len(pairs), a.alphabet.symbols)
    letters = Alphabet(a.alphabet.symbols + tuple(toks))
    base_letters = len(a.alphabet)

    def base(s: int, x: int) -> int:
        # transition for the unbarred copy and E; barred states follow by partner
        if x < base_letters:
            if s == east:
                return east
            return next(iter(a.delta[s][x]))
        r, q = pairs[x - base_letters]
        if x - base_letters == chosen:
            if s == east:
                return q
            return q if s == r else partner(q)
        if s == east:
            return east
        return q if s == r else east_bar

    delta = []
    for s in range(2 * n + 2):
        row = []
        for x in range(len(letters)):
            if s < n or s == east:
                row.append(frozenset((base(s, x),)))
            else:
                row.append(frozenset((partner(base(partner(s), x)),)))
        delta.append(tuple(row))

    labels = tuple(
        [a.label(s) for s in a.states]
        + [a.label(s) + "'" for s in a.states]
        + ["E", "E'"]
    )
    out = Automaton(DFA, 2 * n + 2, letters, tuple(delta), labels)
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
    index = {s: i for i, s in enumerate(domain)}
    keep = set(domain)
    (restart,) = _fresh_tokens("α", 1, a.alphabet.symbols)
    letters = Alphabet(a.alphabet.symbols + (restart,))
    anchor = {}
    for b in blocks:
        (q,) = b & subset
        for s in b:
            anchor[s] = q
    delta = []
    for s in domain:
        row = [
            frozenset(index[t] for t in cell if t in keep) if cell <= keep
            else frozenset()
            for cell in a.delta[s]
        ]
        row.append(frozenset((index[anchor[s]],)))
        delta.append(tuple(row))
    labels = tuple(a.label(s) for s in domain) if a.state_labels else None
    out = Automaton(PFA, len(domain), letters, tuple(delta), labels)
    return Instance(out)


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

    def idx(s: int, i: int) -> int:
        return s * K + i

    delta = []
    for s in a.states:
        for i in range(K):
            cell = a.delta[s][order[i]]
            apply_cell = frozenset(idx(t, 0) for t in cell)
            advance = frozenset((idx(s, min(i + 1, K - 1)),))
            delta.append((apply_cell, advance))
    labels = tuple(
        f"{a.label(s)}|{a.alphabet.symbols[order[i]]}"
        for s in a.states for i in range(K)
    )
    kind = a.kind if a.kind == DFA else PFA
    out = Automaton(kind, a.n * K, Alphabet(BINARY_LETTERS), tuple(delta), labels)
    new_subset = None
    if subset is not None:
        new_subset = frozenset(idx(s, 0) for s in subset)
    return Instance(out, new_subset)


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

@dataclass
class ReductionReport:
    name: str
    input: Instance
    output: Instance
    relation: str
    checks: list[tuple[str, bool]] = dc_field(default_factory=list)
    details: dict = dc_field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)

    def check(self, name: str, passed: bool) -> None:
        self.checks.append((name, bool(passed)))


def _roundtrip_ok(inst: Instance) -> bool:
    return parse(serialize(inst)) == inst


def _try_search(a: Automaton, subset: Optional[frozenset], careful_whole: bool,
                budget: Optional[SearchBudget]) -> SearchResult:
    if careful_whole:
        return shortest_careful_reset(a, budget)
    assert subset is not None
    return shortest_subset_reset(a, subset, budget)


def run_reduction(name: str, instance: Instance,
                  budget: Optional[SearchBudget] = None,
                  pairs: Optional[Sequence[Pair]] = None) -> ReductionReport:
    """Apply one named reduction and record its structural checks.

    Names: add-sinks, connect, double, restart, binarize (subset mode
    when the instance has a subset, careful mode otherwise).
    """
    a = instance.automaton
    arcs = pairs if pairs is not None else (instance.pairs or ())
    if name == "add-sinks":
        if instance.subset is None:
            raise ValueError("add-sinks needs a subset")
        out = add_sink_determinization(a, instance.subset, budget)
        rep = ReductionReport(name, instance, out,
                              "new subset length = old careful length + 1")
        rep.check("state count +2", out.automaton.n == a.n + 2)
        rep.check("letter count +1",
                  len(out.automaton.alphabet) == len(a.alphabet) + 1)
        before = shortest_subset_reset(a, instance.subset, budget)
        after = shortest_subset_reset(out.automaton, out.subset, budget)
        if before.found and after.found:
            rep.details.update(length_in=before.length, length_out=after.length)
            rep.check("gap exactly +1", after.length == before.length + 1)
    elif name == "connect":
        out = add_link_letters(a, arcs)
        rep = ReductionReport(name, instance, out,
                              "careful length preserved, output strongly connected")
        rep.check("strongly connected", is_strongly_connected(out.automaton))
        rep.check("letter count +arcs",
                  len(out.automaton.alphabet) == len(a.alphabet) + len(arcs))
        before = shortest_careful_reset(a, budget)
        after = shortest_careful_reset(out.automaton, budget)
        rep.details.update(status_in=before.status, status_out=after.status)
        if before.found and after.found:
            rep.details.update(length_in=before.length, length_out=after.length)
            rep.check("careful length equal", after.length == before.length)
            rep.check("witness avoids link letters",
                      all(x < len(a.alphabet) for x in after.witness))
        else:
            rep.check("negative preserved", before.status == after.status)
    elif name == "double":
        if instance.subset is None:
            raise ValueError("double needs a subset")
        out = swap_doubling(a, instance.subset, arcs, budget)
        rep = ReductionReport(name, instance, out,
                              "new subset length >= old + 1, output strongly connected")
        rep.check("state count 2n+2", out.automaton.n == 2 * a.n + 2)
        rep.check("strongly connected", is_strongly_connected(out.automaton))
        rep.check("swap congruence",
                  is_swap_congruence(out.automaton, out.partition))
        before = shortest_subset_reset(a, instance.subset, budget)
        after = shortest_subset_reset(out.automaton, out.subset, budget)
        if before.found and after.found:
            rep.details.update(length_in=before.length, length_out=after.length,
                               gap=after.length - before.length)
            rep.check("gap at least +1", after.length >= before.length + 1)
    elif name == "restart":
        if instance.subset is None or instance.partition is None:
            raise ValueError("restart needs a subset and a partition")
        out = add_restart_letter(a, instance.subset, instance.partition, budget)
        rep = ReductionReport(
            name, instance, out,
            "careful length of output in [subset length, subset length + 1]")
        rep.check("letter count +1",
                  len(out.automaton.alphabet) == len(a.alphabet) + 1)
        rep.check("state count = block union",
                  out.automaton.n == sum(len(b) for b in instance.partition))
        restart = len(out.automaton.alphabet) - 1
        image = run(out.automaton, out.automaton.states, (restart,))
        rep.check("restart letter idempotent on its image",
                  run(out.automaton, image, (restart,)) == image)
        before = shortest_subset_reset(a, instance.subset, budget)
        after = shortest_careful_reset(out.automaton, budget)
        if before.found and after.found:
            rep.details.update(length_in=before.length, length_out=after.length)
            rep.check("careful length in [L, L+1]",
                      before.length <= after.length <= before.length + 1)
    elif name == "binarize":
        out = binarize(a, instance.subset)
        rep = ReductionReport(name, instance, out,
                              "words correspond to their two-letter encodings")
        rep.check("state count k*n", out.automaton.n == a.n * len(a.alphabet))
        rep.check("binary", len(out.automaton.alphabet) == 2)
        if instance.subset is not None:
            before = shortest_subset_reset(a, instance.subset, budget)
            after = shortest_subset_reset(out.automaton, out.subset, budget)
            if before.found and after.found:
                rep.details.update(length_in=before.length, length_out=after.length)
                decoded = decode_word(after.witness)
                rep.check("decoded witness resets the input subset",
                          run(a, instance.subset, decoded) is not None
                          and len(run(a, instance.subset, decoded)) == 1)
                rep.check("encoded witness resets the output subset",
                          replay(out.automaton, out.subset,
                                 encode_word(before.witness, len(a.alphabet)))
                          is not None)
        else:
            order = _careful_letter_order(a)
            before = shortest_careful_reset(a, budget)
            after = shortest_careful_reset(out.automaton, budget)
            if before.found and after.found:
                rep.details.update(length_in=before.length, length_out=after.length)
                rep.check("careful length does not drop", after.length >= before.length)
                if a.n >= 2:  # 1-state witnesses need no apply letter and don't decode
                    decoded = [order[c] for c in decode_word(after.witness)]
                    image = replay(a, a.states, decoded)
                    rep.check("decoded witness carefully resets the input",
                              image is not None and len(image) == 1)
    else:
        raise ValueError(f"unknown reduction {name!r}")
    rep.check("output serialization round-trips", _roundtrip_ok(out))
    return rep


def _reindex_pairs(pairs: Sequence[Pair], domain: Sequence[int]) -> tuple[Pair, ...]:
    index = {s: i for i, s in enumerate(domain)}
    return tuple((index[r], index[q]) for r, q in pairs)


def binary_chain(m: int, variant: str,
                 budget: Optional[SearchBudget] = None) -> list[ReductionReport]:
    """Chain the reductions from the switch counter down to a binary
    strongly connected instance, validating a propagated witness.

    variant "subset": counter -> double -> binarize (a binary SC DFA with
    a designated subset).  variant "careful": counter -> restart ->
    connect -> binarize (a binary SC PFA).
    """
    if variant not in ("subset", "careful"):
        raise ValueError("variant must be subset or careful")
    counter = debruijn_counter(m)
    a = counter.automaton
    subset = counter.subset
    base = shortest_subset_reset(a, subset, budget)
    if not base.found:  # the counter subset is never blind
        raise BudgetExceededError("counter subset search exceeds budget")
    reports: list[ReductionReport] = []

    if variant == "subset":
        rep1 = run_reduction("double", counter.instance, budget,
                             pairs=counter.sc_pairs)
        reports.append(rep1)
        mid = rep1.output
        rep2 = run_reduction("binarize", mid, budget)
        reports.append(rep2)
        final = rep2.output
        # witness: counter word, then walk to the chosen arc origin, then
        # the arc letter; everything encoded for the binary stage
        w1 = _doubling_witness(a, subset, counter.sc_pairs, base, mid)
        final_word = encode_word(w1, len(mid.automaton.alphabet))
        image = run(final.automaton, final.subset, final_word)
        expected_n = 6 * (2 * a.n + 2)
        formula = 60 * m + 12 * (m.bit_length() - 1) + 48
        rep2.details.update(final_states=final.automaton.n,
                            formula_states=formula,
                            witness_length=len(final_word))
        rep2.check("final state count matches formula",
                   final.automaton.n == expected_n == formula)
        rep2.check("final strongly connected",
                   is_strongly_connected(final.automaton))
        rep2.check("propagated witness synchronizes", len(image) == 1)
    else:
        rep1 = run_reduction("restart", counter.instance, budget)
        reports.append(rep1)
        mid = rep1.output
        domain = sorted(set().union(*counter.instance.partition))
        arcs = _reindex_pairs(counter.relevant_sc_pairs, domain)
        rep2 = run_reduction("connect", mid, budget, pairs=arcs)
        reports.append(rep2)
        connected = rep2.output
        rep3 = run_reduction("binarize", connected, budget)
        reports.append(rep3)
        final = rep3.output
        ca = connected.automaton
        order = _careful_letter_order(ca)
        rank = {x: i for i, x in enumerate(order)}
        restart_letter = len(mid.automaton.alphabet) - 1
        w2 = (restart_letter,) + base.witness
        stabilizer = [1] * (len(ca.alphabet) - 1) + [0]
        final_word = tuple(stabilizer) + encode_word(
            [rank[x] for x in w2], len(ca.alphabet))
        image = replay(final.automaton, final.automaton.states, final_word)
        expected_n = len(ca.alphabet) * ca.n
        formula = 35 * m + 7 * (m.bit_length() - 1) + 21
        rep3.details.update(final_states=final.automaton.n,
                            formula_states=formula,
                            witness_length=len(final_word))
        rep3.check("final state count = letters * relevant states",
                   final.automaton.n == expected_n)
        rep3.check("final state count within formula",
                   final.automaton.n <= formula)
        rep3.check("final strongly connected",
                   is_strongly_connected(final.automaton))
        rep3.check("propagated witness carefully synchronizes",
                   image is not None and len(image) == 1)
    return reports


def _doubling_witness(a: Automaton, subset: StateSet, pairs: Sequence[Pair],
                      base: SearchResult, doubled: Instance) -> Word:
    """Witness for the doubled instance: base witness, a path from the
    synchronization target to the chosen arc origin, then the arc letter."""
    (target,) = run(a, subset, base.witness)
    reach = {target: ()}
    frontier = [target]
    while frontier:
        nxt = []
        for s in frontier:
            for x in range(len(a.alphabet)):
                for t in a.delta[s][x]:
                    if t not in reach:
                        reach[t] = reach[s] + (x,)
                        nxt.append(t)
        frontier = nxt
    chosen = next(i for i, (r, _) in enumerate(pairs) if r in reach)
    r = pairs[chosen][0]
    arc_letter = len(a.alphabet) + chosen
    return base.witness + reach[r] + (arc_letter,)
