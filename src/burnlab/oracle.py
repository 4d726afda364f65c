"""Budgeted tri-state word and conjugacy oracles over relator systems.

Decision semantics, stated once here:

* ``yes`` verdicts carry a witness trace replayable by `replay_trace`, which
  applies only letter-level free cancellations, literal relator insertions
  and cyclic shifts; the replayer shares no code with the search.
* ``no`` verdicts carry a certificate naming the search space that was
  covered: the free group decides (rank 0), an exponent-lattice residue
  obstruction applies (every rewriting move shifts the exponent vector by a
  lattice element, so a nonzero residue separates), or the forward rewriting
  component of the query word inside an explicit length cap was exhaustively
  expanded without reaching the target.  Exhaustion certificates are claims
  about that directed component, nothing more; tests validate them against
  independent oracles at the scales the package is used at.
* everything else is ``unknown`` together with the budget that ran out.

Raising a budget component can only resolve unknowns; within a fixed cap the
search is deterministic (states expand in shortlex order), so verdicts do not
depend on scheduling or worker counts.

Search moves are Dehn-style: a relator application replaces a matched prefix
of a rotated relator by the inverse of its complement.  Every such move
equals inserting one whole rotated relator and then freely cancelling, which
is exactly what traces record and the replayer performs.
"""

from __future__ import annotations

import heapq
import json
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .errors import BurnlabError, InputError
from .words import (
    Alphabet,
    Word,
    cyclic_reduce_letters,
    cyclic_split_reduced,
    exponent_vector,
    format_letters,
    inverse_letters,
    is_ab_letter,
    min_rotation,
    parse_letters,
    shortlex_key,
    splice_reduce,
)


class ReplayError(BurnlabError):
    """A witness trace failed to replay."""


DEFAULT_ALPHA_BAR = Fraction(1, 2) + Fraction(1, 100)


@dataclass(frozen=True)
class OracleBudget:
    """Resource caps for one oracle query.

    max_ball_radius: extra reduced length, above the query words, that the
        rewriting search may visit.
    max_relator_applications: number of candidate rewriting moves generated.
    max_conjugator_length: recorded bound for conjugacy searches; None means
        ceil(alpha_bar * (|U| + |V|)) computed per query.
    time_cap: optional wall-clock seconds; using it trades determinism away.
    """

    max_ball_radius: int = 4
    max_relator_applications: int = 50_000
    max_conjugator_length: Optional[int] = None
    time_cap: Optional[float] = None

    def __post_init__(self):
        if self.max_ball_radius < 0:
            raise InputError("max_ball_radius must be >= 0")
        if self.max_relator_applications < 1:
            raise InputError("max_relator_applications must be >= 1")
        if self.max_conjugator_length is not None and self.max_conjugator_length < 0:
            raise InputError("max_conjugator_length must be >= 0")
        if self.time_cap is not None and self.time_cap <= 0:
            raise InputError("time_cap must be positive")

    def conjugator_bound(self, len_u: int, len_v: int, alpha_bar: Fraction) -> int:
        if self.max_conjugator_length is not None:
            return self.max_conjugator_length
        return math.ceil(alpha_bar * (len_u + len_v))


@dataclass(frozen=True)
class BudgetUse:
    states: int
    applications: int
    cap: int
    complete: bool


@dataclass(frozen=True)
class Verdict:
    status: str  # "yes" | "no" | "unknown"
    witness: Optional[dict] = None
    certificate: Optional[dict] = None
    budget_used: Optional[BudgetUse] = None

    @property
    def is_yes(self) -> bool:
        return self.status == "yes"

    @property
    def is_no(self) -> bool:
        return self.status == "no"

    @property
    def is_unknown(self) -> bool:
        return self.status == "unknown"

    def to_json(self) -> str:
        payload = {
            "status": self.status,
            "witness": self.witness,
            "certificate": self.certificate,
            "budget_used": None
            if self.budget_used is None
            else {
                "states": self.budget_used.states,
                "applications": self.budget_used.applications,
                "cap": self.budget_used.cap,
                "complete": self.budget_used.complete,
            },
        }
        return json.dumps(payload, sort_keys=True)


@dataclass(frozen=True)
class NormBounds:
    lower: int
    upper: int
    exact: bool
    witness: Optional[dict] = None
    budget_used: Optional[BudgetUse] = None


@dataclass(frozen=True)
class Relator:
    """One expanded relator word.  rank 0 marks ad-hoc relators."""

    id: str
    word: tuple[int, ...]
    rank: int = 0

    def __post_init__(self):
        if not self.word:
            raise InputError("relator %s is empty" % self.id)


@dataclass(frozen=True)
class _Context:
    letters: tuple[int, ...]
    relator_index: int
    sign: int
    shift: int


class IntegerLattice:
    """Integer span of vectors with canonical coset reduction (echelon basis
    built by column Euclid).  Membership of v  <=>  reduce(v) == 0."""

    def __init__(self, vectors: Iterable[Sequence[int]], dim: int):
        self.dim = dim
        self._rows: dict[int, list[int]] = {}
        for v in vectors:
            self._insert(list(v))

    def _insert(self, v: list[int]) -> None:
        while True:
            p = next((i for i, x in enumerate(v) if x), None)
            if p is None:
                return
            row = self._rows.get(p)
            if row is None:
                if v[p] < 0:
                    v = [-x for x in v]
                self._rows[p] = v
                return
            q = v[p] // row[p]
            v = [x - q * y for x, y in zip(v, row)]
            if v[p]:
                self._rows[p], v = v, row

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        v = list(vec)
        for p in sorted(self._rows):
            if v[p]:
                row = self._rows[p]
                q = v[p] // row[p]
                if q:
                    v = [x - q * y for x, y in zip(v, row)]
        return tuple(v)

    def contains(self, vec: Sequence[int]) -> bool:
        return not any(self.reduce(vec))

    def basis(self) -> list[tuple[int, ...]]:
        return [tuple(self._rows[p]) for p in sorted(self._rows)]


def _cyclic_ab_run(word: tuple[int, ...]) -> int:
    """Longest run of consecutive {a,b} letters in the cyclic word."""
    n = len(word)
    if all(is_ab_letter(x) for x in word):
        return n
    best = run = 0
    for x in word + word:  # doubling covers the wrap
        if is_ab_letter(x):
            run += 1
            best = max(best, min(run, n))
        else:
            run = 0
    return best


class RelatorSystem:
    """Expanded relators plus the matching tables the rewriting search uses."""

    def __init__(self, alphabet: Alphabet, relators: Sequence[Relator],
                 alpha_bar: Fraction = DEFAULT_ALPHA_BAR):
        self.alphabet = alphabet
        self.relators = tuple(relators)
        self.alpha_bar = alpha_bar
        ids = [r.id for r in self.relators]
        if len(set(ids)) != len(ids):
            raise InputError("duplicate relator ids")
        self._by_id = {r.id: r for r in self.relators}
        for r in self.relators:
            for x in r.word:
                if not alphabet.contains(x):
                    raise InputError("relator %s uses letter outside alphabet" % r.id)

        contexts: list[_Context] = []
        seen: set[tuple[int, ...]] = set()
        for ri, rel in enumerate(self.relators):
            for sign in (1, -1):
                base = rel.word if sign == 1 else inverse_letters(rel.word)
                for shift in range(len(base)):
                    rot = base[shift:] + base[:shift]
                    if rot in seen:
                        continue
                    seen.add(rot)
                    contexts.append(_Context(rot, ri, sign, shift))
        self.contexts = tuple(contexts)
        self._inv_context_letters = tuple(inverse_letters(c.letters) for c in contexts)
        by_first: dict[int, list[int]] = {}
        for i, c in enumerate(contexts):
            by_first.setdefault(c.letters[0], []).append(i)
        self.by_first = {k: tuple(v) for k, v in by_first.items()}
        self.max_relator_len = max((len(r.word) for r in self.relators), default=0)
        self.lattice = IntegerLattice(
            [exponent_vector(r.word, alphabet.size) for r in self.relators], alphabet.size
        )
        ab_unit = [0] * alphabet.size
        ab_vectors = []
        for g in (1, 2):
            v = list(ab_unit)
            v[g - 1] = 1
            ab_vectors.append(v)
        self.lattice_mod_ab = IntegerLattice(
            [exponent_vector(r.word, alphabet.size) for r in self.relators] + ab_vectors,
            alphabet.size,
        )
        # ab-lengthening margin: every relator application to a word written
        # over {a,b} grows its reduced length by at least this much (match,
        # plus both cancellation seams, each consume at most one maximal
        # cyclic ab-run of the relator; see the derivation in the tests).
        margins = []
        for rel in self.relators:
            run = _cyclic_ab_run(rel.word)
            margins.append(len(rel.word) - 6 * run)
        self.ab_margin = min(margins) if margins else None

    def relator_by_id(self, rid: str) -> Relator:
        try:
            return self._by_id[rid]
        except KeyError:
            raise ReplayError("unknown relator id %r" % rid)

    @property
    def empty(self) -> bool:
        return not self.relators

    def expvec(self, letters: Sequence[int]) -> tuple[int, ...]:
        return exponent_vector(letters, self.alphabet.size)


# trace helpers (shared formatting; replay below is independent of the search)


def _cancel_steps(letters: Sequence[int]) -> tuple[list[dict], tuple[int, ...]]:
    w = list(letters)
    steps = []
    i = 0
    while i < len(w) - 1:
        if w[i] == -w[i + 1]:
            steps.append({"op": "free-cancel", "position": i})
            del w[i : i + 2]
            i = max(i - 1, 0)
        else:
            i += 1
    return steps, tuple(w)


def _cyclic_reduce_steps(letters: tuple[int, ...]) -> tuple[list[dict], tuple[int, ...]]:
    steps: list[dict] = []
    w = tuple(letters)
    while len(w) >= 2 and w[0] == -w[-1]:
        steps.append({"op": "cyclic-shift", "amount": 1})
        w = w[1:] + w[:1]
        steps.append({"op": "free-cancel", "position": len(w) - 2})
        w = w[:-2]
    return steps, w


def _shift_to_canonical_steps(letters: tuple[int, ...]) -> tuple[list[dict], tuple[int, ...]]:
    canon = min_rotation(letters)
    if canon == letters:
        return [], letters
    for i in range(1, len(letters)):
        if letters[i:] + letters[:i] == canon:
            return [{"op": "cyclic-shift", "amount": i}], canon
    raise BurnlabError("rotation bookkeeping failed")


def replay_trace(system: RelatorSystem, start: Sequence[int], steps: Iterable[dict]) -> tuple[int, ...]:
    """Independent witness checker: apply each recorded step literally,
    validating its preconditions, and return the final letter tuple."""
    w = list(start)
    for step in steps:
        op = step.get("op")
        if op == "relator-insert":
            rel = system.relator_by_id(step["relator-id"])
            sign = step["sign"]
            if sign not in (1, -1):
                raise ReplayError("bad sign %r" % sign)
            base = rel.word if sign == 1 else inverse_letters(rel.word)
            shift = step["shift"]
            if not 0 <= shift < len(base):
                raise ReplayError("bad shift %r" % shift)
            material = base[shift:] + base[:shift]
            pos = step["position"]
            if not 0 <= pos <= len(w):
                raise ReplayError("insert position %r out of range" % pos)
            w[pos:pos] = material
        elif op == "free-cancel":
            pos = step["position"]
            if not (0 <= pos < len(w) - 1 and w[pos] == -w[pos + 1]):
                raise ReplayError("free-cancel at %r does not apply" % pos)
            del w[pos : pos + 2]
        elif op == "cyclic-shift":
            amount = step["amount"]
            if w:
                amount %= len(w)
                w = w[amount:] + w[:amount]
            elif amount:
                raise ReplayError("cyclic-shift on empty word")
        else:
            raise ReplayError("unknown op %r" % op)
    return tuple(w)


def verify_equality_witness(system: RelatorSystem, u: Sequence[int], v: Sequence[int], witness: dict) -> bool:
    start = parse_letters(witness["start"])
    if start != splice_reduce(tuple(u), inverse_letters(tuple(v)), ()):
        return False
    try:
        end = replay_trace(system, start, witness["steps"])
    except ReplayError:
        return False
    return end == ()


def verify_conjugacy_witness(system: RelatorSystem, u: Sequence[int], v: Sequence[int], witness: dict) -> bool:
    start = parse_letters(witness["start"])
    if start != tuple(u):
        return False
    try:
        end = replay_trace(system, start, witness["steps"])
    except ReplayError:
        return False
    core_end, _ = cyclic_reduce_letters(end)
    core_v, _ = cyclic_reduce_letters(tuple(v))
    return min_rotation(core_end) == min_rotation(core_v)


def verify_into_ab_witness(system: RelatorSystem, u: Sequence[int], witness: dict) -> bool:
    start = parse_letters(witness["start"])
    if start != tuple(u):
        return False
    try:
        end = replay_trace(system, start, witness["steps"])
    except ReplayError:
        return False
    return all(is_ab_letter(x) for x in end) and end == parse_letters(witness["target"])


# closure engine


class _Component:
    __slots__ = ("start", "cap", "complete", "parents", "min_word", "states", "applications", "cyclic")

    def __init__(self, start, cap, cyclic):
        self.start = start
        self.cap = cap
        self.cyclic = cyclic
        self.parents: dict[tuple[int, ...], Optional[tuple]] = {start: None}
        self.complete = True
        self.min_word = start
        self.states = 1
        self.applications = 0

    def members(self):
        return self.parents.keys()

    def path_moves(self, target: tuple[int, ...]) -> list[tuple]:
        moves = []
        cur = target
        while True:
            entry = self.parents[cur]
            if entry is None:
                break
            pred, move = entry
            moves.append((pred, move, cur))
            cur = pred
        moves.reverse()
        return moves


class RankOracle:
    """Word/conjugacy/norm decisions over one relator system.

    Complete rewriting components are memoized per (word, cap) key, so
    repeated queries against the same presentation snapshot are cheap.
    Writes to the memo are idempotent: a component is a pure function of
    (start, cap, application budget)."""

    def __init__(self, system: RelatorSystem, default_budget: Optional[OracleBudget] = None):
        self.system = system
        self.default_budget = default_budget or OracleBudget()
        self._lin: tuple[dict, dict] = ({}, {})
        self._cyc: tuple[dict, dict] = ({}, {})

    # successor generation -------------------------------------------------

    def _linear_successors(self, w: tuple[int, ...], cap: int) -> Iterator[tuple[tuple[int, ...], tuple]]:
        sys_ = self.system
        contexts = sys_.contexts
        inv = sys_._inv_context_letters
        n = len(w)
        for p in range(n + 1):
            if p < n:
                for ci in sys_.by_first.get(w[p], ()):
                    T = contexts[ci].letters
                    lmax = min(len(T), n - p)
                    l = 0
                    while l < lmax and T[l] == w[p + l]:
                        l += 1
                    for ov in range(1, l + 1):
                        succ = splice_reduce(w[:p], inv[ci][: len(T) - ov], w[p + ov :])
                        yield succ, (p, ci, ov)
            for ci in range(len(contexts)):
                succ = splice_reduce(w[:p], inv[ci], w[p:])
                yield succ, (p, ci, 0)

    def _cyclic_successors(self, w: tuple[int, ...], cap: int) -> Iterator[tuple[tuple[int, ...], tuple]]:
        sys_ = self.system
        contexts = sys_.contexts
        inv = sys_._inv_context_letters
        n = len(w)
        for start in range(max(1, n)):
            v = w[start:] + w[:start]
            if n:
                for ci in sys_.by_first.get(v[0], ()):
                    T = contexts[ci].letters
                    lmax = min(len(T), n)
                    l = 0
                    while l < lmax and T[l] == v[l]:
                        l += 1
                    for ov in range(1, l + 1):
                        lin = splice_reduce((), inv[ci][: len(T) - ov], v[ov:])
                        core, _ = cyclic_split_reduced(lin)
                        # an over-cap core is still yielded (and so counted
                        # as an application) but never canonicalised: the
                        # closure discards it by length alone
                        yield (core if len(core) > cap else min_rotation(core)), (start, ci, ov)
            for ci in range(len(contexts)):
                lin = splice_reduce((), inv[ci], v)
                core, _ = cyclic_split_reduced(lin)
                if len(core) <= cap:
                    yield min_rotation(core), (start, ci, 0)

    # closure ---------------------------------------------------------------

    def _closure(self, start: tuple[int, ...], cap: int, budget: OracleBudget,
                 cyclic: bool, target: Optional[tuple[int, ...]] = None,
                 stop_on_ab: bool = False) -> _Component:
        """Forward rewriting component of `start` within length cap.

        A complete component is a pure function of (start, cap): the search
        expands states in shortlex order, so any budget large enough to finish
        produces the identical component.  Complete components are therefore
        reusable across queries; early-stopped ones only under their exact
        query key.  (Early termination at a target returns a prefix of the
        same deterministic run, so verdicts and witnesses never depend on
        memo warmth, only the diagnostic state counts do.)
        """
        complete_memo, partial_memo = (self._cyc if cyclic else self._lin)
        hit = complete_memo.get((start, cap))
        if hit is not None and hit.applications <= budget.max_relator_applications:
            return hit
        pkey = (start, cap, budget.max_relator_applications, target, stop_on_ab,
                budget.time_cap)
        hit = partial_memo.get(pkey)
        if hit is not None:
            return hit

        comp = _Component(start, cap, cyclic)
        if self.system.empty:
            complete_memo[(start, cap)] = comp
            return comp

        deadline = None if budget.time_cap is None else time.monotonic() + budget.time_cap
        # margin shortcut: every relator application lengthens an {a,b} word
        # past the cap, so the component is provably the singleton.
        margin = self.system.ab_margin
        if (
            not cyclic
            and margin is not None
            and margin > 0
            and cap - len(start) < margin
            and all(is_ab_letter(x) for x in start)
        ):
            complete_memo[(start, cap)] = comp
            return comp

        successors = self._cyclic_successors if cyclic else self._linear_successors
        heap = [(shortlex_key(start), start)]
        stopped = False
        while heap:
            _, w = heapq.heappop(heap)
            for succ, move in successors(w, cap):
                comp.applications += 1
                if comp.applications > budget.max_relator_applications:
                    comp.complete = False
                    stopped = True
                    break
                if len(succ) > cap or succ in comp.parents:
                    continue
                comp.parents[succ] = (w, move)
                comp.states += 1
                if shortlex_key(succ) < shortlex_key(comp.min_word):
                    comp.min_word = succ
                heapq.heappush(heap, (shortlex_key(succ), succ))
                if target is not None and succ == target:
                    comp.complete = False
                    stopped = True
                    break
                if stop_on_ab and all(is_ab_letter(x) for x in succ):
                    comp.complete = False
                    stopped = True
                    break
            if stopped:
                break
            if deadline is not None and time.monotonic() > deadline:
                comp.complete = False
                break
        if comp.complete:
            complete_memo[(start, cap)] = comp
        else:
            partial_memo[pkey] = comp
        return comp

    # trace assembly --------------------------------------------------------

    def _edge_steps_linear(self, pred, move, succ) -> list[dict]:
        p, ci, ov = move
        ctx = self.system.contexts[ci]
        rel = self.system.relators[ctx.relator_index]
        n = len(rel.word)
        steps = [
            {
                "op": "relator-insert",
                "position": p,
                "relator-id": rel.id,
                "sign": -ctx.sign,
                "shift": (n - ctx.shift) % n,
            }
        ]
        combined = pred[:p] + inverse_letters(ctx.letters) + pred[p:]
        csteps, red = _cancel_steps(combined)
        if red != succ:
            raise BurnlabError("trace assembly mismatch")
        steps.extend(csteps)
        return steps

    def _edge_steps_cyclic(self, pred, move, succ) -> list[dict]:
        rot, ci, ov = move
        ctx = self.system.contexts[ci]
        rel = self.system.relators[ctx.relator_index]
        n = len(rel.word)
        steps: list[dict] = []
        v = pred
        if rot:
            steps.append({"op": "cyclic-shift", "amount": rot})
            v = pred[rot:] + pred[:rot]
        steps.append(
            {
                "op": "relator-insert",
                "position": 0,
                "relator-id": rel.id,
                "sign": -ctx.sign,
                "shift": (n - ctx.shift) % n,
            }
        )
        combined = inverse_letters(ctx.letters) + v
        csteps, red = _cancel_steps(combined)
        steps.extend(csteps)
        rsteps, core = _cyclic_reduce_steps(red)
        steps.extend(rsteps)
        fsteps, canon = _shift_to_canonical_steps(core)
        steps.extend(fsteps)
        if canon != succ:
            raise BurnlabError("cyclic trace assembly mismatch")
        return steps

    def _trace(self, comp: _Component, target: tuple[int, ...], start_word: tuple[int, ...],
               prefix_steps: Optional[list[dict]] = None) -> dict:
        steps = list(prefix_steps or [])
        for pred, move, succ in comp.path_moves(target):
            if comp.cyclic:
                steps.extend(self._edge_steps_cyclic(pred, move, succ))
            else:
                steps.extend(self._edge_steps_linear(pred, move, succ))
        return {"start": format_letters(start_word), "steps": steps}

    # budget plumbing -------------------------------------------------------

    def _budget(self, budget: Optional[OracleBudget]) -> OracleBudget:
        return budget or self.default_budget

    def _use(self, comp: _Component) -> BudgetUse:
        return BudgetUse(states=comp.states, applications=comp.applications,
                         cap=comp.cap, complete=comp.complete)

    # public queries ----------------------------------------------------------

    def equal(self, u: Sequence[int] | Word, v: Sequence[int] | Word,
              budget: Optional[OracleBudget] = None) -> Verdict:
        budget = self._budget(budget)
        tu, tv = _letters(u), _letters(v)
        w = splice_reduce(tu, inverse_letters(tv), ())
        if not w:
            return Verdict("yes", witness={"start": "", "steps": []},
                           budget_used=BudgetUse(1, 0, 0, True))
        if self.system.empty:
            return Verdict("no", certificate={"kind": "rank-0", "op": "equal"},
                           budget_used=BudgetUse(1, 0, len(w), True))
        residue = self.system.lattice.reduce(self.system.expvec(w))
        if any(residue):
            return Verdict(
                "no",
                certificate={
                    "kind": "abelian-residue",
                    "op": "equal",
                    "residue": list(residue),
                    "lattice": [list(b) for b in self.system.lattice.basis()],
                },
                budget_used=BudgetUse(1, 0, len(w), True),
            )
        slack = budget.max_ball_radius
        margin = self.system.ab_margin
        if margin is not None and margin > 0 and all(is_ab_letter(x) for x in w):
            slack = min(slack, margin - 1)
        cap = len(w) + slack
        comp = self._closure(w, cap, budget, cyclic=False, target=())
        if () in comp.parents:
            return Verdict("yes", witness=self._trace(comp, (), w), budget_used=self._use(comp))
        if comp.complete:
            return Verdict(
                "no",
                certificate={"kind": "exhaustion", "op": "equal", "cap": cap,
                             "states": comp.states, "applications": comp.applications},
                budget_used=self._use(comp),
            )
        return Verdict("unknown", budget_used=self._use(comp))

    def norm(self, u: Sequence[int] | Word, budget: Optional[OracleBudget] = None) -> NormBounds:
        budget = self._budget(budget)
        w = splice_reduce(_letters(u), (), ())
        if not w:
            return NormBounds(0, 0, True, budget_used=BudgetUse(1, 0, 0, True))
        if self.system.empty:
            return NormBounds(len(w), len(w), True, budget_used=BudgetUse(1, 0, len(w), True))
        slack = budget.max_ball_radius
        margin = self.system.ab_margin
        if margin is not None and margin > 0 and all(is_ab_letter(x) for x in w):
            slack = min(slack, margin - 1)
        cap = len(w) + slack
        comp = self._closure(w, cap, budget, cyclic=False)
        upper = len(comp.min_word)
        witness = None
        if upper < len(w):
            witness = self._trace(comp, comp.min_word, w)
        if comp.complete:
            return NormBounds(upper, upper, True, witness=witness, budget_used=self._use(comp))
        residue = self.system.lattice.reduce(self.system.expvec(w))
        lower = 1 if any(residue) else 0
        return NormBounds(lower, upper, False, witness=witness, budget_used=self._use(comp))

    def canonical(self, u: Sequence[int] | Word, budget: Optional[OracleBudget] = None) -> tuple[tuple[int, ...], bool]:
        """Shortlex-least word in the bounded rewriting component; flag states
        whether the component was exhausted."""
        budget = self._budget(budget)
        w = splice_reduce(_letters(u), (), ())
        if self.system.empty:
            return w, True
        slack = budget.max_ball_radius
        margin = self.system.ab_margin
        if margin is not None and margin > 0 and w and all(is_ab_letter(x) for x in w):
            slack = min(slack, margin - 1)
        comp = self._closure(w, len(w) + slack, budget, cyclic=False)
        return comp.min_word, comp.complete

    def cyclic_canonical(self, u: Sequence[int] | Word, cap: Optional[int] = None,
                         budget: Optional[OracleBudget] = None) -> tuple[tuple[int, ...], bool]:
        budget = self._budget(budget)
        core, _ = cyclic_reduce_letters(_letters(u))
        cu = min_rotation(core)
        if self.system.empty:
            return cu, True
        if cap is None:
            cap = len(cu) + budget.max_ball_radius
        comp = self._closure(cu, cap, budget, cyclic=True)
        return comp.min_word, comp.complete

    def conjugate(self, u: Sequence[int] | Word, v: Sequence[int] | Word,
                  budget: Optional[OracleBudget] = None) -> Verdict:
        budget = self._budget(budget)
        tu, tv = _letters(u), _letters(v)
        core_u, _ = cyclic_reduce_letters(tu)
        core_v, _ = cyclic_reduce_letters(tv)
        cu, cv = min_rotation(core_u), min_rotation(core_v)
        bound = budget.conjugator_bound(len(tu), len(tv), self.system.alpha_bar)
        if cu == cv:
            prefix = self._free_cyclic_prefix(tu, cu)
            return Verdict("yes", witness={"start": format_letters(tu), "steps": prefix,
                                           "conjugator-bound": bound},
                           budget_used=BudgetUse(1, 0, len(cu), True))
        if self.system.empty:
            return Verdict("no", certificate={"kind": "rank-0", "op": "conjugate"},
                           budget_used=BudgetUse(1, 0, max(len(cu), len(cv)), True))
        diff = [x - y for x, y in zip(self.system.expvec(tu), self.system.expvec(tv))]
        residue = self.system.lattice.reduce(diff)
        if any(residue):
            return Verdict(
                "no",
                certificate={"kind": "abelian-residue", "op": "conjugate",
                             "residue": list(residue),
                             "lattice": [list(b) for b in self.system.lattice.basis()]},
                budget_used=BudgetUse(1, 0, max(len(cu), len(cv)), True),
            )
        cap = max(len(cu), len(cv)) + budget.max_ball_radius
        comp = self._closure(cu, cap, budget, cyclic=True, target=cv)
        if cv in comp.parents:
            prefix = self._free_cyclic_prefix(tu, cu)
            witness = self._trace(comp, cv, tu, prefix_steps=prefix)
            witness["conjugator-bound"] = bound
            return Verdict("yes", witness=witness, budget_used=self._use(comp))
        if comp.complete:
            return Verdict(
                "no",
                certificate={"kind": "exhaustion", "op": "conjugate", "cap": cap,
                             "states": comp.states, "applications": comp.applications,
                             "conjugator-bound": bound},
                budget_used=self._use(comp),
            )
        return Verdict("unknown", budget_used=self._use(comp))

    def conjugate_into_ab(self, u: Sequence[int] | Word,
                          budget: Optional[OracleBudget] = None) -> Verdict:
        budget = self._budget(budget)
        tu = _letters(u)
        core, _ = cyclic_reduce_letters(tu)
        cu = min_rotation(core)
        if all(is_ab_letter(x) for x in cu):
            prefix = self._free_cyclic_prefix(tu, cu)
            return Verdict("yes", witness={"start": format_letters(tu), "steps": prefix,
                                           "target": format_letters(cu)},
                           budget_used=BudgetUse(1, 0, len(cu), True))
        if self.system.empty:
            return Verdict("no", certificate={"kind": "rank-0", "op": "conjugate-into-ab"},
                           budget_used=BudgetUse(1, 0, len(cu), True))
        residue = self.system.lattice_mod_ab.reduce(self.system.expvec(tu))
        if any(residue):
            return Verdict(
                "no",
                certificate={"kind": "abelian-residue", "op": "conjugate-into-ab",
                             "residue": list(residue),
                             "lattice": [list(b) for b in self.system.lattice_mod_ab.basis()]},
                budget_used=BudgetUse(1, 0, len(cu), True),
            )
        cap = len(cu) + budget.max_ball_radius
        comp = self._closure(cu, cap, budget, cyclic=True, stop_on_ab=True)
        hits = sorted((w for w in comp.parents if all(is_ab_letter(x) for x in w)),
                      key=shortlex_key)
        if hits:
            target = hits[0]
            prefix = self._free_cyclic_prefix(tu, cu)
            witness = self._trace(comp, target, tu, prefix_steps=prefix)
            witness["target"] = format_letters(target)
            return Verdict("yes", witness=witness, budget_used=self._use(comp))
        if comp.complete:
            return Verdict(
                "no",
                certificate={"kind": "exhaustion", "op": "conjugate-into-ab", "cap": cap,
                             "states": comp.states, "applications": comp.applications},
                budget_used=self._use(comp),
            )
        return Verdict("unknown", budget_used=self._use(comp))

    def _free_cyclic_prefix(self, tu: tuple[int, ...], cu: tuple[int, ...]) -> list[dict]:
        """Steps taking the literal word tu to the canonical rotation cu of its
        cyclic core, using only shifts and cancellations."""
        steps, core = _cyclic_reduce_steps(tu)
        fsteps, canon = _shift_to_canonical_steps(core)
        if canon != cu:
            raise BurnlabError("cyclic prefix bookkeeping failed")
        return steps + fsteps


def _letters(u: Sequence[int] | Word) -> tuple[int, ...]:
    if isinstance(u, Word):
        return u.letters
    return splice_reduce(tuple(u), (), ())


def find_conjugator(oracle: RankOracle, u: Sequence[int] | Word, v: Sequence[int] | Word,
                    max_len: Optional[int] = None,
                    budget: Optional[OracleBudget] = None) -> Optional[Word]:
    """Literal conjugator search: smallest Z (shortlex, |Z| <= bound) with
    Z u Z^-1 = v certified.  Exponential in the bound; used for cross-checks."""
    budget = oracle._budget(budget)
    tu, tv = _letters(u), _letters(v)
    if max_len is None:
        max_len = budget.conjugator_bound(len(tu), len(tv), oracle.system.alpha_bar)
    from .words import reduced_words_up_to

    for z in reduced_words_up_to(oracle.system.alphabet, max_len):
        cand = splice_reduce(z, tu, inverse_letters(z))
        if oracle.equal(cand, tv, budget).is_yes:
            return Word(z)
    return None
