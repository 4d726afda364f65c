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

`RankOracle._decide` is the one place this policy is applied: `equal`,
`conjugate` and `conjugate_into_ab` only choose its start word, target,
exponent lattice and witness extras.

Raising a budget component can only resolve unknowns; within a fixed cap the
search is deterministic (states expand in shortlex order), so verdicts do not
depend on scheduling or worker counts.

Search moves are Dehn-style: a relator application replaces a matched prefix
of a rotated relator by the inverse of its complement.  Every such move
equals inserting one whole rotated relator and then freely cancelling, which
is exactly what traces record and the replayer performs.

The move budget counts the moves that reach a word the search has not seen,
so a search holds at most budget + 1 words.  The count depends only on the
order in which words are first reached, so a move that cannot reach a new
word may be skipped unbuilt: a move over the length cap (a successor's reduced
length follows from the overlap and the seam cancellations), every overlap of
one context at one position after the first (they all give the same word),
a linear move whose inserted piece cancels against the letter on its
left, which repeats the earlier move one place left with the context rotated
by one: when w[p-1] == T[-1], w[:p] T^-1 w[p:] = w[:p-1] T[:-1]^-1 w[p:]
= w[:p-1] (T[-1] T[:-1])^-1 w[p-1:], and, when the room cap - |w| is below
the shortest relator, every insertion that rule (or, past rotation 0 of the
cyclic search, its cyclic twin) keeps: it cancels no letter, so it adds |T|
letters and ends over the cap.

Both searches run on `words.encode_letters` strings.  Queries take and
return letter tuples and `Word`s; only two entries speak the encoding:
`cyclic_component` hands its members out encoded, to `presentation`'s
admission rules, and `canonical_encoded` takes and returns one encoded word,
for `cayley.enumerate_ball`.
"""

from __future__ import annotations

import heapq
import json
import math
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .errors import BurnlabError, InputError
from .records import Record
from .words import (
    AB_CODES,
    Alphabet,
    Word,
    cyclic_rep,
    decode_letters,
    encode_letters,
    exponent_vector,
    format_letters,
    inverse_encoded,
    inverse_letters,
    is_ab_letter,
    is_ab_word,
    is_cyclically_reduced,
    min_rotation,
    min_rotation_encoded,
    parse_letters,
    reduce_letters,
    splice_reduce,
)


class ReplayError(BurnlabError):
    """A witness trace failed to replay."""


DEFAULT_ALPHA_BAR = Fraction(1, 2) + Fraction(1, 100)


class OracleBudget(Record):
    """Resource caps for one oracle query.

    max_ball_radius: extra reduced length, above the query words, that the
        rewriting search may visit.
    max_relator_applications: number of rewriting moves that reach a word
        not yet in the search's component, so a search holds at most this
        many words plus its start.  Moves over the cap, and moves to a word
        already reached, are not charged.

    Every cap counts letters or moves, never time, so a query's verdict is
    the same on every run and host.
    """

    max_ball_radius: int = 4
    max_relator_applications: int = 50_000

    def __post_init__(self):
        if self.max_ball_radius < 0:
            raise InputError("max_ball_radius must be >= 0")
        if self.max_relator_applications < 1:
            raise InputError("max_relator_applications must be >= 1")


# the budget of every query, command and report that is given none
DEFAULT_BUDGET = OracleBudget()


class BudgetUse(Record):
    states: int
    applications: int
    cap: int
    complete: bool


class Verdict(Record):
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
        return json.dumps(self._asdict(), sort_keys=True)


class NormBounds(Record):
    lower: int
    upper: int
    exact: bool
    witness: Optional[dict] = None
    budget_used: Optional[BudgetUse] = None


class Relator(Record):
    """One expanded relator word.  rank 0 marks ad-hoc relators."""

    id: str
    word: tuple[int, ...]
    rank: int = 0

    def __post_init__(self):
        if not self.word:
            raise InputError("relator %s is empty" % self.id)
        if not is_cyclically_reduced(self.word):
            raise InputError("relator %s is not cyclically reduced" % self.id)


class _Context(Record):
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
    if is_ab_word(word):
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
        # the encoded record (ci, T, T^-1, |T|) of each context, as the
        # successor generators unpack it
        records: list[tuple] = []
        seen: set[tuple[int, ...]] = set()
        for ri, rel in enumerate(self.relators):
            n = len(rel.word)
            words = {1: rel.word, -1: inverse_letters(rel.word)}
            codes = {sign: encode_letters(w) for sign, w in words.items()}
            for sign, base in words.items():
                for shift in range(n):
                    rot = base[shift:] + base[:shift]
                    if rot in seen:
                        continue
                    seen.add(rot)
                    # rot^-1 is the rotation of the other word at n - shift
                    code, inv_code, j = codes[sign], codes[-sign], n - shift
                    records.append((len(contexts), code[shift:] + code[:shift],
                                    inv_code[j:] + inv_code[:j], n))
                    contexts.append(_Context(rot, ri, sign, shift))
        self.contexts = tuple(contexts)
        self._inv_context_letters = tuple(decode_letters(r[2]) for r in records)
        self._records = tuple(records)
        by_first: dict[str, list[tuple]] = {}
        by_last: dict[str, list[tuple]] = {}
        for rec in self._records:
            by_first.setdefault(rec[1][0], []).append(rec)
            by_last.setdefault(rec[1][-1], []).append(rec)
        self.by_first = {k: tuple(v) for k, v in by_first.items()}
        self.by_last = {k: tuple(v) for k, v in by_last.items()}
        self.max_relator_len = max((len(r.word) for r in self.relators), default=0)
        self.min_relator_len = min((len(r.word) for r in self.relators), default=0)
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

    def conjugator_bound(self, len_u: int, len_v: int) -> int:
        """Conjugator length bound ceil(alpha_bar * (|u| + |v|)) recorded with
        conjugacy verdicts."""
        return math.ceil(self.alpha_bar * (len_u + len_v))

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


def _cyclic_rep_steps(letters: tuple[int, ...], rep: tuple[int, ...]) -> list[dict]:
    """Steps taking `letters` to `rep`, the least rotation of its cyclic core,
    using only shifts and cancellations."""
    steps, core = _cyclic_reduce_steps(letters)
    fsteps, canon = _shift_to_canonical_steps(core)
    if canon != rep:
        raise BurnlabError("cyclic trace assembly mismatch")
    return steps + fsteps


def insert_material(system: RelatorSystem, step: dict) -> tuple[Relator, tuple[int, ...]]:
    """The relator a relator-insert step names and the letters it inserts."""
    rel = system.relator_by_id(step["relator-id"])
    sign, shift = step["sign"], step["shift"]
    if sign not in (1, -1):
        raise ReplayError("bad sign %r" % sign)
    if not 0 <= shift < len(rel.word):
        raise ReplayError("bad shift %r" % shift)
    base = rel.word if sign == 1 else inverse_letters(rel.word)
    return rel, base[shift:] + base[:shift]


def replay_trace(system: RelatorSystem, start: Sequence[int], steps: Iterable[dict]) -> tuple[int, ...]:
    """Independent witness checker: apply each recorded step literally,
    validating its preconditions, and return the final letter tuple."""
    w = list(start)
    for step in steps:
        op = step.get("op")
        if op == "relator-insert":
            material = insert_material(system, step)[1]
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


def _replay_witness(system: RelatorSystem, start: tuple[int, ...], witness: dict
                    ) -> Optional[tuple[int, ...]]:
    """The word a witness's steps reach, or None when its recorded start is
    not `start` or a step does not replay."""
    if parse_letters(witness["start"]) != start:
        return None
    try:
        return replay_trace(system, start, witness["steps"])
    except ReplayError:
        return None


# the verifiers reduce raw query tuples freely, as the oracle's `_letters` does
def verify_equality_witness(system: RelatorSystem, u: Sequence[int], v: Sequence[int], witness: dict) -> bool:
    start = splice_reduce(reduce_letters(u), inverse_letters(reduce_letters(v)), ())
    return _replay_witness(system, start, witness) == ()


def verify_conjugacy_witness(system: RelatorSystem, u: Sequence[int], v: Sequence[int], witness: dict) -> bool:
    end = _replay_witness(system, reduce_letters(u), witness)
    return end is not None and cyclic_rep(end) == cyclic_rep(v)


def verify_into_ab_witness(system: RelatorSystem, u: Sequence[int], witness: dict) -> bool:
    end = _replay_witness(system, reduce_letters(u), witness)
    return end is not None and is_ab_word(end) and end == parse_letters(witness["target"])


# closure engine


class _Component:
    """A rewriting component within a cap, its words encoded: `parents` maps
    each to the predecessor whose move first reached it (None at the start),
    in the order they were added, and `_min_word` is the least, which
    `min_word` reads as a letter tuple.

    The memo keeps a complete cyclic component whole; a complete linear one
    it keeps as a chain tuple, from which `from_chain` rebuilds a component
    whose `parents` holds only the least word's predecessor chain, with the
    whole run's counts and flags.  The tuple also names the least inverse of
    a member; `RankOracle.canonical_encoded` reads it, and the least word,
    straight from the tuple, without a component."""

    __slots__ = ("cap", "complete", "parents", "_min_word", "states", "applications",
                 "cyclic")

    def __init__(self, start: str, cap, cyclic):
        self.cap = cap
        self.cyclic = cyclic
        self.parents: dict[str, Optional[str]] = {start: None}
        self.complete = True
        self._min_word = start
        self.states = 1
        self.applications = 0

    @property
    def min_word(self) -> tuple[int, ...]:
        return decode_letters(self._min_word)

    def find(self, target: Optional[str] = None) -> Optional[str]:
        """`target` if it is a member, else None; with no target, the least
        member written over {a, b}, which `conjugate_into_ab` and
        `is_simple` name."""
        if target is None:
            return min(filter(AB_CODES.issuperset, self.parents), key=_encoded_key, default=None)
        return target if target in self.parents else None

    @classmethod
    def from_chain(cls, chain: tuple, cap: int) -> _Component:
        """The complete linear component of a memo entry `chain` =
        (applications, mirror_min, min_word, pred, ..., start): its
        `parents` is {min_word: pred, ..., start: None}, read from index 2;
        `mirror_min` serves only `RankOracle.canonical_encoded` of the
        inverse start.  A complete search adds one word per charged move, so
        states = applications + 1.  A linear reader needs no more: `norm`
        reads the least word and traces it, and `equal` targets the empty
        word, a member exactly when it is the least."""
        comp = cls(chain[-1], cap, False)
        comp.parents.update(zip(chain[2:], chain[3:]))
        comp._min_word, comp.applications, comp.states = chain[2], chain[0], chain[0] + 1
        return comp


class RankOracle:
    """Word/conjugacy/norm decisions over one relator system.

    Complete rewriting components are memoized in one dict keyed
    (start, cap, cyclic), so repeated queries against the same presentation
    snapshot are cheap.  Writes to the memo are idempotent: a complete
    component is a pure function of (start, cap, cyclic), and holds only
    each member's predecessor: `_trace` derives the moves again.  A cyclic
    entry keeps every member, which `is_simple` and `_conjugacy_test` read
    encoded; a linear entry is the tuple (applications, mirror_min,
    min_word, pred, ..., start): `mirror_min` is the least inverse of a
    member, and the rest is its least word's predecessor chain, which
    `_Component.from_chain` reads for the queries that trace it;
    `canonical_encoded` reads a hit's min_word from the tuple alone.

    The mirror rule.  The contexts are every rotation of every relator and
    of its inverse, so w -> w' is a move exactly when w^-1 -> w'^-1 is one,
    and `_linear_cap` depends only on |w| and on whether w is over {a, b},
    both kept by inversion.  So the linear component of u within a cap is
    the set of inverses of the members of u^-1's component within that
    cap, with as many states and charged moves: it is complete, within a
    budget, exactly when u^-1's is, and its least word is u^-1's entry's
    `mirror_min`.  Only `canonical_encoded` (and so `canonical`) answers
    from that entry, with no search:
    `equal` and `norm` return a trace from their own start word, so they
    search or read their own entry, and no witness depends on what the memo
    holds."""

    def __init__(self, system: RelatorSystem):
        self.system = system
        self._components: dict[tuple, _Component | tuple] = {}
        # room -> w[p] -> w[p+1] ('' at the end) -> the overlap records,
        # each with the prefix of T it must match, `_linear_successors` tries
        self._linear_overlaps: dict[int, dict[str, dict[str, tuple[tuple, ...]]]] = {}
        # (room, left, right) -> `_plain_inserts`, for `_linear_successors`
        # and for `_cyclic_successors` past rotation 0; '' stands for no letter
        self._inserts: dict[tuple, tuple[tuple, ...]] = {}
        # (room, v[0], v[-1], v[1]) -> the overlap records `_cyclic_successors`
        # tries past rotation 0
        self._cyclic_overlaps: dict[tuple, tuple[tuple, ...]] = {}
        # (room, v[-2:], v[0]) -> `insertion_candidates`, for rotation 0
        self._insertion_candidates: dict[tuple, tuple[tuple, ...]] = {}
        # room -> the records with |T| <= room, for `insertion_candidates`
        self._fitting: dict[int, frozenset[tuple]] = {}

    # successor generation -------------------------------------------------
    #
    # Both generators return a list of (succ, move) in a fixed enumeration
    # order, for the moves whose result is within the cap and not a repeat of
    # an earlier overlap of the same context at the same place, nor of a move
    # one place left (one rotation back in the cyclic search; see below).  The
    # closure charges a move only when its word is new, so the generators must
    # reach each new word first by the same move as the full enumeration.
    # `_trace` relies on this "first new occurrence, fixed order" rule: the
    # closure keeps only a new word's predecessor, whose first move to it is
    # the one charged.  The moves of one context T matching the word on l
    # letters there, ov = 1..l and the insertion ov = 0, all give (T[l:])^-1
    # followed by the rest of the word, so only ov = 1 is built.  The loops
    # unpack the context records (ci, T, T^-1, |T|) that `by_first`, the
    # insertion memos and the overlap index hand out.
    #
    # A move's result has |w| + |T| - 2l - 2j letters, j being the letters
    # that cancel where the inserted piece meets the word: j <= jmax, and the
    # result shrinks further only when a whole piece cancels (j == jmax).
    # In the linear search a move with j >= 1 (w[p-1] == T[-1]) repeats the
    # move at p-1 with the context T[-1] T[:-1]: w[:p] T^-1 w[p:] =
    # w[:p-1] T[:-1]^-1 w[p:] = w[:p-1] (T[-1] T[:-1])^-1 w[p-1:].  So each
    # chain of repeats has one member with j == 0, its leftmost, and the
    # linear generator builds only those.  An insertion among them cancels
    # nothing and adds |T| letters, so below room = min |T| none fits and
    # the generator scans for none.  An overlap among them fits exactly when
    # |T| - 2l <= room, that is when w[p:] starts with the prefix
    # T[:max(1, ceil((|T| - room) / 2))], so a context with |T| - 2 > room
    # must match two letters or more: `_linear_overlaps` keeps, per room,
    # w[p] and w[p+1], the records of w[p]'s contexts with |T| - 2 <= room
    # or T[1] == w[p+1], in ascending index order, each with its prefix, and
    # a letter that starts no context costs one lookup.  T[1] is read only
    # when |T| > 2.
    #
    # The cyclic search has the same rule across rotations.  At rotation
    # start >= 1, a move on v = w[start:] + w[:start] whose outer ends trim
    # (v[-1] == T[-1], j >= 1) gives the cyclic word T[l:]^-1 v[l:] of the
    # overlap move (start - 1, T[-1] T[:-1], 1) on v[-1] v[:-1], which the
    # same expansion builds earlier; rotation 0 keeps every move, its twins
    # being at rotation n - 1, later.  So past rotation 0 only moves with
    # v[-1] != T[-1] are built, and nothing trims at the outer ends:
    # - an insertion fits exactly when |T| <= room = cap - |w|, so none does
    #   below room = min |T|, and the records that do are the linear
    #   generator's `_plain_inserts` under (room, v[-1], v[0]);
    # - an overlap first tests whether it can fit: with
    #   k = ceil((|v| + |T| - 2l - cap) / 2) > 0, a core within the cap needs
    #   j >= min(k, jmax), jmax = min(|T|, |v|) - l, so v and T must end in
    #   the same min(k, jmax) letters, and `_cyclic_splice` runs only when
    #   they agree.  Past rotation 0 that rules out any overlap with k > 0
    #   and jmax > 0: a context with |T| - 2 > room must match two letters
    #   or more.  `_cyclic_overlaps` keeps, per (room, v[0], v[-1], v[1]),
    #   the records of `by_first[v[0]]` with T[-1] != v[-1] and either
    #   |T| - 2 <= room or T[1] == v[1], in ascending index order.

    def _linear_successors(self, w: str, cap: int) -> list[tuple]:
        """At each position p of the encoded word w: the overlap moves
        (p, ci, ov), ov = 1..l, of every context matching w[p:] on l
        letters, then the insertions (p, ci, 0) of every context.  A
        successor is w[:p] (T[l:])^-1 w[p+l:] freely reduced, with l maximal,
        so its right seam never cancels.  A move whose left seam cancels
        (w[p-1] == T[-1]) repeats the move at p-1 with T rotated by one, so
        only moves with w[p-1] != T[-1] are built: their word has
        |w| + |T| - 2l letters, and only when the whole context matches
        (l == |T|) do the two ends of w cancel further.  Overlaps come from
        the two-letter index `_linear_overlaps`; insertions are looked up
        only when room >= min |T|."""
        n = len(w)
        room = cap - n
        by_first, records = self.system.by_first, self.system._records
        index = self._linear_overlaps.get(room)
        if index is None:
            index = self._linear_overlaps[room] = {first: {} for first in by_first}
        memo = self._inserts
        fits = room >= self.system.min_relator_len
        out = []
        left = ""  # w[p - 1], or '' at the start
        for p, right in enumerate(w):
            nexts = index.get(right)
            if nexts is not None:
                nxt = w[p + 1 : p + 2]
                overlaps = nexts.get(nxt)
                if overlaps is None:
                    overlaps = nexts[nxt] = tuple(
                        (ci, T, T_inv, L, T[:max(1, (L - room + 1) // 2)])
                        for ci, T, T_inv, L in by_first[right]
                        if L - 2 <= room or T[1] == nxt)
                rest = n - p
                for ci, T, T_inv, L, prefix in overlaps:
                    if left == T[-1] or not w.startswith(prefix, p):
                        continue
                    lmax = L if L < rest else rest
                    l = len(prefix)
                    while l < lmax and T[l] == w[p + l]:
                        l += 1
                    if l < L:
                        succ = w[:p] + T_inv[:L - l] + w[p + l:]
                    else:  # w[:a] now meets w[b:] and may cancel further
                        a, b = p, p + L
                        while a and b < n and ord(w[a - 1]) ^ 1 == ord(w[b]):
                            a -= 1
                            b += 1
                        succ = w[:a] + w[b:]
                    out.append((succ, (p, ci, 1)))
            if fits:
                inserts = memo.get((room, left, right))
                if inserts is None:
                    inserts = memo[room, left, right] = _plain_inserts(
                        records, room, left, right)
                if inserts:
                    head, tail = w[:p], w[p:]
                    for ci, _, T_inv, _ in inserts:
                        out.append((head + T_inv + tail, (p, ci, 0)))
            left = right
        if fits:  # p = n: no letter to overlap, insertions only
            inserts = memo.get((room, left, ""))
            if inserts is None:
                inserts = memo[room, left, ""] = _plain_inserts(records, room, left, "")
            for ci, _, T_inv, _ in inserts:
                out.append((w + T_inv, (n, ci, 0)))
        return out

    def _cyclic_successors(self, w: str, cap: int) -> list[tuple]:
        """For each rotation v = w[start:] + w[:start]: the overlap moves
        (start, ci, ov), ov = 1..l, of every context matching v on l letters,
        then the insertions (start, ci, 0) whose core is within the cap.
        Results are canonical rotations of cyclic cores.  Past rotation 0 a
        move whose outer ends trim (v[-1] == T[-1]) repeats the overlap move
        at start - 1 with T rotated by one, so only moves with
        v[-1] != T[-1] are built there: the insertions are the linear
        kernel's `_plain_inserts`, each core T^-1 v whole, and the
        overlaps those of the `_cyclic_overlaps` index, and insertions are
        looked up only when room >= min |T|.  Rotation 0 builds every move,
        its insertions from `insertion_candidates`."""
        sys_ = self.system
        by_first = sys_.by_first
        overlaps_memo = self._cyclic_overlaps
        inserts_memo = self._inserts
        n = len(w)
        room = cap - n
        fits = room >= sys_.min_relator_len
        out = []
        for start in range(max(1, n)):
            v = w[start:] + w[:start]
            if start:
                first, second, last = v[0], v[1], v[-1]
                key = (room, first, last, second)
                overlaps = overlaps_memo.get(key)
                if overlaps is None:
                    overlaps = overlaps_memo[key] = tuple(
                        r for r in by_first.get(first, ())
                        if r[1][-1] != last and (r[3] - 2 <= room or r[1][1] == second))
            else:
                first = v[:1]
                overlaps = by_first.get(first, ())
            for ci, T, T_inv, L in overlaps:
                lmax = L if L < n else n
                l = 1
                while l < lmax and T[l] == v[l]:
                    l += 1
                k = (L - 2 * l - room + 1) // 2
                if k > 0:
                    # the last min(k, jmax) letters must match, jmax = lmax - l
                    need = k if k < lmax - l else lmax - l
                    if need and (v[-1] != T[-1] or need > 1 and v[-need:] != T[-need:]):
                        continue
                core = _cyclic_splice(v, T, T_inv, l, cap)
                if core is not None:
                    out.append((core, (start, ci, 1)))
            if start:
                # neither end trims, so T^-1 v is the whole core
                if fits:
                    inserts = inserts_memo.get((room, last, first))
                    if inserts is None:
                        inserts = inserts_memo[room, last, first] = _plain_inserts(
                            sys_._records, room, last, first)
                    for ci, _, T_inv, _ in inserts:
                        out.append((min_rotation_encoded(T_inv + v), (start, ci, 0)))
                continue
            # v wraps around, so no boundary stops the trimming
            for ci, T, T_inv, _ in self.insertion_candidates(room, v[-2:], first):
                core = _cyclic_splice(v, T, T_inv, 0, cap)
                if core is not None:
                    out.append((core, (start, ci, 0)))
        return out

    def insertion_candidates(self, room: int, before: str, right: str) -> tuple[tuple, ...]:
        """Records, by ascending index, of the contexts T whose whole-relator
        insertion T^-1 just before the letter `right` may stay within `room`
        extra letters, and is not also an overlap move (T does not start with
        `right`).  Over the room, the insertion must cancel at least
        ceil((|T| - room) / 2) letters of its left neighbours `before`, so T
        must end with the last min(2, |before|, that many) of them.  Only
        rotation 0 of the cyclic search asks for these: past it, a move whose
        outer ends trim is a repeat and is not built, so the insertions that
        remain are `_plain_inserts`.

        So when `before` is not empty, a context over the room must end with
        before[-1]: a miss tests only the contexts that fit (`_fitting`) and
        those ending with before[-1] (`by_last`), in index order."""
        key = (room, before, right)
        hit = self._insertion_candidates.get(key)
        if hit is None:
            records = self.system._records
            if before:
                fitting = self._fitting.get(room)
                if fitting is None:
                    fitting = self._fitting[room] = frozenset(r for r in records if r[3] <= room)
                records = self.system.by_last.get(before[-1], ())
                if fitting:
                    records = sorted(fitting.union(records))
            hit = self._insertion_candidates[key] = tuple(
                r for r in records if r[1][0] != right
                and r[1].endswith(before[max(0, len(before) - (r[3] - room + 1) // 2):]))
        return hit

    # closure ---------------------------------------------------------------

    def _closure(self, start: str, cap: int, budget: OracleBudget,
                 cyclic: bool, stop: Optional[Callable] = None) -> _Component:
        """Forward rewriting component of `start` within length cap.  The one
        stop rule: the search ends, incomplete, at the first word past `start`
        it adds for which `stop(word)` is true.

        A complete component is a pure function of (start, cap, cyclic): the
        search expands states in shortlex order, so any budget large enough to
        finish produces the identical component.  Complete components are
        memoized under that key and reused by every query whose move budget
        covers them, whatever its stop rule; a search stopped early, by its
        budget or its stop rule, is not kept.  (A stopped search is a prefix
        of the same deterministic run: verdicts and witnesses never depend on
        memo warmth, only state counts do.)  A cyclic entry holds every
        member with its predecessor; a linear entry is the tuple
        (applications, mirror_min, min_word, pred, ..., start): the least
        `inverse_encoded` member, by shortlex, taken while the whole run is
        at hand, then the least word's chain, rebuilt by
        `_Component.from_chain` on a hit, though the fresh run returns its
        whole component.

        The heap holds the shortlex keys (|w|, w) themselves, and the least
        key seen is the least word.  Inversion keeps length, so mirror_min
        is the least inverse of the members as long as the least word."""
        memo_key = (start, cap, cyclic)
        hit = self._components.get(memo_key)
        if hit is not None and (hit.applications if cyclic else hit[0]) \
                <= budget.max_relator_applications:
            return hit if cyclic else _Component.from_chain(hit, cap)

        comp = _Component(start, cap, cyclic)
        parents = comp.parents
        successors = self._cyclic_successors if cyclic else self._linear_successors
        max_applications = budget.max_relator_applications
        applications, complete = 0, True
        min_key = (len(start), start)
        heap = [min_key]
        heappush, heappop = heapq.heappush, heapq.heappop
        while heap and complete:
            w = heappop(heap)[1]
            for succ, _ in successors(w, cap):
                if succ in parents:
                    continue
                applications += 1
                if applications > max_applications:
                    complete = False
                    break
                parents[succ] = w
                key = (len(succ), succ)
                if key < min_key:
                    min_key = key
                heappush(heap, key)
                if stop is not None and stop(succ):
                    complete = False
                    break
        min_word = min_key[1]
        comp.applications, comp.complete, comp._min_word = applications, complete, min_word
        comp.states = len(parents)
        if complete:
            if cyclic:
                self._components[memo_key] = comp
            else:
                n = len(min_word)
                mirror_min = min(inverse_encoded(w) for w in parents if len(w) == n)
                chain, w = [applications, mirror_min], min_word
                while w is not None:
                    chain.append(w)
                    w = parents[w]
                self._components[memo_key] = tuple(chain)
        return comp

    # trace assembly --------------------------------------------------------

    def _insert_steps(self, ci: int, left: tuple[int, ...], right: tuple[int, ...]
                      ) -> tuple[list[dict], tuple[int, ...]]:
        """Steps inserting the relator (contexts[ci].letters)^-1 between left
        and right, then freely cancelling, and the word they end at."""
        ctx = self.system.contexts[ci]
        rel = self.system.relators[ctx.relator_index]
        n = len(rel.word)
        step = {"op": "relator-insert", "position": len(left), "relator-id": rel.id,
                "sign": -ctx.sign, "shift": (n - ctx.shift) % n}
        csteps, red = _cancel_steps(left + self.system._inv_context_letters[ci] + right)
        return [step] + csteps, red

    def _recorded_move(self, comp: _Component, pred: str, succ: str) -> tuple:
        """The first move in `pred`'s successor list that gives `succ`."""
        successors = self._cyclic_successors if comp.cyclic else self._linear_successors
        for s, move in successors(pred, comp.cap):
            if s == succ:
                return move
        raise BurnlabError("trace assembly mismatch")

    def _edge_steps(self, comp: _Component, pred: str, succ: str) -> list[dict]:
        """Steps replaying the recorded move of the edge `pred` -> `succ`."""
        p, ci, _ = self._recorded_move(comp, pred, succ)
        pred, succ = decode_letters(pred), decode_letters(succ)
        if comp.cyclic:
            isteps, red = self._insert_steps(ci, (), pred[p:] + pred[:p])
            shift = [{"op": "cyclic-shift", "amount": p}] if p else []
            return shift + isteps + _cyclic_rep_steps(red, succ)
        steps, red = self._insert_steps(ci, pred[:p], pred[p:])
        if red != succ:
            raise BurnlabError("trace assembly mismatch")
        return steps

    def _trace(self, comp: _Component, target: str, start_word: tuple[int, ...],
               prefix_steps: Optional[list[dict]] = None) -> dict:
        steps = []
        while (pred := comp.parents[target]) is not None:
            steps[:0] = self._edge_steps(comp, pred, target)
            target = pred
        return {"start": format_letters(start_word), "steps": (prefix_steps or []) + steps}

    # budget plumbing -------------------------------------------------------

    def _linear_cap(self, code: str, budget: OracleBudget) -> int:
        """Length cap of a linear search from the encoded word `code`: the
        ball radius above its length, lowered below the ab margin for a
        nonempty word over {a, b}, whose component is then the word alone:
        every move lengthens it past the cap."""
        slack = budget.max_ball_radius
        margin = self.system.ab_margin
        if margin is not None and margin > 0 and code and AB_CODES.issuperset(code):
            slack = min(slack, margin - 1)
        return len(code) + slack

    def _use(self, comp: _Component) -> BudgetUse:
        return BudgetUse(states=comp.states, applications=comp.applications,
                         cap=comp.cap, complete=comp.complete)

    # the decision policy -----------------------------------------------------

    def _decide(self, op: str, word: tuple[int, ...], start: tuple[int, ...], size: int,
                target: Optional[tuple[int, ...]], lattice: IntegerLattice,
                vector: Sequence[int], budget: OracleBudget, cyclic: bool,
                extras: Optional[dict] = None) -> Verdict:
        """The yes/no/unknown policy of `equal`, `conjugate` and
        `conjugate_into_ab`: does the rewriting component of `start` reach
        `target` (or, with target None, any word over {a, b})?

        In order: `start` itself is a hit, yes; the free group (rank 0) no;
        a nonzero residue of `vector` modulo `lattice`, no; otherwise the
        closure within the cap: a hit, yes with a trace from the literal query
        `word` (through the cyclic reduction of `word` to `start` when
        cyclic); an exhausted component, no; else unknown.  Verdicts decided
        before the search report `size` as their cap.  `extras` go into the
        yes witness and the exhaustion certificate; a witness to an {a, b}
        word names it as "target"."""
        code = encode_letters(start)
        cap = size + budget.max_ball_radius if cyclic else self._linear_cap(code, budget)
        if target is not None:
            target = encode_letters(target)
        comp = _Component(code, size, cyclic)  # start alone, before any search
        if comp.find(target) is None:
            if self.system.empty:
                return Verdict("no", certificate={"kind": "rank-0", "op": op},
                               budget_used=self._use(comp))
            residue = lattice.reduce(vector)
            if any(residue):
                return Verdict(
                    "no",
                    certificate={"kind": "abelian-residue", "op": op, "residue": list(residue),
                                 "lattice": [list(b) for b in lattice.basis()]},
                    budget_used=self._use(comp),
                )
            stop = AB_CODES.issuperset if target is None else target.__eq__
            comp = self._closure(code, cap, budget, cyclic, stop)
        hit = comp.find(target)
        extras = extras or {}
        if hit is not None:
            prefix = _cyclic_rep_steps(word, start) if cyclic else None
            witness = self._trace(comp, hit, word, prefix_steps=prefix)
            if target is None:
                witness["target"] = format_letters(decode_letters(hit))
            witness.update(extras)
            return Verdict("yes", witness=witness, budget_used=self._use(comp))
        if comp.complete:
            return Verdict(
                "no",
                certificate={"kind": "exhaustion", "op": op, "cap": comp.cap,
                             "states": comp.states, "applications": comp.applications,
                             **extras},
                budget_used=self._use(comp),
            )
        return Verdict("unknown", budget_used=self._use(comp))

    # public queries ----------------------------------------------------------

    def equal(self, u: Sequence[int] | Word, v: Sequence[int] | Word,
              budget: Optional[OracleBudget] = None) -> Verdict:
        w = splice_reduce(_letters(u), inverse_letters(_letters(v)), ())
        return self._decide("equal", w, w, len(w), (), self.system.lattice,
                            self.system.expvec(w), budget or DEFAULT_BUDGET, cyclic=False)

    def norm(self, u: Sequence[int] | Word, budget: Optional[OracleBudget] = None) -> NormBounds:
        budget = budget or DEFAULT_BUDGET
        w = _letters(u)
        if not w:
            return NormBounds(0, 0, True, budget_used=BudgetUse(1, 0, 0, True))
        if self.system.empty:
            return NormBounds(len(w), len(w), True, budget_used=BudgetUse(1, 0, len(w), True))
        code = encode_letters(w)
        comp = self._closure(code, self._linear_cap(code, budget), budget, cyclic=False)
        upper = len(comp._min_word)
        witness = None
        if upper < len(w):
            witness = self._trace(comp, comp._min_word, w)
        if comp.complete:
            return NormBounds(upper, upper, True, witness=witness, budget_used=self._use(comp))
        residue = self.system.lattice.reduce(self.system.expvec(w))
        lower = 1 if any(residue) else 0
        return NormBounds(lower, upper, False, witness=witness, budget_used=self._use(comp))

    def canonical(self, u: Sequence[int] | Word, budget: Optional[OracleBudget] = None) -> tuple[tuple[int, ...], bool]:
        """Shortlex-least word in the bounded rewriting component; flag states
        whether the component was exhausted.  `u` is freely reduced and
        encoded for `canonical_encoded`, and its answer decoded."""
        code, complete = self.canonical_encoded(encode_letters(_letters(u)), budget)
        return decode_letters(code), complete

    def canonical_encoded(self, code: str, budget: Optional[OracleBudget] = None
                          ) -> tuple[str, bool]:
        """`canonical` of the freely reduced encoded word `code`, answered
        encoded.

        A complete memo entry for `code` at its cap, within the budget,
        answers with its least word.  With no entry for `code`, the complete
        one of its inverse at the same cap, within the budget, answers with
        its `mirror_min` (the class docstring's mirror rule).  Either is read
        from the entry's tuple: no search runs and no entry is stored.

        >>> oracle = RankOracle(RelatorSystem(Alphabet(1), [Relator("r", (3, 3, 3))]))
        >>> code, complete = oracle.canonical_encoded(encode_letters((3, 3)))
        >>> decode_letters(code), complete  # s1.s1 = S1, as s1^3 = 1
        ((-3,), True)
        >>> code, complete = oracle.canonical_encoded(encode_letters((-3, -3)))
        >>> decode_letters(code), complete, len(oracle._components)  # the mirror
        ((3,), True, 1)
        """
        budget = budget or DEFAULT_BUDGET
        cap = self._linear_cap(code, budget)
        entry = self._components.get((code, cap, False))
        if entry is None:
            mirror = self._components.get((inverse_encoded(code), cap, False))
            if mirror is not None and mirror[0] <= budget.max_relator_applications:
                return mirror[1], True
        elif entry[0] <= budget.max_relator_applications:
            return entry[2], True
        comp = self._closure(code, cap, budget, cyclic=False)
        return comp._min_word, comp.complete

    def cyclic_component(self, u: Sequence[int] | Word,
                         budget: Optional[OracleBudget] = None,
                         stop: Optional[Callable] = None) -> _Component:
        """Cyclic rewriting component of cyclic_rep(u) within the length cap
        |cyclic_rep(u)| + max_ball_radius, its members encoded.  A search ends
        at the first word for which `stop`, given it encoded, is true, as in
        `_closure`.  Complete cyclic components stay whole in the memo, unlike
        linear ones, so a memoized one is returned with every member."""
        budget = budget or DEFAULT_BUDGET
        cu = cyclic_rep(_letters(u))
        return self._closure(encode_letters(cu), len(cu) + budget.max_ball_radius, budget,
                             True, stop)

    def conjugate(self, u: Sequence[int] | Word, v: Sequence[int] | Word,
                  budget: Optional[OracleBudget] = None) -> Verdict:
        budget = budget or DEFAULT_BUDGET
        tu, tv = _letters(u), _letters(v)
        cu, cv = cyclic_rep(tu), cyclic_rep(tv)
        diff = [x - y for x, y in zip(self.system.expvec(tu), self.system.expvec(tv))]
        bound = self.system.conjugator_bound(len(tu), len(tv))
        return self._decide("conjugate", tu, cu, max(len(cu), len(cv)), cv, self.system.lattice,
                            diff, budget, cyclic=True, extras={"conjugator-bound": bound})

    def conjugate_into_ab(self, u: Sequence[int] | Word,
                          budget: Optional[OracleBudget] = None) -> Verdict:
        tu = _letters(u)
        cu = cyclic_rep(tu)
        return self._decide("conjugate-into-ab", tu, cu, len(cu), None, self.system.lattice_mod_ab,
                            self.system.expvec(tu), budget or DEFAULT_BUDGET, cyclic=True)


def _encoded_key(s: str) -> tuple[int, str]:
    """The shortlex key of an encoded word."""
    return len(s), s


def _plain_inserts(records: tuple[tuple, ...], room: int, left: str, right: str) -> tuple[tuple, ...]:
    """The records, in order, of the contexts T with |T| <= room,
    T[0] != right and T[-1] != left: the insertions that neither overlap nor
    cancel.  A missing neighbour is ''."""
    return tuple(r for r in records
                 if r[3] <= room and r[1][0] != right and r[1][-1] != left)


def _letters(u: Sequence[int] | Word) -> tuple[int, ...]:
    if isinstance(u, Word):
        return u.letters
    return reduce_letters(u)


def _cyclic_splice(v: str, T: str, T_inv: str, l: int, cap: int) -> Optional[str]:
    """Canonical rotation of the cyclic core of (T[l:])^-1 v[l:], or None when
    the core is longer than cap.  v is cyclically reduced and v[:l] == T[:l]
    with l maximal, so the two pieces join without cancelling and only their
    outer ends trim against each other; once one piece has trimmed away, the
    rest of the other may trim further."""
    n, L = len(v), len(T)
    m = L - l
    j, jmax = 0, min(m, n - l)
    while j < jmax and v[n - 1 - j] == T[L - 1 - j]:
        j += 1
    if j < jmax and n + m - l - 2 * j > cap:
        return None
    word = T_inv[j:m] + v[l : n - j]
    a, b = 0, len(word)
    while b - a >= 2 and ord(word[a]) ^ 1 == ord(word[b - 1]):
        a += 1
        b -= 1
    return min_rotation_encoded(word[a:b]) if b - a <= cap else None


def find_conjugator(oracle: RankOracle, u: Sequence[int] | Word, v: Sequence[int] | Word,
                    budget: Optional[OracleBudget] = None) -> Optional[Word]:
    """Literal conjugator search: smallest Z (shortlex, |Z| <= bound) with
    Z u Z^-1 = v certified.  Exponential in the bound; used for cross-checks."""
    tu, tv = _letters(u), _letters(v)
    bound = oracle.system.conjugator_bound(len(tu), len(tv))
    from .words import reduced_words_up_to

    for z in reduced_words_up_to(oracle.system.alphabet, bound):
        cand = splice_reduce(z, tu, inverse_letters(z))
        if oracle.equal(cand, tv, budget).is_yes:
            return Word(z)
    return None
