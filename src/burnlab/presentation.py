"""Graded presentations: ranked periods, their k-th power relators, and the
budgeted admission procedure that builds rank i+1 from rank i.

Rank i+1 admits, in shortlex order, cyclically reduced canonical words of
length i+1 that the rank-i oracle certifies to be

  * not conjugate into the {a,b} subgroup          (reason "in-ab"),
  * not conjugate to a power of an earlier period   (reason "period-power"),
  * not conjugate to a shorter word or to a proper
    power of a shorter word                          (reason "shorter-or-power"),
  * not conjugate to an already admitted period or
    its inverse                                      (reason "conjugate-duplicate").

The first two come from one cyclic search per candidate: the first word it
reaches that is over {a,b} or a period power names the reason.  The build and
its audit read cyclic components from the oracle, never a verdict query.

Certification happens within the oracle budget; candidates the budget cannot
decide are left out and the rank is flagged approximate.  Free proper powers
are filtered syntactically before any oracle work ("free-power").
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .errors import InputError, StateError
from .oracle import OracleBudget, RankOracle, Relator, RelatorSystem
from .records import Record
from .words import (
    AB_CODES,
    Alphabet,
    Word,
    cyclic_rep,
    cyclically_reduced_words,
    decode_letters,
    encode_letters,
    format_letters,
    inverse_letters,
    is_ab_word,
    min_rotation,
)

MAX_RELATOR_LETTERS = 10_000


def _fraction_field(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    # Fraction builds 10^e in full for an exponent part, so "1e-10000000"
    # would take seconds; no rational here needs one
    if isinstance(value, str) and "e" not in value.lower():
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError("expected an exact rational, got %r" % (value,))


_REQUIRED = object()
# the field kinds read_field knows, with the noun its messages use
_FIELD_KINDS = {"int": "an integer", "bool": "true or false",
                "rational": "an exact rational", "list": "a list",
                "string": "a string", "strings": "a list of strings",
                "object": "an object"}


def read_field(doc, path: str, kind: str, default=_REQUIRED):
    """Typed reader for one field of a JSON document.

    `path` names the field from the document root, dotted, with list
    indices in brackets (``ranks[0].periods``); its last component is the
    key read from the object `doc`.  `kind` is a key of `_FIELD_KINDS`.
    Integers must be integral (3.0 reads as 3, 3.5 is refused).  Every
    failure raises InputError naming the path.

    >>> read_field({"k": 5.0}, "params.k", "int")
    5
    >>> read_field({"k": 3.5}, "params.k", "int")
    Traceback (most recent call last):
    ...
    burnlab.errors.InputError: field params.k must be an integer, got 3.5
    """
    parent, _, key = path.rpartition(".")
    if not isinstance(doc, dict):
        raise InputError("%s must be an object, got %s"
                         % ("field " + parent if parent else "document root", _short(doc)))
    if key not in doc:
        if default is _REQUIRED:
            raise InputError("missing field %s" % path)
        return default
    value = doc[key]
    if kind == "int":
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        ok = isinstance(value, int) and not isinstance(value, bool)
    elif kind == "rational":
        try:
            value = _fraction_field(value)
            ok = True
        except InputError:
            ok = False
    elif kind == "strings":
        ok = isinstance(value, list) and all(isinstance(x, str) for x in value)
    else:
        ok = isinstance(value, {"bool": bool, "list": list, "object": dict,
                                "string": str}[kind])
    if not ok:
        raise InputError("field %s must be %s, got %s"
                         % (path, _FIELD_KINDS[kind], _short(value)))
    return value


def _short(value) -> str:
    text = json.dumps(value, default=repr)
    return text if len(text) <= 40 else text[:37] + "..."


class SmallCancellationParams(Record, uncompared=("caveats",)):
    """Exponent k plus the cancellation constants, kept as exact rationals.

    The gate accepts k odd with 0 < zeta < epsilon < gamma < beta < alpha,
    1/2 + alpha + epsilon < 1 - gamma, and epsilon * k > 2.  The last bound
    needs k in the thousands; desk-scale runs at k = 3 or 5 may opt in with
    allow_small_k=True, which downgrades exactly that violation to a recorded
    caveat and leaves every other check strict.
    """

    k: int = 3
    alpha: Fraction = Fraction(1, 100)
    beta: Fraction = Fraction(1, 200)
    gamma: Fraction = Fraction(1, 300)
    epsilon: Fraction = Fraction(1, 1000)
    zeta: Fraction = Fraction(1, 2000)
    h: int = 12
    allow_small_k: bool = False
    caveats: tuple[str, ...] = ()

    def __post_init__(self):
        d = self.__dict__
        for name in ("alpha", "beta", "gamma", "epsilon", "zeta"):
            d[name] = _fraction_field(d[name])
        if not isinstance(self.k, int) or not isinstance(self.h, int) or self.h < 1:
            raise InputError("k and h must be integers, h >= 1")
        violations = self.violations()
        soft = [v for v in violations if v[0] == "C-EPSILON-K"]
        hard = [v for v in violations if v[0] != "C-EPSILON-K"]
        if hard or (soft and not self.allow_small_k):
            lines = "; ".join("%s: %s" % v for v in violations)
            raise InputError("parameter gate failed: %s" % lines)
        if soft:
            d["caveats"] = tuple(
                "%s waived by allow_small_k: %s" % (code, msg) for code, msg in soft)

    def violations(self) -> list[tuple[str, str]]:
        out = []
        if self.k < 3 or self.k % 2 == 0:
            out.append(("C-K-ODD", "exponent k must be odd and >= 3, got %d" % self.k))
        chain = [("alpha", self.alpha), ("beta", self.beta), ("gamma", self.gamma),
                 ("epsilon", self.epsilon), ("zeta", self.zeta)]
        ok_order = all(chain[i][1] > chain[i + 1][1] for i in range(len(chain) - 1))
        if not ok_order or self.zeta <= 0:
            out.append(
                ("C-ORDER",
                 "need alpha > beta > gamma > epsilon > zeta > 0, got %s"
                 % ", ".join("%s=%s" % (n, v) for n, v in chain))
            )
        if self.alpha_bar + self.epsilon >= self.gamma_bar:
            out.append(
                ("C-ALPHA-BAR",
                 "need 1/2 + alpha + epsilon < 1 - gamma, got %s + %s >= %s"
                 % (self.alpha_bar, self.epsilon, self.gamma_bar))
            )
        if self.epsilon * self.k <= 2:
            out.append(
                ("C-EPSILON-K",
                 "need epsilon * k > 2, got %s * %d = %s"
                 % (self.epsilon, self.k, self.epsilon * self.k))
            )
        return out

    @property
    def alpha_bar(self) -> Fraction:
        return Fraction(1, 2) + self.alpha

    @property
    def gamma_bar(self) -> Fraction:
        return 1 - self.gamma

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "alpha": str(self.alpha),
            "beta": str(self.beta),
            "gamma": str(self.gamma),
            "epsilon": str(self.epsilon),
            "zeta": str(self.zeta),
            "h": self.h,
            "allow_small_k": self.allow_small_k,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SmallCancellationParams":
        return cls(
            k=read_field(data, "params.k", "int"),
            alpha=read_field(data, "params.alpha", "rational"),
            beta=read_field(data, "params.beta", "rational"),
            gamma=read_field(data, "params.gamma", "rational"),
            epsilon=read_field(data, "params.epsilon", "rational"),
            zeta=read_field(data, "params.zeta", "rational"),
            h=read_field(data, "params.h", "int"),
            allow_small_k=read_field(data, "params.allow_small_k", "bool", False),
        )


class SimplicityVerdict(Record):
    status: str  # "simple" | "not-simple" | "unknown"
    reason: Optional[str] = None
    detail: Optional[str] = None


class CandidateRecord(Record):
    word: str
    outcome: str  # "admitted" | "rejected" | "unknown"
    reason: Optional[str] = None


class BuildReport(Record):
    rank: int
    admitted: tuple[str, ...]
    records: tuple[CandidateRecord, ...]
    approximate: bool


class StructureReport(Record):
    ok: bool
    failures: tuple[tuple[str, int, str], ...]
    approximate_ranks: tuple[int, ...]


def _free_period(t: tuple[int, ...]) -> tuple[int, ...]:
    """Shortest u with t == u^j; returns t itself when t is not a power."""
    n = len(t)
    doubled = t + t
    for i in range(1, n):
        if n % i == 0 and doubled[i : i + n] == t:
            return t[:i]
    return t


def _encoded_rep(t: tuple[int, ...]) -> str:
    """The encoded cyclic_rep(t): the form of a cyclic word that the oracle's
    cyclic components hold."""
    return encode_letters(cyclic_rep(t))


def _format(s: str) -> str:
    """The text of an encoded word, for a verdict's detail."""
    return format_letters(decode_letters(s))


def canonical_cyclic_candidates(alphabet: Alphabet, length: int) -> list[tuple[int, ...]]:
    """Cyclically reduced words of the given length that equal their own
    shortlex-least rotation, in shortlex order: `reduced_words` yields them so."""
    return [t for t in cyclically_reduced_words(alphabet, length) if min_rotation(t) == t]


class GradedPresentation:
    """An alphabet, the cancellation parameters, and the ranked periods built
    so far.  Rank 0 is the free stage: no periods, empty relator system."""

    def __init__(self, alphabet: Alphabet, params: SmallCancellationParams,
                 ranks: Sequence[tuple[Sequence[Word], bool]] = ()):
        self.alphabet = alphabet
        self.params = params
        self._periods: list[tuple[Word, ...]] = []
        self._approximate: list[bool] = []
        self._oracles: dict[int, RankOracle] = {}
        self._power_reps: dict[int, dict[str, tuple[int, int]]] = {}
        for periods, approximate in ranks:
            self._append_rank(periods, approximate)

    # rank bookkeeping ------------------------------------------------------

    @property
    def max_rank(self) -> int:
        return len(self._periods)

    def periods(self, rank: int) -> tuple[Word, ...]:
        if not 1 <= rank <= self.max_rank:
            raise StateError("rank %d not built (have 1..%d)" % (rank, self.max_rank))
        return self._periods[rank - 1]

    def approximate(self, rank: int) -> bool:
        self.periods(rank)  # raises StateError for a rank not built
        return self._approximate[rank - 1]

    def _append_rank(self, periods: Sequence[Word], approximate: bool) -> None:
        rank = len(self._periods) + 1
        checked = []
        for p in periods:
            self.alphabet.validate_word(p)
            if len(p) != rank:
                raise InputError(
                    "period %s has length %d, rank %d requires %d"
                    % (p.format(), len(p), rank, rank)
                )
            if min_rotation(p.letters) != p.letters or not p.is_cyclically_reduced():
                raise InputError(
                    "period %s is not a canonical cyclically reduced rotation" % p.format()
                )
            checked.append(p)
        self._periods.append(tuple(checked))
        self._approximate.append(bool(approximate))

    def _period_power_reps(self, rank: int) -> dict[str, tuple[int, int]]:
        """_encoded_rep(p^t) -> (j, t) for each period p of ranks j = 1..rank
        in order and t = 1..k-1; computed once, as the periods of a built
        rank never change."""
        hit = self._power_reps.get(rank)
        if hit is None:
            hit = self._power_reps[rank] = {
                _encoded_rep(p.letters * t): (j, t) for j in range(1, rank + 1)
                for p in self.periods(j) for t in range(1, self.params.k)}
        return hit

    def relators(self, rank: int) -> list[Relator]:
        if rank < 0 or rank > self.max_rank:
            raise StateError("rank %d not built (have 0..%d)" % (rank, self.max_rank))
        out = []
        for j in range(1, rank + 1):
            for idx, p in enumerate(self.periods(j)):
                if len(p) * self.params.k > MAX_RELATOR_LETTERS:  # before building it
                    raise StateError("relator x%d.%d expands past %d letters"
                                     % (j, idx, MAX_RELATOR_LETTERS))
                out.append(Relator(id="x%d.%d" % (j, idx), word=p.letters * self.params.k, rank=j))
        return out

    def relator_system(self, rank: int) -> RelatorSystem:
        return self.oracle(rank).system

    def oracle(self, rank: int) -> RankOracle:
        """The rank-`rank` oracle over its relator system, both built on
        first use and kept until `build` releases them."""
        if rank not in self._oracles:
            self._oracles[rank] = RankOracle(RelatorSystem(
                self.alphabet, self.relators(rank), alpha_bar=self.params.alpha_bar))
        return self._oracles[rank]

    # simplicity ------------------------------------------------------------

    def is_simple(self, word: Word, rank: int,
                  budget: Optional[OracleBudget] = None) -> SimplicityVerdict:
        """Tri-state simplicity of `word` relative to the rank-`rank` oracle.

        One search decides: the cyclic component of the word within the
        budget's length cap, run until the first word it adds that is over
        {a, b} ("in-ab", detailed by the least such member, as
        `RankOracle.conjugate_into_ab` names it) or a power of a period of
        ranks 1..rank ("period-power").  A word reaching neither is rejected
        for a shorter or proper-power member, else simple only when its whole
        component is exhausted.  Pairs that only meet beyond that horizon
        would be unknown at this budget by construction, which is the sense
        in which an approximate build is approximate.
        """
        w = cyclic_rep(word.letters)
        if not w:
            return SimplicityVerdict("not-simple", "shorter-or-power", "freely trivial")
        if _free_period(w) != w:
            return SimplicityVerdict("not-simple", "free-power",
                                     "%s is a free power" % Word(w).format())
        if is_ab_word(w):
            return SimplicityVerdict("not-simple", "in-ab",
                                     "cyclic core lies in the {a,b} subgroup")

        powers = self._period_power_reps(rank)
        rejecting = lambda s: s in powers or AB_CODES.issuperset(s)
        comp = self.oracle(rank).cyclic_component(w, budget, stop=rejecting)
        # the members are encoded, in insertion order: a memoized complete
        # component extends the stopped run, so its first rejecting member is
        # the one the stop rule saw; only the words a detail names are decoded
        first = next(filter(rejecting, comp.parents), None)
        if first in powers:
            detail = "conjugate to x%d power %d (%s)" % (*powers[first], _format(first))
            return SimplicityVerdict("not-simple", "period-power", detail)
        if first is not None:
            return SimplicityVerdict("not-simple", "in-ab",
                                     "conjugate to %s" % _format(comp.find()))

        for member in comp.parents:
            if len(member) < len(w):
                return SimplicityVerdict(
                    "not-simple", "shorter-or-power",
                    "conjugate to shorter word %s" % _format(member),
                )
            base = _free_period(member)
            if len(base) < len(w) and len(base) < len(member):
                return SimplicityVerdict(
                    "not-simple", "shorter-or-power",
                    "conjugate to %s^%d" % (_format(base), len(member) // len(base)),
                )

        if not comp.complete:
            return SimplicityVerdict("unknown", "budget",
                                     "cyclic component not exhausted at cap %d" % comp.cap)
        return SimplicityVerdict("simple")

    def _conjugacy_test(self, p: tuple[int, ...], rank: int,
                        budget: Optional[OracleBudget]) -> Callable[[str], str]:
        """Status of "p is conjugate to q at rank `rank`" as a function of
        _encoded_rep(q), for |q| = |p|, from p's cyclic component (for a simple
        p, the one `is_simple` memoized): "yes" for a member, "no" when it is
        complete or p and q differ modulo the relator lattice, else "unknown".
        That is `RankOracle.conjugate`'s status: its search is the same run
        within the same cap, stopped at q.  Only the lattice test, which an
        incomplete component alone reaches, decodes q."""
        comp = self.oracle(rank).cyclic_component(p, budget)
        system = self.relator_system(rank)
        residue = system.lattice.reduce(system.expvec(p))
        return lambda q_rep: (
            "yes" if q_rep in comp.parents else "no" if comp.complete
            or system.lattice.reduce(system.expvec(decode_letters(q_rep))) != residue
            else "unknown")

    # building --------------------------------------------------------------

    def build_next_rank(self, budget: Optional[OracleBudget] = None) -> BuildReport:
        """Admit the next rank of periods.  Candidates are evaluated one after
        another and admitted in shortlex order.  (A thread pool was measured
        slower: the evaluation is pure-Python work under the GIL.)"""
        rank = self.max_rank
        n = rank + 1
        candidates = canonical_cyclic_candidates(self.alphabet, n)
        verdicts = [self.is_simple(Word(t), rank, budget) for t in candidates]

        admitted: list[Word] = []
        admitted_reps: list[str] = []  # _encoded_rep of each period and its inverse
        records: list[CandidateRecord] = []
        approximate = False
        for t, verdict in zip(candidates, verdicts):
            name = Word(t).format()
            if verdict.status == "not-simple":
                records.append(CandidateRecord(name, "rejected", verdict.reason))
                continue
            if verdict.status == "unknown":
                records.append(CandidateRecord(name, "unknown", verdict.reason))
                approximate = True
                continue
            conjugate_to = self._conjugacy_test(t, rank, budget)
            if any(conjugate_to(rep) == "yes" for rep in admitted_reps):
                records.append(CandidateRecord(name, "rejected", "conjugate-duplicate"))
                continue
            admitted.append(Word(t))
            admitted_reps += (encode_letters(t), _encoded_rep(inverse_letters(t)))
            records.append(CandidateRecord(name, "admitted", None))

        self._append_rank(admitted, approximate)
        return BuildReport(
            rank=n,
            admitted=tuple(w.format() for w in admitted),
            records=tuple(records),
            approximate=approximate,
        )

    @classmethod
    def build(cls, alphabet: Alphabet, params: SmallCancellationParams, up_to_rank: int,
              budget: Optional[OracleBudget] = None
              ) -> tuple["GradedPresentation", list[BuildReport]]:
        """A presentation built by `build_next_rank` up to `up_to_rank`, and
        the report of each rank.  Each rank's oracle, with its memo and its
        relator system, is released once the next rank is appended: no later
        step of the build reads it, and verdicts do not depend on memo
        warmth, so `oracle` builds it again, cold, for a caller that asks."""
        if up_to_rank < 0:
            raise InputError("up_to_rank must be >= 0")
        pres = cls(alphabet, params)
        reports = []
        for _ in range(up_to_rank):
            reports.append(pres.build_next_rank(budget=budget))
            pres._oracles.pop(pres.max_rank - 1, None)
        return pres, reports

    # verification ------------------------------------------------------------

    def verify_structure(self, budget: Optional[OracleBudget] = None) -> StructureReport:
        """Re-derive the admission invariants from the stored periods.

        P1 period shape: canonical cyclically reduced rotation, length = rank.
        P2 simplicity: each rank-j period is simple for the rank j-1 oracle.
        P3 separation: periods of equal rank pairwise non-conjugate, inverses
           included, by `_conjugacy_test` on the earlier period, as the build.
        P4 relators: stored relator words are exact k-th powers of periods.
        """
        failures: list[tuple[str, int, str]] = []
        for j in range(1, self.max_rank + 1):
            for p in self.periods(j):
                if len(p) != j or min_rotation(p.letters) != p.letters \
                        or not p.is_cyclically_reduced():
                    failures.append(("P1", j, "period %s malformed" % p.format()))

        for j in range(1, self.max_rank + 1):
            for p in self.periods(j):
                verdict = self.is_simple(p, j - 1, budget)
                if verdict.status == "not-simple":
                    failures.append(
                        ("P2", j, "period %s fails simplicity: %s"
                         % (p.format(), verdict.detail or verdict.reason))
                    )
                elif verdict.status == "unknown" and not self.approximate(j):
                    failures.append(
                        ("P2", j, "period %s undecided but rank not flagged approximate"
                         % p.format())
                    )

        for j in range(1, self.max_rank + 1):
            ps = self.periods(j)
            reps = [(_encoded_rep(p.letters), _encoded_rep((~p).letters)) for p in ps]
            for i1 in range(len(ps) - 1):
                conjugate_to = self._conjugacy_test(ps[i1].letters, j - 1, budget)
                for i2 in range(i1 + 1, len(ps)):
                    for rep in reps[i2]:
                        status = conjugate_to(rep)
                        if status == "yes":
                            failures.append(
                                ("P3", j, "periods %s and %s are conjugate in rank %d"
                                 % (ps[i1].format(), ps[i2].format(), j - 1))
                            )
                            break
                        if status == "unknown" and not self.approximate(j):
                            failures.append(
                                ("P3", j, "conjugacy of %s and %s undecided but rank "
                                 "not flagged approximate" % (ps[i1].format(), ps[i2].format()))
                            )

        for rel in self.relators(self.max_rank):
            p = self.periods(rel.rank)[int(rel.id.split(".")[1])]
            if rel.word != p.letters * self.params.k:
                failures.append(("P4", rel.rank, "relator %s is not period^k" % rel.id))

        approx = tuple(j for j in range(1, self.max_rank + 1) if self.approximate(j))
        return StructureReport(ok=not failures, failures=tuple(failures),
                               approximate_ranks=approx)

    # serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "alphabet": {"m": self.alphabet.m},
            "params": self.params.to_dict(),
            "ranks": [
                {
                    "rank": j,
                    "periods": [p.format() for p in self.periods(j)],
                    "approximate": self.approximate(j),
                }
                for j in range(1, self.max_rank + 1)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, data: dict) -> "GradedPresentation":
        alphabet = Alphabet(read_field(read_field(data, "alphabet", "object"),
                                       "alphabet.m", "int"))
        params = SmallCancellationParams.from_dict(read_field(data, "params", "object"))
        ranks: list[tuple[list[Word], bool]] = []
        for pos, block in enumerate(read_field(data, "ranks", "list"), start=1):
            where = "ranks[%d]" % (pos - 1)
            rank = read_field(block, where + ".rank", "int")
            if rank != pos:
                raise InputError("rank blocks must be contiguous from 1, got %r at %d"
                                 % (rank, pos))
            periods = [alphabet.parse(text)
                       for text in read_field(block, where + ".periods", "strings")]
            ranks.append((periods, read_field(block, where + ".approximate", "bool", False)))
        return cls(alphabet, params, ranks)

    @classmethod
    def from_json(cls, text: str) -> "GradedPresentation":
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise InputError("presentation document is not valid JSON: %s" % exc)
        return cls.from_dict(data)

    def __repr__(self) -> str:
        sizes = ",".join(str(len(self.periods(j))) for j in range(1, self.max_rank + 1))
        return "GradedPresentation(m=%d, k=%d, ranks=[%s])" % (
            self.alphabet.m, self.params.k, sizes)
