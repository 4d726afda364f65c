"""Law-probability estimation, torsion classification, and walk statistics.

Every estimate here is tri-state at the core: a sampled instance of a law is
*certified holding* (oracle yes on w = 1), *certified failing* (oracle no),
or *unresolved* (budget ran out).  Estimates therefore come as intervals
[holds/trials, (holds+unknown)/trials] with a Wilson interval around the
certified fraction, never as a bare point value.

Sampling is seed-deterministic: all random draws for a run come from one
`random.Random(seed)` stream consumed before any evaluation is dispatched,
so worker count cannot change results.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from .cayley import FLAG_EXACT, enumerate_ball
from .errors import InputError, StateError
from .oracle import OracleBudget, RankOracle, Relator, RelatorSystem, Verdict
from .words import (
    Word,
    cyclic_split_reduced,
    inverse_letters,
    power_letters,
    reduce_letters,
    splice_reduce,
)

_Z95 = 1.959963984540054

# a parsed law (and every exponent in it) stays within this many letters
MAX_LAW_LETTERS = 10_000


class GroupLaw:
    """A nontrivial word in variables x1, x2.

    Text grammar: juxtaposition is product, `^` takes integer powers,
    `[u,v]` is the commutator u^-1 v^-1 u v, parentheses group, and
    uppercase X1/X2 abbreviate inverses.  A law that freely reduces to the
    empty word (like `x1 X1`) is rejected: it holds in every group and
    estimating it is a caller bug.
    """

    __slots__ = ("letters", "text")

    MAX_VARS = 2

    def __init__(self, letters: Sequence[int], text: str = ""):
        lst = reduce_letters(tuple(letters))
        if not lst:
            raise InputError("law is freely trivial as written")
        for l in lst:
            if not (1 <= abs(l) <= self.MAX_VARS):
                raise InputError("law variables must be x1..x%d" % self.MAX_VARS)
        object.__setattr__(self, "letters", lst)
        object.__setattr__(self, "text", text or self._render(lst))

    def __setattr__(self, name, value):
        raise AttributeError("GroupLaw is immutable")

    @staticmethod
    def _render(letters) -> str:
        return " ".join(("x%d" if l > 0 else "X%d") % abs(l) for l in letters)

    @property
    def arity(self) -> int:
        return max(abs(l) for l in self.letters)

    @classmethod
    def power(cls, k: int) -> "GroupLaw":
        if k == 0:
            raise InputError("x^0 is freely trivial")
        return cls((1 if k > 0 else -1,) * abs(k), "x1^%d" % k)

    @classmethod
    def commutator(cls) -> "GroupLaw":
        return cls((-1, -2, 1, 2), "[x1,x2]")

    @classmethod
    def parse(cls, text: str) -> "GroupLaw":
        toks = _tokenize_law(text)
        letters, pos = _parse_product(toks, 0, stop=())
        if pos != len(toks):
            raise InputError("unexpected %r in law" % (toks[pos],))
        return cls(letters, text.strip())

    def evaluate(self, assignment: Sequence[Word]) -> Word:
        if len(assignment) < self.arity:
            raise InputError("law needs %d values, got %d" % (self.arity, len(assignment)))
        out: tuple[int, ...] = ()
        for l in self.letters:
            w = assignment[abs(l) - 1].letters
            out = splice_reduce(out, w if l > 0 else inverse_letters(w), ())
        return Word._raw(out)

    def __repr__(self):
        return "GroupLaw(%r)" % self.text


def _tokenize_law(text: str):
    toks, i = [], 0
    while i < len(text):
        c = text[i]
        if c.isspace() or c == "*":
            i += 1
        elif c in "([,])":
            toks.append(c)
            i += 1
        elif c in "xX":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise InputError("variable needs an index: %r" % text[i:])
            toks.append(("var", int(text[i + 1:j]), -1 if c == "X" else 1))
            i = j
        elif c == "^":
            j = i + 1
            if j < len(text) and text[j] in "+-":
                j += 1
            k = j
            while k < len(text) and text[k].isdigit():
                k += 1
            if k == j:
                raise InputError("^ needs an integer exponent")
            # count digits before int(): huge literals are slow or refused
            if k - j > len(str(MAX_LAW_LETTERS)) or int(text[j:k]) > MAX_LAW_LETTERS:
                raise InputError("law exponent exceeds %d" % MAX_LAW_LETTERS)
            toks.append(("pow", int(text[i + 1:k])))
            i = k
        else:
            raise InputError("bad character %r in law" % c)
    return toks


def _parse_product(toks, pos, stop):
    letters: tuple[int, ...] = ()
    while pos < len(toks) and toks[pos] not in stop:
        t = toks[pos]
        if t == "(":
            inner, pos = _parse_product(toks, pos + 1, stop=(")",))
            if pos >= len(toks) or toks[pos] != ")":
                raise InputError("unclosed ( in law")
            pos += 1
        elif t == "[":
            u, pos = _parse_product(toks, pos + 1, stop=(",",))
            if pos >= len(toks) or toks[pos] != ",":
                raise InputError("commutator needs two arguments")
            v, pos = _parse_product(toks, pos + 1, stop=("]",))
            if pos >= len(toks) or toks[pos] != "]":
                raise InputError("unclosed [ in law")
            pos += 1
            inner = reduce_letters(inverse_letters(u) + inverse_letters(v) + u + v)
        elif isinstance(t, tuple) and t[0] == "var":
            inner = ((t[2] * t[1]),)
            pos += 1
        else:
            raise InputError("unexpected %r in law" % (t,))
        if pos < len(toks) and isinstance(toks[pos], tuple) and toks[pos][0] == "pow":
            k = toks[pos][1]
            pos += 1
            core, _ = cyclic_split_reduced(inner)
            if len(core) * abs(k) > MAX_LAW_LETTERS:
                raise InputError("law expands past %d letters" % MAX_LAW_LETTERS)
            inner = power_letters(inner, k)
        letters = splice_reduce(letters, inner, ())
        if len(letters) > MAX_LAW_LETTERS:
            raise InputError("law expands past %d letters" % MAX_LAW_LETTERS)
    return letters, pos


class StepDistribution:
    """Finitely supported step law for random walks: pairs (word, prob) with
    exact positive Fractions summing to 1.

    Construction runs a bounded semigroup-generation probe (products of
    support words up to twice the longest support length): if some alphabet
    letter is never reached the flag `maybe_degenerate` is set.  That is a
    warning, not an error: restricted walks (e.g. on a cyclic quotient) are
    legitimate and the flag just surfaces in reports.
    """

    __slots__ = ("support", "maybe_degenerate", "probe_depth")

    def __init__(self, support: Sequence[tuple[Word, Fraction]]):
        pairs = []
        total = Fraction(0)
        seen = set()
        for w, p in support:
            if not isinstance(w, Word):
                w = Word(w)
            p = Fraction(p)
            if p <= 0:
                raise InputError("step probability must be > 0, got %s" % p)
            if w.letters in seen:
                raise InputError("duplicate support word %s" % w)
            seen.add(w.letters)
            pairs.append((w, p))
            total += p
        if total != 1:
            raise InputError("step probabilities sum to %s, need 1" % total)
        if not pairs:
            raise InputError("empty support")
        pairs.sort(key=lambda wp: (len(wp[0].letters), wp[0].letters))
        object.__setattr__(self, "support", tuple(pairs))
        depth = 2 * max(len(w.letters) for w, _ in pairs) or 1
        object.__setattr__(self, "probe_depth", depth)
        object.__setattr__(self, "maybe_degenerate", not self._probe(depth))

    def __setattr__(self, name, value):
        raise AttributeError("StepDistribution is immutable")

    def _probe(self, depth: int) -> bool:
        need = set()
        for w, _ in self.support:
            for l in w.letters:
                need.add(abs(l))
        targets = {(l,) for b in need for l in (b, -b)}
        reached = {()}
        frontier = [()]
        for _ in range(depth):
            new = []
            for t in frontier:
                for w, _ in self.support:
                    u = splice_reduce(t, w.letters, ())
                    if u not in reached:
                        reached.add(u)
                        new.append(u)
            frontier = new
            if targets <= reached:
                return True
        return targets <= reached

    @classmethod
    def lazy_uniform(cls, words: Sequence[Word]) -> "StepDistribution":
        """Uniform on {identity} + the given words."""
        items = [Word(())] + [w if isinstance(w, Word) else Word(w) for w in words]
        p = Fraction(1, len(items))
        return cls([(w, p) for w in items])

    def draw(self, rng: random.Random) -> Word:
        u = rng.random()
        acc = 0.0
        for w, p in self.support:
            acc += float(p)
            if u < acc:
                return w
        return self.support[-1][0]

    def __repr__(self):
        return "StepDistribution(%s)" % ", ".join(
            "%s:%s" % (w, p) for w, p in self.support)


@dataclass(frozen=True)
class LawEstimate:
    law: str
    mode: str
    n: int
    trials: int
    holds: int
    fails: int
    unknown: int
    p_lo: Fraction
    p_hi: Fraction
    wilson_lo: float
    wilson_hi: float
    exact: bool

    def as_dict(self) -> dict:
        return {
            "law": self.law, "mode": self.mode, "n": self.n,
            "trials": self.trials, "holds": self.holds, "fails": self.fails,
            "unknown": self.unknown,
            "p_lo": str(self.p_lo), "p_hi": str(self.p_hi),
            "wilson_lo": self.wilson_lo, "wilson_hi": self.wilson_hi,
            "exact": self.exact,
        }


def _wilson(successes: int, trials: int) -> tuple[float, float]:
    if trials == 0:
        return (0.0, 1.0)
    z = _Z95
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def _estimate(law_text, mode, n, holds, fails, unknown, exact=False) -> LawEstimate:
    trials = holds + fails + unknown
    lo, hi = _wilson(holds, trials)
    return LawEstimate(
        law=law_text, mode=mode, n=n, trials=trials,
        holds=holds, fails=fails, unknown=unknown,
        p_lo=Fraction(holds, trials), p_hi=Fraction(holds + unknown, trials),
        wilson_lo=lo, wilson_hi=hi, exact=exact and unknown == 0,
    )


def sample_uniform_ball(presentation, rank: int, n: int, rng: random.Random,
                        budget: Optional[OracleBudget] = None,
                        require_exact: bool = True,
                        _cache: Optional[dict] = None) -> Word:
    """One uniform draw from the radius-n ball at the given rank.

    Uniformity is over certified-distinct elements, so an inexact ball would
    silently bias the measure; by default that is refused."""
    key = (rank, n)
    if _cache is not None and key in _cache:
        elements = _cache[key]
    else:
        ball = enumerate_ball(presentation, rank, n, budget)
        if require_exact and ball.flag != FLAG_EXACT:
            raise StateError("ball(%d) at rank %d is %s, not exact; "
                             "pass require_exact=False to sample anyway"
                             % (n, rank, ball.flag))
        elements = ball.elements
        if _cache is not None:
            _cache[key] = elements
    return Word._raw(elements[rng.randrange(len(elements))])


def random_walk_sample(nu: StepDistribution, steps: int, rng: random.Random) -> Word:
    """Product of `steps` independent nu-draws, freely reduced."""
    if steps < 0:
        raise InputError("steps must be >= 0")
    out: tuple[int, ...] = ()
    for _ in range(steps):
        out = splice_reduce(out, nu.draw(rng).letters, ())
    return Word._raw(out)


def law_probability(presentation, law: GroupLaw, rank: int, mode: str, n: int,
                    trials: int = 0, seed: Optional[int] = None,
                    budget: Optional[OracleBudget] = None,
                    nu: Optional[StepDistribution] = None) -> LawEstimate:
    """Estimate P(law holds) at the given rank.

    mode "ball": variables drawn uniformly from the exact radius-n ball.
    mode "walk": variables are independent n-step nu-walks.
    mode "exhaustive": every assignment from ball(n)^arity, exact count.
    Sampled modes need trials >= 1 and a seed.
    """
    oracle = presentation.oracle(rank)
    budget = budget or oracle.default_budget
    arity = law.arity
    one = Word(())

    if mode == "exhaustive":
        ball = enumerate_ball(presentation, rank, n, budget)
        if ball.flag != FLAG_EXACT:
            raise StateError("exhaustive mode needs an exact ball, got %s" % ball.flag)
        holds = fails = unknown = 0
        for combo in product(ball.elements, repeat=arity):
            w = law.evaluate([Word._raw(t) for t in combo])
            v = oracle.equal(w, one, budget)
            if v.is_yes:
                holds += 1
            elif v.is_no:
                fails += 1
            else:
                unknown += 1
        return _estimate(law.text, mode, n, holds, fails, unknown, exact=True)

    if mode not in ("ball", "walk"):
        raise InputError("mode must be ball, walk, or exhaustive")
    if trials < 1:
        raise InputError("sampled modes need trials >= 1")
    if seed is None:
        raise InputError("sampled modes need a seed")
    if mode == "walk" and nu is None:
        raise InputError("walk mode needs a step distribution")

    rng = random.Random(seed)
    cache: dict = {}
    assignments = []
    for _ in range(trials):
        if mode == "ball":
            vals = [sample_uniform_ball(presentation, rank, n, rng,
                                        budget, _cache=cache)
                    for _ in range(arity)]
        else:
            vals = [random_walk_sample(nu, n, rng) for _ in range(arity)]
        assignments.append(vals)

    holds = fails = unknown = 0
    for vals in assignments:
        v = oracle.equal(law.evaluate(vals), one, budget)
        if v.is_yes:
            holds += 1
        elif v.is_no:
            fails += 1
        else:
            unknown += 1
    return _estimate(law.text, mode, n, holds, fails, unknown)


def law_probability_sweep(presentation, law: GroupLaw, rank: int, mode: str,
                          n_values: Sequence[int], trials: int = 0,
                          seed: Optional[int] = None,
                          budget: Optional[OracleBudget] = None,
                          nu: Optional[StepDistribution] = None
                          ) -> tuple[list[LawEstimate], dict]:
    """Per-n estimates plus running sup/inf diagnostics over the interval
    endpoints.  Finite radii cannot distinguish limsup from liminf, so both
    running extremes are reported side by side."""
    rows = []
    for i, n in enumerate(n_values):
        row_seed = None if seed is None else seed + 1000003 * i
        rows.append(law_probability(presentation, law, rank, mode, n,
                                    trials=trials, seed=row_seed,
                                    budget=budget, nu=nu))
    sup_hi: list[float] = []
    inf_lo: list[float] = []
    for i, r in enumerate(rows):
        hi = float(r.p_hi)
        lo = float(r.p_lo)
        sup_hi.append(max(sup_hi[i - 1], hi) if i else hi)
        inf_lo.append(min(inf_lo[i - 1], lo) if i else lo)
    diag = {
        "running_sup_p_hi": sup_hi,
        "running_inf_p_lo": inf_lo,
        "n_values": list(n_values),
    }
    return rows, diag


@dataclass(frozen=True)
class TorsionVerdict:
    word: str
    status: str  # power-torsion | conjugate-into-H | both | unknown
    torsion: Verdict
    into_h: Verdict
    exponent: int

    @property
    def certified(self) -> bool:
        return self.status != "unknown"


def torsion_dichotomy_test(presentation, g: Word, rank: int,
                           budget: Optional[OracleBudget] = None) -> TorsionVerdict:
    """Classify g at the given rank: does g^k collapse to the identity, is g
    conjugate into the ab-subgroup, both, or (budget) neither certified.

    Both branches are always attempted so the two witnesses can be replayed
    independently; an element may legitimately certify on both (the identity
    does)."""
    oracle = presentation.oracle(rank)
    budget = budget or oracle.default_budget
    k = presentation.params.k
    torsion = oracle.equal(g ** k, Word(()), budget)
    into_h = oracle.conjugate_into_ab(g, budget)
    if torsion.is_yes and into_h.is_yes:
        status = "both"
    elif torsion.is_yes:
        status = "power-torsion"
    elif into_h.is_yes:
        status = "conjugate-into-H"
    else:
        status = "unknown"
    return TorsionVerdict(word=g.format(), status=status, torsion=torsion,
                          into_h=into_h, exponent=k)


def quotient_system(presentation, rank: int) -> RelatorSystem:
    """The rank-r relator system with both ab-letters killed (relators
    q.a and q.b).  Every relator exponent vector plus the two unit vectors
    then spans the residue lattice, so equality-to-identity is usually
    residue-certified without any search."""
    base = presentation.relator_system(rank)
    extra = (Relator("q.a", (1,)), Relator("q.b", (2,)))
    return RelatorSystem(presentation.alphabet, base.relators + extra,
                         alpha_bar=base.alpha_bar)


def quotient_return_probability(presentation, rank: int, steps: int,
                                trials: int, seed: int,
                                budget: Optional[OracleBudget] = None,
                                nu: Optional[StepDistribution] = None) -> LawEstimate:
    """Return-probability estimate for a nu-walk on the quotient with a and b
    killed.  Default nu is the lazy uniform step on {1, s1, s1^-1}."""
    if trials < 1:
        raise InputError("trials must be >= 1")
    if steps < 0:
        raise InputError("steps must be >= 0")
    if presentation.alphabet.m < 1:
        raise InputError("quotient walk needs at least one s-generator")
    oracle = RankOracle(quotient_system(presentation, rank))
    budget = budget or oracle.default_budget
    if nu is None:
        nu = StepDistribution.lazy_uniform([Word((3,)), Word((-3,))])
    rng = random.Random(seed)
    one = Word(())
    holds = fails = unknown = 0
    for _ in range(trials):
        w = random_walk_sample(nu, steps, rng)
        v = oracle.equal(w, one, budget)
        if v.is_yes:
            holds += 1
        elif v.is_no:
            fails += 1
        else:
            unknown += 1
    return _estimate("x = 1 (quotient walk)", "walk", steps, holds, fails, unknown)
