"""Law-probability estimation, torsion classification, and walk statistics.

Every estimate here is tri-state at the core: a sampled instance of a law is
*certified holding* (oracle yes on w = 1), *certified failing* (oracle no),
or *unresolved* (budget ran out).  Estimates therefore come as intervals
[holds/trials, (holds+unknown)/trials] with a Wilson interval around the
certified fraction, never as a bare point value.

Sampling is seed-deterministic: all random draws for a run come from one
`random.Random(seed)` stream, and every sample is drawn before any is
queried.  Samples are tallied by word and the distinct words grouped by
cyclic core: w = 1 exactly when its core is 1, so each core is queried once,
in first-seen order, its verdict weighted by its group's count.  A core that
comes back unknown falls back to one query per raw word of its group.

Random walks (`random_walk_sample`, walk-mode `law_probability` and
`quotient_return_probability`) come from one generator, `_walks`, which
draws a chunk of walks with a handful of C-level calls: one key per step,
the walks' keys joined by a separator, translated to the steps' encoded
words, freely reduced (`str.replace` of the cancelling pairs, or, past
`_MAX_REPLACE_PAIRS` pairs, one regex scan for runs of one generator) and
split again.  A `random.Random` whose class keeps the stdlib's `random` and
`getrandbits` gives a chunk's uniforms as one `getrandbits` call, read as
the 32-bit outputs each `random()` call would consume; any other generator
is asked for one `random()` per step.  Either way the words and the
generator's final state are those of one `random()` per step, with the step
taken by `bisect_right` on the running float sums.
"""

from __future__ import annotations

import math
import random
import re
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate, islice, product, repeat
from typing import Iterable, Iterator, Optional, Sequence

from .cayley import FLAG_EXACT, enumerate_ball
from .errors import InputError, StateError
from .oracle import OracleBudget, RankOracle, Relator, RelatorSystem, Verdict
from .records import Record
from .words import (
    Word,
    cyclic_rep,
    cyclic_split_reduced,
    decode_letters,
    encode_letters,
    inverse_letters,
    power_letters,
    reduce_letters,
    splice_reduce,
)

_Z95 = 1.959963984540054

# a parsed law (and every exponent in it) stays within this many letters
MAX_LAW_LETTERS = 10_000
# ... and nests at most this many parentheses or brackets deep: the parser
# recurses once per level
MAX_LAW_NESTING = 100

# `_walks` draws and reduces about this many steps at a time: a chunk holds
# max(1, _CHUNK_STEPS // steps) walks, so a walk longer than a chunk is one
_CHUNK_STEPS = 1 << 14
# the generators `_walks` reads a chunk's bits from in one call: the class
# keeps the stdlib's methods, so random() is two 32-bit outputs a, b giving
# ((a >> 5) * 2^26 + (b >> 6)) * 2^-53
_BULK_METHODS = (random.Random.random, random.Random.getrandbits)
_TWO_POW_MINUS_53 = 2.0 ** -53
# a step in a cut bucket costs a Python-level resolution, about 40 times a
# key read: past this many cut byte buckets, steps are keyed by two bytes
_MAX_CUT_BYTES = 8
# past this many cancelling pairs, `StepDistribution._reduce` goes by runs
_MAX_REPLACE_PAIRS = 32
_RUN = re.compile(r"(.)\1+", re.DOTALL)


def _bucket_codes(thresholds: Sequence[float], codes: list[str],
                  size: int) -> list[Optional[str]]:
    """The step code of every uniform in each of `size` equal buckets of
    [0, 1), or None for a cut bucket.  The draw index can change only at a
    bucket holding a threshold or starting at one, so the buckets between
    are filled as runs."""
    edges = {0, size}
    for x in thresholds:
        v = math.floor(x * size)
        edges.update((min(size, v), min(size, v + 1)))
    edges = sorted(edges)
    table: list[Optional[str]] = []
    for lo, hi in zip(edges, edges[1:]):
        i = bisect_right(thresholds, lo / size)
        if i == bisect_left(thresholds, hi / size):
            table += [codes[i]] * (hi - lo)
        else:
            # a threshold lies strictly inside [lo, hi), so hi == lo + 1
            table.append(None)
    return table


class GroupLaw(Record, uncompared=("text",)):
    """A nontrivial word in variables x1, x2.

    Text grammar: juxtaposition is product, `^` takes integer powers,
    `[u,v]` is the commutator u^-1 v^-1 u v, parentheses group, and
    uppercase X1/X2 abbreviate inverses.  A law that freely reduces to the
    empty word (like `x1 X1`) is rejected: it holds in every group and
    estimating it is a caller bug.  Laws compare by their reduced letters;
    `text` is only how the law was written.
    """

    letters: tuple[int, ...]
    text: str = ""

    MAX_VARS = 2

    def __post_init__(self):
        lst = reduce_letters(tuple(self.letters))
        if not lst:
            raise InputError("law is freely trivial as written")
        for l in lst:
            if not (1 <= abs(l) <= self.MAX_VARS):
                raise InputError("law variables must be x1..x%d" % self.MAX_VARS)
        self.__dict__.update(letters=lst, text=self.text or self._render(lst))

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
            if j - i - 1 > len(str(MAX_LAW_LETTERS)):
                raise InputError("law variables must be x1..x%d" % GroupLaw.MAX_VARS)
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


def _parse_product(toks, pos, stop, depth=0):
    if depth > MAX_LAW_NESTING:
        raise InputError("law nests deeper than %d" % MAX_LAW_NESTING)
    letters: tuple[int, ...] = ()
    while pos < len(toks) and toks[pos] not in stop:
        t = toks[pos]
        if t == "(":
            inner, pos = _parse_product(toks, pos + 1, (")",), depth + 1)
            if pos >= len(toks) or toks[pos] != ")":
                raise InputError("unclosed ( in law")
            pos += 1
        elif t == "[":
            u, pos = _parse_product(toks, pos + 1, (",",), depth + 1)
            if pos >= len(toks) or toks[pos] != ",":
                raise InputError("commutator needs two arguments")
            v, pos = _parse_product(toks, pos + 1, ("]",), depth + 1)
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


class StepDistribution(Record):
    """Finitely supported step law for random walks: pairs (word, prob) with
    exact positive Fractions summing to 1.

    Construction runs a bounded semigroup-generation probe (products of
    support words up to twice the longest support length): if some alphabet
    letter is never reached the flag `maybe_degenerate` is set.  That is a
    warning, not an error: restricted walks (e.g. on a cyclic quotient) are
    legitimate.  No report prints the flag; a caller reads it from here.

    A draw takes the first word whose running float sum (`thresholds`)
    exceeds one `rng.random()`, else the last word: rounding can leave the
    sum below 1.  Distributions compare by `support`, which construction
    sorts in shortlex order of the words.

    For `_walks` a step is a one-character key.  [0, 1) is split into
    `_buckets` equal buckets, 256 or, when more than `_MAX_CUT_BYTES` byte
    buckets hold a threshold strictly inside (are cut), 65536; the top byte
    or two bytes v of a step's first 32-bit output name the bucket its
    uniform lies in.  The key is v when bucket v is not cut, and else
    `_buckets` + the draw's index.  `_table` translates keys to encoded
    step words and the key `_sep_key` to `_sep`, a code point no support
    letter or its inverse uses, whose generator no letter shares.
    """

    support: tuple[tuple[Word, Fraction], ...]

    def __post_init__(self):
        pairs = []
        total = Fraction(0)
        seen = set()
        for w, p in self.support:
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
        if not pairs:
            raise InputError("empty support")
        if total != 1:
            raise InputError("step probabilities sum to %s, need 1" % total)
        pairs.sort(key=lambda wp: (len(wp[0].letters), wp[0].letters))
        d = self.__dict__
        d["support"] = tuple(pairs)
        d["thresholds"] = tuple(accumulate(float(p) for _, p in pairs))
        # indexed by bisect_right(thresholds, u): the repeated last word is
        # the fall-back for u at or above the float sum
        d["_draws"] = draws = tuple(w for w, _ in pairs) + (pairs[-1][0],)
        self._walk_tables(d, [encode_letters(w.letters) for w in draws])
        d["probe_depth"] = depth = 2 * max(len(w.letters) for w, _ in pairs) or 1
        d["maybe_degenerate"] = not self._probe(depth)

    def _walk_tables(self, d: dict, codes: list[str]) -> None:
        table = _bucket_codes(self.thresholds, codes, 256)
        if table.count(None) > _MAX_CUT_BYTES:
            table = _bucket_codes(self.thresholds, codes, 1 << 16)
        d["_buckets"] = n = len(table)
        used = {ord(c) for code in codes for c in code}
        d["_sep"] = sep = chr((max(used, default=0) | 1) + 1)
        d["_table"] = tuple(table + codes + [sep])
        d["_resolved"] = tuple(map(chr, range(n, n + len(codes))))
        d["_sep_key"] = chr(n + len(codes))
        cut = [chr(v) for v, code in enumerate(table) if code is None]
        d["_cut"] = re.compile("[%s]" % "".join(map(re.escape, cut))) if cut else None
        d["_pairs"] = pairs = tuple(chr(c) + chr(c ^ 1) for c in sorted(used) if c ^ 1 in used)
        # code -> its generator's character, for `_reduce` by runs
        d["_generators"] = (tuple(chr(c >> 1) for c in range(ord(sep) + 1))
                            if len(pairs) > _MAX_REPLACE_PAIRS else None)

    def _keys_from_bits(self, data: bytes) -> str:
        """The keys of the steps whose uniforms `data` holds: 8 bytes a
        step, the two 32-bit outputs of one `random()` call, little-endian.
        A step in a cut bucket is resolved exactly, by `bisect_right` on its
        uniform."""
        if self._buckets == 256:
            keys = data[3::8].decode("latin-1")
        else:
            wide = bytearray(len(data) // 2)
            wide[0::4], wide[1::4] = data[2::8], data[3::8]
            keys = wide.decode("utf-32-le", "surrogatepass")
        if self._cut is None:
            return keys
        t, resolved = self.thresholds, self._resolved
        parts, last = [], 0
        for m in self._cut.finditer(keys):
            i = m.start()
            x = int.from_bytes(data[8 * i:8 * i + 8], "little")
            u = (((x & 0xFFFFFFFF) >> 5 << 26) + (x >> 38)) * _TWO_POW_MINUS_53
            parts += keys[last:i], resolved[bisect_right(t, u)]
            last = i + 1
        parts.append(keys[last:])
        return "".join(parts)

    def _keys_from_uniforms(self, uniforms: Iterable[float]) -> str:
        """The keys of the steps drawn by the given `random()` values."""
        return "".join(map(self._resolved.__getitem__,
                           map(bisect_right, repeat(self.thresholds), uniforms)))

    def _reduce(self, s: str) -> str:
        """`s`, a string of encoded step words and separators, freely
        reduced.  Reduction is confluent, so any order of deleting
        cancelling pairs ends in the word the one-letter-at-a-time stack
        gives.  Up to `_MAX_REPLACE_PAIRS` pairs, each is deleted by
        `str.replace` until the length stops changing; past that, a pass
        costing one scan per pair costs more than one scan for maximal runs
        of letters of one generator, each of which reduces to x^(#x - #X)."""
        if self._generators is None:
            size = None
            while size != len(s):
                size = len(s)
                for pair in self._pairs:
                    s = s.replace(pair, "")
            return s
        while True:
            parts, last = [], 0
            for m in _RUN.finditer(s.translate(self._generators)):
                i, j = m.span()
                x = chr(ord(s[i]) & ~1)
                k = s.count(x, i, j) * 2 - (j - i)
                if abs(k) != j - i:
                    parts += s[last:i], x * k if k > 0 else chr(ord(x) + 1) * -k
                    last = j
            if not last:
                return s
            parts.append(s[last:])
            s = "".join(parts)

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
        return self._draws[bisect_right(self.thresholds, rng.random())]

    def __repr__(self):
        return "StepDistribution(%s)" % ", ".join(
            "%s:%s" % (w, p) for w, p in self.support)


class LawEstimate(Record):
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


def _tally(oracle: RankOracle, words: Iterable[Word],
           budget: Optional[OracleBudget]) -> tuple[int, int, int]:
    """(holds, fails, unknown) of `w = 1` over `words`, repeats counted;
    `words` may also map each distinct word to its count.

    w = 1 exactly when its cyclic core is 1 (x^k = u c^k u^-1 is a free
    conjugate of c^k), so the distinct words are grouped by `cyclic_rep`
    and each core is queried once, in first-seen order; verdicts do not
    depend on memo warmth, so a repeat would give the same verdict.  The
    search's component depends on the rotation it starts from, so a core
    that comes back `unknown` falls back to querying each member that
    differs from it: no answer the raw word decides is lost."""
    groups: dict[tuple[int, ...], list[tuple[Word, int]]] = {}
    for w, count in Counter(words).items():
        groups.setdefault(cyclic_rep(w.letters), []).append((w, count))
    tally = [0, 0, 0]
    for core, members in groups.items():
        v = oracle.equal(core, (), budget)
        for w, count in members:
            if v.is_unknown and w.letters != core:
                u = oracle.equal(w, (), budget)
            else:
                u = v
            tally[0 if u.is_yes else 1 if u.is_no else 2] += count
    return tally[0], tally[1], tally[2]


def sample_uniform_ball(presentation, rank: int, n: int, rng: random.Random,
                        budget: Optional[OracleBudget] = None,
                        _cache: Optional[dict] = None) -> Word:
    """One uniform draw from the radius-n ball at the given rank.

    Uniformity is over certified-distinct elements, so an inexact ball would
    silently bias the measure; that is refused."""
    key = (rank, n)
    if _cache is not None and key in _cache:
        elements = _cache[key]
    else:
        ball = enumerate_ball(presentation, rank, n, budget)
        if ball.flag != FLAG_EXACT:
            raise StateError("ball(%d) at rank %d is %s, not exact"
                             % (n, rank, ball.flag))
        elements = ball.elements
        if _cache is not None:
            _cache[key] = elements
    return Word._raw(elements[rng.randrange(len(elements))])


def _walks(nu: StepDistribution, steps: int, count: int,
           rng: random.Random) -> Iterator[str]:
    """The encoded reduced words of `count` independent `steps`-step
    nu-walks, in draw order, drawn and reduced a chunk of walks at a time:
    one key per step, each walk's keys joined to the next by `_sep_key`,
    translated to encoded step words, reduced and split at `_sep`."""
    if steps < 0:
        raise InputError("steps must be >= 0")
    if steps == 0:
        yield from repeat("", count)
        return
    bulk = (type(rng).random, type(rng).getrandbits) == _BULK_METHODS
    per = max(1, _CHUNK_STEPS // steps)
    for start in range(0, count, per):
        n = min(per, count - start) * steps
        keys = (nu._keys_from_bits(rng.getrandbits(64 * n).to_bytes(8 * n, "little"))
                if bulk else nu._keys_from_uniforms(islice(iter(rng.random, None), n)))
        s = nu._sep_key.join(map(keys.__getitem__, map(
            slice, range(0, n, steps), range(steps, n + steps, steps)))).translate(nu._table)
        yield from nu._reduce(s).split(nu._sep)


def random_walk_sample(nu: StepDistribution, steps: int, rng: random.Random) -> Word:
    """Product of `steps` independent nu-draws, freely reduced: `_walks`
    with one walk.  A `random.Random` whose class keeps the stdlib's
    `random` and `getrandbits` gives the walk's uniforms in one
    `getrandbits(64 * steps)` call, any other generator one `random()` per
    step; either way the walk and the generator's final state are those of
    `steps` draws of `StepDistribution.draw`."""
    return Word._raw(decode_letters(next(_walks(nu, steps, 1, rng))))


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
    arity = law.arity

    if mode == "exhaustive":
        ball = enumerate_ball(presentation, rank, n, budget)
        if ball.flag != FLAG_EXACT:
            raise StateError("exhaustive mode needs an exact ball, got %s" % ball.flag)
        words = (law.evaluate([Word._raw(t) for t in combo])
                 for combo in product(ball.elements, repeat=arity))
        return _estimate(law.text, mode, n, *_tally(oracle, words, budget),
                         exact=True)

    if mode not in ("ball", "walk"):
        raise InputError("mode must be ball, walk, or exhaustive")
    if trials < 1:
        raise InputError("sampled modes need trials >= 1")
    if seed is None:
        raise InputError("sampled modes need a seed")
    if mode == "walk" and nu is None:
        raise InputError("walk mode needs a step distribution")

    rng = random.Random(seed)
    if mode == "walk":
        # trial by trial, x1's walk then x2's
        walks = map(Word._raw, map(decode_letters, _walks(nu, n, arity * trials, rng)))
        words = map(law.evaluate, zip(*[walks] * arity))
    else:
        cache: dict = {}
        words = (law.evaluate([sample_uniform_ball(presentation, rank, n, rng, budget,
                                                   _cache=cache)
                               for _ in range(arity)])
                 for _ in range(trials))
    return _estimate(law.text, mode, n, *_tally(oracle, words, budget))


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


class TorsionVerdict(Record):
    word: str
    status: str  # power-torsion | conjugate-into-H | both | neither | unknown
    torsion: Verdict
    into_h: Verdict
    exponent: int

    @property
    def certified(self) -> bool:
        return self.status != "unknown"


def torsion_dichotomy_test(presentation, g: Word, rank: int,
                           budget: Optional[OracleBudget] = None) -> TorsionVerdict:
    """Classify g at the given rank: does g^k collapse to the identity, is g
    conjugate into the ab-subgroup, both, or neither (both verdicts no)?
    Unknown when neither verdict is yes and one of them is unknown.

    Both branches are always attempted so the two witnesses can be replayed
    independently; an element may legitimately certify on both (the identity
    does)."""
    oracle = presentation.oracle(rank)
    k = presentation.params.k
    torsion = oracle.equal(g ** k, Word(()), budget)
    into_h = oracle.conjugate_into_ab(g, budget)
    if torsion.is_yes and into_h.is_yes:
        status = "both"
    elif torsion.is_yes:
        status = "power-torsion"
    elif into_h.is_yes:
        status = "conjugate-into-H"
    elif torsion.is_no and into_h.is_no:
        status = "neither"
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
    if nu is None:
        nu = StepDistribution.lazy_uniform([Word((3,)), Word((-3,))])
    counts = Counter(_walks(nu, steps, trials, random.Random(seed)))
    words = {Word._raw(decode_letters(code)): c for code, c in counts.items()}
    return _estimate("x = 1 (quotient walk)", "walk", steps,
                     *_tally(oracle, words, budget))
