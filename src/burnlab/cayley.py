"""Cayley-ball enumeration, growth tables, and conjugate-density reports.

Counting conventions:

* gamma_G(r) counts canonical elements of the radius-r ball at the working
  rank; merges happen exactly when the oracle certifies equality, so an
  incomplete canonicalization makes the count an upper bound and the rows
  carry flags {exact, upper-bound} rather than silent numbers.
* gamma_H(r) counts elements written over {a,b}.  When the relator system
  has a positive ab-lengthening margin those words are pairwise distinct
  geodesics, so the free rank-2 closed form 2*3^r - 1 is exact.
* The density numerator #(B(n) cap H^G) has three computation paths: a
  direct cyclic-core scan (rank 0), an exact closed-form count (rank 0,
  any radius), and the union enumeration over pairs V K V^-1 with
  |K| + 2|V| <= n, which works at any rank via oracle canonicalization.
  The floor in |V| <= (n-|K|)/2 is forced by parity: a reduced conjugation
  adds exactly 2|V| letters.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, isqrt
from typing import Optional, Sequence

from .errors import InputError
from .oracle import OracleBudget
from .records import Frozen, Record
from .words import (
    AB_LETTERS,
    Alphabet,
    cyclic_reduce_letters,
    decode_letters,
    encode_letters,
    free_ball_size,
    is_ab_word,
    reduced_words_up_to,
    splice_reduce,
)

FLAG_EXACT = "exact"
FLAG_UPPER = "upper-bound"


class BallResult(Record):
    rank: int
    radius: int
    elements: tuple[tuple[int, ...], ...]  # canonical, shortlex sorted
    sphere_counts: tuple[int, ...]  # index = radius
    flag: str

    @property
    def count(self) -> int:
        return len(self.elements)

    def ball_count(self, r: int) -> int:
        return sum(self.sphere_counts[: r + 1])


def enumerate_ball(presentation, rank: int, radius: int,
                   budget: Optional[OracleBudget] = None,
                   letters: Optional[Sequence[int]] = None) -> BallResult:
    """Breadth-first ball enumeration with certified merging.

    Elements are canonical words (shortlex-least certified-equal form).  A
    canonicalization that fails to exhaust its rewriting component downgrades
    the flag to upper-bound: unmerged duplicates can only inflate the count.
    Expansion order is sorted, so output is independent of scheduling.

    The search runs on `words.encode_letters` strings through
    `RankOracle.canonical_encoded`: a step from w by the letter code c is
    w[:-1] when c inverts w's last letter, else w + c, and an encoded list
    sorts by shortlex as a stable sort by length after a plain sort.  Only
    the elements are decoded, at the end.
    """
    if radius < 0:
        raise InputError("radius must be >= 0")
    canonical = presentation.oracle(rank).canonical_encoded
    gens = sorted(encode_letters(
        letters if letters is not None else presentation.alphabet.letters()))
    flag = FLAG_EXACT
    known: set[str] = {""}
    spheres: list[int] = [1]
    frontier: list[str] = [""]
    for d in range(1, radius + 1):
        new: list[str] = []
        for w in frontier:
            last = ord(w[-1]) ^ 1 if w else -1
            for c in gens:
                canon, complete = canonical(w[:-1] if ord(c) == last else w + c, budget)
                if not complete:
                    flag = FLAG_UPPER
                if canon in known:
                    continue
                if len(canon) < d:
                    # a shorter canonical form surfacing late means some merge
                    # was missed at an earlier level; keep counting, flag it
                    flag = FLAG_UPPER
                known.add(canon)
                new.append(canon)
        new.sort()
        new.sort(key=len)
        spheres.append(len(new))
        frontier = new
    elements = sorted(known)
    elements.sort(key=len)
    return BallResult(rank, radius, tuple(map(decode_letters, elements)),
                      tuple(spheres), flag)


class GrowthTable(Record):
    series: str  # "gamma_G" | "gamma_H"
    rank: int
    rows: tuple[tuple[int, int, str], ...]  # (radius, ball count, flag)

    def counts(self) -> list[int]:
        return [c for _, c, _ in self.rows]

    def to_csv(self) -> str:
        lines = ["radius,count,flag"]
        lines.extend("%d,%d,%s" % row for row in self.rows)
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {"series": self.series, "rank": self.rank,
             "rows": [{"radius": r, "count": c, "flag": f} for r, c, f in self.rows]},
            sort_keys=True, indent=2) + "\n"


def growth(presentation, rank: int, n_max: int,
           budget: Optional[OracleBudget] = None,
           subgroup: str = "G") -> GrowthTable:
    if subgroup not in ("G", "H"):
        raise InputError("subgroup must be 'G' or 'H'")
    letters = None if subgroup == "G" else AB_LETTERS
    ball = enumerate_ball(presentation, rank, n_max, budget, letters=letters)
    flag = ball.flag
    if subgroup == "H" and rank >= 1:
        margin = presentation.relator_system(rank).ab_margin
        if margin is None or margin <= 0:
            flag = FLAG_UPPER
    rows = tuple((r, ball.ball_count(r), flag) for r in range(n_max + 1))
    return GrowthTable(series="gamma_%s" % subgroup, rank=rank, rows=rows)


# density of the conjugates of H


def rank0_hg_count(alphabet: Alphabet, n: int) -> int:
    """#(B(n) cap H^G) in the free stage, in closed form.

    Every such element w factors uniquely as V K V^-1 reduced-as-written with
    K nonempty cyclically reduced over {a,b} and |K| + 2|V| <= n, plus the
    identity.  There are 3^j + 2 + (-1)^j such K of length j (the trace of
    the j-th power of the 4-letter non-backtracking matrix), and K's ends
    forbid exactly two last letters for V, so 1 + sum over v = 1..vmax of
    (2g-2)(2g-1)^(v-1) = (2g-1)^vmax conjugators have |V| <= vmax.
    """
    if n < 0:
        raise InputError("n must be >= 0")
    base = 2 * alphabet.size - 1
    return 1 + sum((3 ** j + 2 + (-1) ** j) * base ** ((n - j) // 2)
                   for j in range(1, n + 1))


def rank0_hg_elements(alphabet: Alphabet, n: int) -> set[tuple[int, ...]]:
    """Same set by brute scan: reduced words of length <= n whose cyclic core
    is written over {a,b}.  Exponential in n; cross-check oracle."""
    out = set()
    for t in reduced_words_up_to(alphabet, n):
        core, _ = cyclic_reduce_letters(t)
        if is_ab_word(core):
            out.add(t)
    return out


def hg_union_elements(presentation, rank: int, n: int,
                      budget: Optional[OracleBudget] = None
                      ) -> tuple[set[tuple[int, ...]], str]:
    """Union-of-conjugates enumeration: canonical forms of V K V^-1 over
    K in B_H(n) (as written words) and V in B_G(floor((n-|K|)/2))."""
    oracle = presentation.oracle(rank)
    ball = enumerate_ball(presentation, rank, n // 2, budget)
    flag = ball.flag
    by_norm: dict[int, list[tuple[int, ...]]] = {}
    for el in ball.elements:
        by_norm.setdefault(len(el), []).append(el)
    out: set[tuple[int, ...]] = set()
    for k_word in reduced_words_up_to(presentation.alphabet, n, letters=AB_LETTERS):
        vmax = (n - len(k_word)) // 2
        for v_len in range(vmax + 1):
            for v in by_norm.get(v_len, ()):
                w = splice_reduce(v, k_word, tuple(-x for x in reversed(v)))
                canon, complete = oracle.canonical(w, budget)
                if not complete:
                    flag = FLAG_UPPER
                out.add(canon)
    return out, flag


class DensityRow(Record):
    n: int
    ball: int
    ball_flag: str
    hg_lo: int
    hg_hi: int
    hg_flag: str
    ratio_lo: Fraction
    ratio_hi: Fraction
    sigma_bound: int


def sigma_bound(alphabet: Alphabet, n: int, gamma_g=None) -> int:
    """Sum over j of gamma_H(j) * gamma_G(floor((n-j)/2)), the coarse
    pair-counting bound on the density numerator.  gamma_g defaults to the
    free closed form; pass computed ball counts to tighten."""
    if gamma_g is None:
        gamma_g = lambda r: free_ball_size(alphabet.size, r)
    return sum(free_ball_size(2, j) * gamma_g((n - j) // 2) for j in range(n + 1))


def density_HG(presentation, rank: int, n: int,
               budget: Optional[OracleBudget] = None,
               method: str = "auto") -> DensityRow:
    """One density report row: ball size, H^G count, ratio interval, bound.

    method: "formula" (rank 0 only, exact closed computation), "union"
    (pair enumeration via the oracle, any rank), or "auto".
    """
    alphabet = presentation.alphabet
    if method not in ("auto", "formula", "union"):
        raise InputError("method must be auto, formula, or union")
    if method == "formula" and rank != 0:
        raise InputError("formula path is exact only at rank 0")
    use_formula = method == "formula" or (method == "auto" and rank == 0)

    if use_formula:
        ball = free_ball_size(alphabet.size, n)
        hg = rank0_hg_count(alphabet, n)
        bound = sigma_bound(alphabet, n)
        return DensityRow(n, ball, FLAG_EXACT, hg, hg, FLAG_EXACT,
                          Fraction(hg, ball), Fraction(hg, ball), bound)

    ball = enumerate_ball(presentation, rank, n, budget)
    elements, flag = hg_union_elements(presentation, rank, n, budget)
    hg_hi = len(elements)
    if flag == FLAG_EXACT:
        hg_lo = hg_hi
    else:
        system = presentation.relator_system(rank)
        residues = {system.lattice.reduce(system.expvec(t)) for t in elements}
        hg_lo = len(residues)
    bound = sigma_bound(alphabet, n, gamma_g=ball.ball_count)
    return DensityRow(
        n=n, ball=ball.count, ball_flag=ball.flag,
        hg_lo=hg_lo, hg_hi=hg_hi, hg_flag=flag,
        ratio_lo=Fraction(hg_lo, ball.count),
        ratio_hi=Fraction(hg_hi, ball.count),
        sigma_bound=bound,
    )


def density_rows_to_csv(rows: Sequence[DensityRow]) -> str:
    lines = ["n,ball,hg_count,ratio_lo,ratio_hi,bound"]
    for r in rows:
        lines.append("%d,%d,%d,%s,%s,%d"
                     % (r.n, r.ball, r.hg_hi, r.ratio_lo, r.ratio_hi, r.sigma_bound))
    return "\n".join(lines) + "\n"


def density_rows_to_json(rows: Sequence[DensityRow]) -> str:
    payload = [
        {
            "n": r.n, "ball": r.ball, "ball_flag": r.ball_flag,
            "hg_count": r.hg_hi, "hg_lo": r.hg_lo, "hg_flag": r.hg_flag,
            "ratio_lo": str(r.ratio_lo), "ratio_hi": str(r.ratio_hi),
            "bound": r.sigma_bound,
        }
        for r in rows
    ]
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# exact arithmetic over Q(sqrt(d)) for the decay bound chain


class QuadExt(Frozen):
    """Numbers x + y*sqrt(d) with rational x, y and a fixed nonnegative
    integer d.  Perfect-square d folds to plain rationals at construction.
    Comparisons are exact sign computations, no floats."""

    __slots__ = ("x", "y", "d")

    def __init__(self, x, y=0, d=0):
        x, y = Fraction(x), Fraction(y)
        if d < 0:
            raise InputError("d must be >= 0")
        r = isqrt(d)
        if r * r == d:
            x, y, d = x + y * r, Fraction(0), 0
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "d", d)

    def _coerce(self, other) -> "QuadExt":
        if isinstance(other, QuadExt):
            if other.d != self.d and other.d != 0 and self.d != 0:
                raise InputError("mixed radicands %d and %d" % (self.d, other.d))
            return other
        return QuadExt(other)

    def __add__(self, other):
        o = self._coerce(other)
        d = self.d or o.d
        return QuadExt(self.x + o.x, self.y + o.y, d)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        d = self.d or o.d
        return QuadExt(self.x - o.x, self.y - o.y, d)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        d = self.d or o.d
        return QuadExt(self.x * o.x + self.y * o.y * d,
                       self.x * o.y + self.y * o.x, d)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise InputError("negative powers not needed")
        out = QuadExt(1, 0, self.d)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def sign(self) -> int:
        x, y = self.x, self.y
        if y == 0:
            return (x > 0) - (x < 0)
        if x == 0:
            return (y > 0) - (y < 0)
        if x > 0 and y > 0:
            return 1
        if x < 0 and y < 0:
            return -1
        # opposite signs: compare x^2 against y^2 d
        lhs, rhs = x * x, y * y * self.d
        if x > 0:  # x positive, y negative
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return -1 if lhs > rhs else (1 if lhs < rhs else 0)

    def __eq__(self, other):
        try:
            return (self - other).sign() == 0
        except InputError:
            return NotImplemented

    def __lt__(self, other):
        return (self - other).sign() < 0

    def __le__(self, other):
        return (self - other).sign() <= 0

    def __hash__(self):
        # a rational equals the int or Fraction of the same value, so it
        # hashes as that value does
        if self.y == 0:
            return hash(self.x)
        return hash((self.x, self.y, self.d))

    def __float__(self):
        return float(self.x) + float(self.y) * self.d ** 0.5

    def __repr__(self):
        if self.y == 0:
            return str(self.x)
        return "%s + %s*sqrt(%d)" % (self.x, self.y, self.d)


class BoundChainReport(Record):
    alpha: int
    n: int
    constants: dict
    lines: tuple[tuple[str, bool, str, str], ...]  # (name, holds, lhs, rhs)
    decays: bool
    geometric_ratio: Fraction | None
    ratio_bound_float: float

    @property
    def all_lines_hold(self) -> bool:
        return all(ok for _, ok, _, _ in self.lines)


def density_bound_chain(n: int, alpha: int, C=Fraction(1), N: int = 1) -> BoundChainReport:
    """Exact verification of the decay-bound inequality chain at radius n.

    With d = alpha + 1 and the growth fit gamma_G(r) <= C*(alpha+1)^r for
    r >= N (radii below N capped by C*(alpha+1)^N, which costs the head
    term D*3^n with D = 4*N*C*(alpha+1)^N):

      L1  sum_j 2*3^j * fit(floor((n-j)/2))  <=  2C*(3+sqrt(d))^n + D*3^n
      L2  sum_j binom(n,j)*3^j*sqrt(d)^(n-j) ==  (3+sqrt(d))^n
      L3  2C*(3+sqrt(d))^n + D*3^n           <=  C'*(3+sqrt(d))^n,  C' = 2C+D
      L4  3 + sqrt(d) < alpha - 1            (the decay comparison)

    Every line is evaluated in Q(sqrt(d)); alpha <= 7 can make L4 false,
    which is reported, not raised.  The geometric ratio
    ((3+sqrt(d))/(alpha-1))^n is returned exactly when d is a perfect square.
    """
    if n < 0:
        raise InputError("n must be >= 0")
    if not isinstance(alpha, int) or alpha < 2:
        raise InputError("alpha must be an integer >= 2")
    C = Fraction(C)
    if C <= 0:
        raise InputError("C must be positive")
    if not isinstance(N, int) or N < 1:
        raise InputError("N must be an integer >= 1")

    d = alpha + 1
    sq = QuadExt(0, 1, d)
    base = QuadExt(3, 1, d)
    D = 4 * N * C * Fraction(d) ** N
    C_prime = 2 * C + D

    def fit(r: int) -> Fraction:
        return C * Fraction(d) ** max(r, N)

    lhs1 = QuadExt(sum(2 * 3**j * fit((n - j) // 2) for j in range(n + 1)), 0, d)
    rhs1 = QuadExt(2 * C, 0, d) * base**n + QuadExt(D * 3**n, 0, d)
    line1 = ("floor-sum vs head-split", (lhs1 <= rhs1), repr(lhs1), repr(rhs1))

    lhs2 = QuadExt(0, 0, d)
    for j in range(n + 1):
        lhs2 = lhs2 + QuadExt(comb(n, j) * 3**j, 0, d) * sq ** (n - j)
    rhs2 = base**n
    line2 = ("binomial collapse", lhs2 == rhs2, repr(lhs2), repr(rhs2))

    lhs3 = rhs1
    rhs3 = QuadExt(C_prime, 0, d) * base**n
    line3 = ("constant fold", (lhs3 <= rhs3), repr(lhs3), repr(rhs3))

    decay_rhs = QuadExt(alpha - 1, 0, d)
    decays = base < decay_rhs
    line4 = ("decay comparison 3+sqrt(%d) < %d" % (d, alpha - 1), decays,
             repr(base), repr(decay_rhs))

    geo = None
    if base.d == 0:
        geo = Fraction(base.x, alpha - 1) ** n
    ratio_float = (float(base) / (alpha - 1)) ** n * float(C_prime)

    return BoundChainReport(
        alpha=alpha, n=n,
        constants={"C": str(C), "D": str(D), "C_prime": str(C_prime), "N": N,
                   "alpha": alpha},
        lines=(line1, line2, line3, line4),
        decays=decays,
        geometric_ratio=geo,
        ratio_bound_float=ratio_float,
    )
