"""Free-group word algebra over the alphabet {a, b, s_1, ..., s_m}.

Letters are small signed integers: a = 1, b = 2, s_i = i + 2, negation is
inversion.  Words are immutable tuples of letters kept freely reduced.  The
order used everywhere is shortlex with respect to

    a < a^-1 < b < b^-1 < s_1 < s_1^-1 < s_2 < ...

Text form: ``a``, ``A`` (= a^-1), ``b``, ``B``, ``s1``, ``S1``, ... either
concatenated (``abS1``) or dot-separated (``a.b.S1``).  Parsing accepts both;
rendering uses dots exactly when a multi-character token is present, so that
parse(format(w)) == w bit-exactly.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .errors import InputError

A_LETTER = 1
B_LETTER = 2


def letter_key(letter: int) -> int:
    """Total order on letters: a=0, A=1, b=2, B=3, s1=4, S1=5, ...

    >>> [letter_key(x) for x in (1, -1, 2, -2, 3, -3)]
    [0, 1, 2, 3, 4, 5]
    """
    if letter > 0:
        return 2 * letter - 2
    return -2 * letter - 1


def is_ab_letter(letter: int) -> bool:
    return letter in (1, -1, 2, -2)


def reduce_letters(seq: Iterable[int]) -> tuple[int, ...]:
    """Freely reduce a letter sequence by cancelling adjacent inverse pairs.

    >>> reduce_letters((1, 3, -3, -1, 2))
    (2,)
    """
    out: list[int] = []
    for x in seq:
        if x == 0 or not isinstance(x, int):
            raise InputError("letters must be nonzero integers, got %r" % (x,))
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse_letters(t: Sequence[int]) -> tuple[int, ...]:
    return tuple(-x for x in reversed(t))


def splice_reduce(left: Sequence[int], mid: Sequence[int], right: Sequence[int]) -> tuple[int, ...]:
    """reduce(left + mid + right) assuming each piece is already reduced."""
    out = list(left)
    for x in mid:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    for x in right:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def is_reduced(t: Sequence[int]) -> bool:
    return all(t[i] != -t[i + 1] for i in range(len(t) - 1))


def is_cyclically_reduced(t: Sequence[int]) -> bool:
    if not is_reduced(t):
        return False
    return len(t) < 2 or t[0] != -t[-1]


def cyclic_reduce_letters(t: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a reduced word as conj * core * conj^-1 with core cyclically reduced.

    Returns (core, conj).

    >>> cyclic_reduce_letters((3, 1, 2, -3))
    ((1, 2), (3,))
    """
    t = tuple(t)
    if not is_reduced(t):
        t = reduce_letters(t)
    return cyclic_split_reduced(t)


def cyclic_split_reduced(t: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """`cyclic_reduce_letters` for a tuple already known to be freely reduced
    (skips the reducedness check).

    >>> cyclic_split_reduced((-2, 1, 3, 2))
    ((1, 3), (-2,))
    """
    i, j = 0, len(t)
    while j - i >= 2 and t[i] == -t[j - 1]:
        i += 1
        j -= 1
    return t[i:j], t[:i]


def power_letters(t: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The n-th power of a reduced word, built in linear time: with
    t = conj * core * conj^-1, t^n = conj * core^n * conj^-1, and core^n
    needs no reduction because core is cyclically reduced.

    >>> power_letters((3, 1, 2, -3), 2)
    (3, 1, 2, 1, 2, -3)
    >>> power_letters((1, 2), -2)
    (-2, -1, -2, -1)
    """
    core, conj = cyclic_split_reduced(t if n >= 0 else inverse_letters(t))
    if not n or not core:
        return ()
    return conj + core * abs(n) + inverse_letters(conj)


def rotations(t: Sequence[int]) -> Iterator[tuple[int, ...]]:
    t = tuple(t)
    for i in range(max(1, len(t))):
        yield t[i:] + t[:i]


def min_rotation(t: Sequence[int]) -> tuple[int, ...]:
    """Shortlex-least rotation (all rotations have equal length, so lex-least
    under the letter order).

    Only rotations starting at a least letter can win; they are compared as
    slices of the doubled key tuple.

    >>> min_rotation((3, 1, 3, 1))
    (1, 3, 1, 3)
    >>> min_rotation((2, 1, 3, 1))
    (1, 2, 1, 3)
    """
    t = tuple(t)
    n = len(t)
    if n <= 1:
        return t
    keys = tuple(map(letter_key, t))
    least = min(keys)
    doubled = keys + keys
    best = keys.index(least)
    best_key = doubled[best : best + n]
    for i in range(best + 1, n):
        if keys[i] == least:
            cand = doubled[i : i + n]
            if cand < best_key:
                best, best_key = i, cand
    return t[best:] + t[:best]


def shortlex_key(t: Sequence[int]) -> tuple:
    return (len(t), tuple(letter_key(x) for x in t))


def exponent_vector(t: Sequence[int], size: int) -> tuple[int, ...]:
    """Letter-count vector over generators 1..size (signed)."""
    v = [0] * size
    for x in t:
        g = abs(x)
        if g > size:
            raise InputError("letter %d outside alphabet of %d generators" % (x, size))
        v[g - 1] += 1 if x > 0 else -1
    return tuple(v)


# text codec


def _letter_token(letter: int) -> str:
    g = abs(letter)
    if g == 1:
        return "a" if letter > 0 else "A"
    if g == 2:
        return "b" if letter > 0 else "B"
    idx = g - 2
    return ("s%d" if letter > 0 else "S%d") % idx


def _token_letter(tok: str) -> int:
    if tok == "a":
        return 1
    if tok == "A":
        return -1
    if tok == "b":
        return 2
    if tok == "B":
        return -2
    if len(tok) >= 2 and tok[0] in "sS" and tok[1:].isdigit():
        idx = int(tok[1:])
        if idx < 1:
            raise InputError("generator index must be >= 1 in %r" % tok)
        return (idx + 2) if tok[0] == "s" else -(idx + 2)
    raise InputError("unknown letter token %r" % tok)


def format_letters(t: Sequence[int]) -> str:
    toks = [_letter_token(x) for x in t]
    if any(len(tok) > 1 for tok in toks):
        return ".".join(toks)
    return "".join(toks)


def parse_letters(text: str) -> tuple[int, ...]:
    """Parse the text codec, dotted or plain.  Does not freely reduce.

    >>> parse_letters("abA")
    (1, 2, -1)
    >>> parse_letters("a.s1.S1.b") == parse_letters("as1S1b")
    True
    """
    text = text.strip()
    if not text:
        return ()
    if "." in text:
        return tuple(_token_letter(tok) for tok in text.split("."))
    out: list[int] = []
    i = 0
    while i < len(text):
        c = text[i]
        if c in "sS":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise InputError("generator letter %r needs an index in %r" % (c, text))
            out.append(_token_letter(text[i:j]))
            i = j
        elif c in "aAbB":
            out.append(_token_letter(c))
            i += 1
        else:
            raise InputError("unknown character %r in word %r" % (c, text))
    return tuple(out)


class Word:
    """An immutable, freely reduced word.  Value semantics, shortlex order.

    >>> Word((1, 2)) * Word((-2, 3))
    Word('a.s1')
    >>> (~Word((1, 3))).format()
    'S1.A'
    >>> Word((3,)) ** 3
    Word('s1.s1.s1')
    """

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[int] = ()):
        object.__setattr__(self, "letters", reduce_letters(letters))

    @classmethod
    def _raw(cls, letters: tuple[int, ...]) -> "Word":
        w = object.__new__(cls)
        object.__setattr__(w, "letters", letters)
        return w

    @classmethod
    def parse(cls, text: str) -> "Word":
        return cls(parse_letters(text))

    def format(self) -> str:
        return format_letters(self.letters)

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __lt__(self, other: "Word") -> bool:
        return shortlex_key(self.letters) < shortlex_key(other.letters)

    def __le__(self, other: "Word") -> bool:
        return shortlex_key(self.letters) <= shortlex_key(other.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word._raw(splice_reduce(self.letters, other.letters, ()))

    def __invert__(self) -> "Word":
        return Word._raw(inverse_letters(self.letters))

    def __pow__(self, n: int) -> "Word":
        return Word._raw(power_letters(self.letters, n))

    def conjugate_by(self, z: "Word") -> "Word":
        """z * self * z^-1."""
        return Word._raw(splice_reduce(z.letters, self.letters, inverse_letters(z.letters)))

    def inverse(self) -> "Word":
        return ~self

    def is_identity(self) -> bool:
        return not self.letters

    def is_ab(self) -> bool:
        """True when every letter lies in the {a, b} subalphabet (the
        distinguished free subgroup H)."""
        return all(is_ab_letter(x) for x in self.letters)

    def is_cyclically_reduced(self) -> bool:
        return is_cyclically_reduced(self.letters)

    def cyclic_reduce(self) -> tuple["Word", "Word"]:
        """Return (core, conj) with self == conj * core * conj^-1 and core
        cyclically reduced."""
        core, conj = cyclic_reduce_letters(self.letters)
        return Word._raw(core), Word._raw(conj)

    def exponent_vector(self, size: int) -> tuple[int, ...]:
        return exponent_vector(self.letters, size)

    def __repr__(self) -> str:
        return "Word(%r)" % self.format()


def reduce(word: Word | Sequence[int]) -> Word:
    """Freely reduce; accepts a Word or a raw letter sequence."""
    if isinstance(word, Word):
        return word
    return Word(word)


class CyclicWord:
    """A conjugacy-style cyclic word: cyclically reduced, stored as the
    shortlex-least rotation.  Two words give equal CyclicWords iff their
    cyclic reductions are rotations of each other.

    >>> CyclicWord.from_word(Word((3, 1, -3))) == CyclicWord.from_word(Word((1,)))
    True
    """

    __slots__ = ("rep",)

    def __init__(self, letters: Iterable[int]):
        t = reduce_letters(letters)
        core, _ = cyclic_reduce_letters(t)
        object.__setattr__(self, "rep", min_rotation(core))

    @classmethod
    def from_word(cls, w: Word) -> "CyclicWord":
        return cls(w.letters)

    def __setattr__(self, name, value):
        raise AttributeError("CyclicWord is immutable")

    def __len__(self) -> int:
        return len(self.rep)

    def __eq__(self, other) -> bool:
        return isinstance(other, CyclicWord) and self.rep == other.rep

    def __hash__(self) -> int:
        return hash(("cyc", self.rep))

    def __lt__(self, other: "CyclicWord") -> bool:
        return shortlex_key(self.rep) < shortlex_key(other.rep)

    def word(self) -> Word:
        return Word._raw(self.rep)

    def shifts(self) -> list[Word]:
        return [Word._raw(t) for t in rotations(self.rep)]

    def is_ab(self) -> bool:
        return all(is_ab_letter(x) for x in self.rep)

    def __repr__(self) -> str:
        return "CyclicWord(%r)" % format_letters(self.rep)


def cyclic_shifts(word: Word) -> list[Word]:
    """All rotations of the cyclic reduction of word."""
    core, _ = cyclic_reduce_letters(word.letters)
    return [Word._raw(t) for t in rotations(core)]


def free_conjugate(u: Word, v: Word) -> bool:
    """Free-group conjugacy: cyclic reductions are rotations of each other."""
    return CyclicWord(u.letters) == CyclicWord(v.letters)


def periodic_word(period: Word, length: int) -> Word:
    """Prefix of length `length` of the infinite power period^oo.

    The period must be nonempty and cyclically reduced, so the result is
    reduced as written."""
    if len(period) == 0:
        raise InputError("period must be nonempty")
    if not period.is_cyclically_reduced():
        raise InputError("period must be cyclically reduced")
    if length < 0:
        raise InputError("length must be >= 0")
    p = period.letters
    return Word._raw(tuple(p[i % len(p)] for i in range(length)))


class Alphabet:
    """Generator roster {a, b, s_1..s_m}.  m >= 0; total generator count m+2.

    >>> Alphabet(1).letters()
    [1, -1, 2, -2, 3, -3]
    """

    __slots__ = ("m",)

    def __init__(self, m: int):
        if not isinstance(m, int) or m < 0:
            raise InputError("m must be a nonnegative integer, got %r" % (m,))
        object.__setattr__(self, "m", m)

    @property
    def size(self) -> int:
        return self.m + 2

    def __setattr__(self, name, value):
        raise AttributeError("Alphabet is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.m == other.m

    def __hash__(self) -> int:
        return hash(("alphabet", self.m))

    def letters(self) -> list[int]:
        out = []
        for g in range(1, self.size + 1):
            out.extend((g, -g))
        return out

    def ab_letters(self) -> list[int]:
        return [1, -1, 2, -2]

    def contains(self, letter: int) -> bool:
        return letter != 0 and abs(letter) <= self.size

    def validate_word(self, word: Word) -> Word:
        for x in word.letters:
            if not self.contains(x):
                raise InputError(
                    "letter %s outside alphabet with m=%d" % (_letter_token(x), self.m)
                )
        return word

    def parse(self, text: str) -> Word:
        return self.validate_word(Word.parse(text))

    def __repr__(self) -> str:
        return "Alphabet(m=%d)" % self.m


def reduced_words(alphabet: Alphabet, length: int, letters: Sequence[int] | None = None) -> Iterator[tuple[int, ...]]:
    """All freely reduced words of exactly this length, in shortlex order.
    `letters` restricts the subalphabet (default: the whole roster)."""
    roster = sorted(letters if letters is not None else alphabet.letters(), key=letter_key)
    word: list[int] = []

    def rec() -> Iterator[tuple[int, ...]]:
        if len(word) == length:
            yield tuple(word)
            return
        for x in roster:
            if word and word[-1] == -x:
                continue
            word.append(x)
            yield from rec()
            word.pop()

    return rec()


def reduced_words_up_to(alphabet: Alphabet, max_length: int, letters: Sequence[int] | None = None) -> Iterator[tuple[int, ...]]:
    for n in range(max_length + 1):
        yield from reduced_words(alphabet, n, letters)


def cyclically_reduced_words(alphabet: Alphabet, length: int, letters: Sequence[int] | None = None) -> Iterator[tuple[int, ...]]:
    for t in reduced_words(alphabet, length, letters):
        if len(t) < 2 or t[0] != -t[-1]:
            yield t


def free_ball_size(generators: int, radius: int) -> int:
    """Ball size in the free group of the given rank: 1 + 2g * ((2g-1)^n - 1) / (2g-2)."""
    if radius < 0:
        raise InputError("radius must be >= 0")
    if generators == 0:
        return 1
    g2 = 2 * generators
    if g2 == 2:
        return 2 * radius + 1
    return 1 + g2 * ((g2 - 1) ** radius - 1) // (g2 - 2)
