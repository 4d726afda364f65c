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
from .records import Frozen, Record

# generator indices have at most this many digits, counted before int() so
# that it never meets a huge literal; no alphabet a run can enumerate nears 10^18
MAX_INDEX_DIGITS = 18
# the largest m an Alphabet takes.  `encode_letters` writes a letter as the
# code point letter_key(letter), at most letter_key(S_m) = 2m + 3, and chr()
# stops at 0x10FFFF = 1,114,111, so m must be at most 557,054; this bound
# leaves a margin.  A radius-2 ball at m = 5*10^5 has about 10^12 elements,
# far past any run, while the (m + 2)-integer exponent vectors of a relator
# system stay megabytes
MAX_ALPHABET_M = 500_000


def letter_key(letter: int) -> int:
    """Total order on letters: a=0, A=1, b=2, B=3, s1=4, S1=5, ...

    >>> [letter_key(x) for x in (1, -1, 2, -2, 3, -3)]
    [0, 1, 2, 3, 4, 5]
    """
    if letter > 0:
        return 2 * letter - 2
    return -2 * letter - 1


class _Table(dict):
    """key -> fn(key), filled on first use, so that hot loops map whole
    words through the C-level `dict.__getitem__`."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _letter_char(letter: int) -> str:
    code = letter_key(letter)
    if code > 0x10FFFF:
        raise InputError("letter %d has no one-character encoding" % letter)
    return chr(code)


def _char_letter(char: str) -> int:
    code = ord(char)
    return -(code // 2 + 1) if code & 1 else code // 2 + 1


_letter_key_of = _Table(letter_key).__getitem__
_letter_char_of = _Table(_letter_char).__getitem__
_char_letter_of = _Table(_char_letter).__getitem__


def encode_letters(t: Sequence[int]) -> str:
    """The word as a string of one code point per letter, that code point
    being the letter's `letter_key`.  Two encodings of one length compare
    like the letter order, so (len(s), s) orders words as `shortlex_key`
    does, and the inverse of a letter's code c is c ^ 1.  Encodings are an
    in-memory form only: codes from 0xD800 are surrogates, which no text
    codec writes.

    >>> encode_letters((1, -1, 2, -2, 3))
    '\\x00\\x01\\x02\\x03\\x04'
    """
    return "".join(map(_letter_char_of, t))


def decode_letters(s: str) -> tuple[int, ...]:
    """The letters of an `encode_letters` string.

    >>> decode_letters(encode_letters((3, -1, 2)))
    (3, -1, 2)
    """
    return tuple(map(_char_letter_of, s))


# code -> the code of the inverse letter, for `str.translate`
_INVERSE_CODES = _Table(lambda c: c ^ 1)


def inverse_encoded(s: str) -> str:
    """The encoding of the inverse word: the codes reversed, each c mapped
    to c ^ 1.

    >>> decode_letters(inverse_encoded(encode_letters((3, -1, 2))))
    (-2, 1, -3)
    """
    return s[::-1].translate(_INVERSE_CODES)


# the letters of the subgroup H = <a, b>, in letter_key order
AB_LETTERS = (1, -1, 2, -2)
# an encoded word is over {a, b} when this set holds all its letters
AB_CODES = frozenset(encode_letters(AB_LETTERS))


def is_ab_letter(letter: int) -> bool:
    return letter in AB_LETTERS


_AB_SET = frozenset(AB_LETTERS)


def is_ab_word(letters: Iterable[int]) -> bool:
    """Whether every letter is a, b or an inverse; the empty word is."""
    return _AB_SET.issuperset(letters)


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
    under the letter order), found by `min_rotation_encoded`.

    >>> min_rotation((3, 1, 3, 1))
    (1, 3, 1, 3)
    >>> min_rotation((2, 1, 3, 1))
    (1, 2, 1, 3)
    """
    return decode_letters(min_rotation_encoded(encode_letters(t)))


def min_rotation_encoded(s: str) -> str:
    """The least rotation of an `encode_letters` string.  Only rotations
    starting at a least letter can win; they are compared as slices of the
    doubled string."""
    n = len(s)
    if n <= 1:
        return s
    least, doubled, best = min(s), s + s, s
    i = s.find(least)
    while i != -1:
        cand = doubled[i : i + n]
        if cand < best:
            best = cand
        i = s.find(least, i + 1)
    return best


def cyclic_rep(t: Sequence[int]) -> tuple[int, ...]:
    """Least rotation of the cyclic core of t (freely reduced first): two
    words are conjugate in the free group exactly when their reps are equal.

    >>> cyclic_rep((3, 2, 1, -3))
    (1, 2)
    """
    return min_rotation(cyclic_reduce_letters(t)[0])


def shortlex_key(t: Sequence[int]) -> tuple:
    return (len(t), tuple(map(_letter_key_of, t)))


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
    if len(tok) >= 2 and tok[0] in "sS" and tok[1:].isdecimal():
        if len(tok) - 1 > MAX_INDEX_DIGITS:
            raise InputError("generator index in %r... has more than %d digits"
                             % (tok[:MAX_INDEX_DIGITS], MAX_INDEX_DIGITS))
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
            while j < len(text) and text[j].isdecimal():
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


class Word(Frozen):
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

    def is_identity(self) -> bool:
        return not self.letters

    def is_cyclically_reduced(self) -> bool:
        return is_cyclically_reduced(self.letters)

    def __repr__(self) -> str:
        return "Word(%r)" % self.format()


class CyclicWord(Record):
    """A conjugacy-style cyclic word: cyclically reduced, stored as the
    shortlex-least rotation.  Two words give equal CyclicWords iff their
    cyclic reductions are rotations of each other.

    >>> CyclicWord.from_word(Word((3, 1, -3))) == CyclicWord.from_word(Word((1,)))
    True
    """

    rep: tuple[int, ...]

    def __post_init__(self):
        self.__dict__["rep"] = cyclic_rep(self.rep)

    @classmethod
    def from_word(cls, w: Word) -> "CyclicWord":
        return cls(w.letters)

    def __len__(self) -> int:
        return len(self.rep)

    def __lt__(self, other: "CyclicWord") -> bool:
        return shortlex_key(self.rep) < shortlex_key(other.rep)

    def word(self) -> Word:
        return Word._raw(self.rep)

    def __repr__(self) -> str:
        return "CyclicWord(%r)" % format_letters(self.rep)


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


class Alphabet(Record):
    """Generator roster {a, b, s_1..s_m}.  m >= 0; total generator count m+2.

    >>> Alphabet(1).letters()
    [1, -1, 2, -2, 3, -3]
    """

    m: int

    def __post_init__(self):
        m = self.m
        if not isinstance(m, int) or isinstance(m, bool) or m < 0:
            raise InputError("m must be a nonnegative integer, got %r" % (m,))
        if m > MAX_ALPHABET_M:
            raise InputError("m exceeds MAX_ALPHABET_M = %d" % MAX_ALPHABET_M)

    @property
    def size(self) -> int:
        return self.m + 2

    def letters(self) -> list[int]:
        out = []
        for g in range(1, self.size + 1):
            out.extend((g, -g))
        return out

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
