"""Words and polynomials in a free associative algebra.

A word over an alphabet of up to 255 letters is stored as ``bytes`` of
letter indices, so concatenation, subword search and lexicographic
comparison all run at C speed.  Polynomials are kept canonical: a tuple of ``(word, coeff)``
terms, strictly descending in the algebra's monomial ordering, with no
zero coefficients; the zero polynomial is the empty tuple.

Three admissible orderings are provided, all refining total degree:

``deg_left_lex``
    length first, then letter-by-letter from the left, larger letters
    (per the declared ranking) winning.

``deg_right_lex``
    length first, then letter-by-letter from the *right*: at the first
    differing position scanning right-to-left, the larger letter wins.

``weighted_deg_left_lex``
    a non-negative weight per letter; weighted degree first, then total
    length, then left-lex.  Weight-zero letters give an elimination-style
    block at the bottom of the order.  Reduction can then replace a word by
    a longer one of no greater weight: a length bound no longer bounds a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .coeffring import Coefficient, Domain, DomainKind

Word = bytes

DEG_LEFT_LEX = "deg_left_lex"
DEG_RIGHT_LEX = "deg_right_lex"
WEIGHTED_DEG_LEFT_LEX = "weighted_deg_left_lex"

_ORDER_KINDS = (DEG_LEFT_LEX, DEG_RIGHT_LEX, WEIGHTED_DEG_LEFT_LEX)


@dataclass(frozen=True, slots=True)
class Alphabet:
    """Variable names plus an optional weight per variable (default 1)."""

    names: tuple[str, ...]
    weights: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if not self.names:
            raise ValueError("alphabet must have at least one letter")
        if len(self.names) > 255:
            raise ValueError("at most 255 letters supported")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        if not self.weights:
            object.__setattr__(self, "weights", (1,) * len(self.names))
        if len(self.weights) != len(self.names):
            raise ValueError("one weight per variable required")
        if any(w < 0 for w in self.weights):
            raise ValueError("weights must be non-negative")

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        return self.names.index(name)


@dataclass(frozen=True, slots=True)
class Ordering:
    """An ordering kind plus a ranking of the letters.

    ``ranking`` lists letter indices from largest to smallest; it must be
    a permutation of the alphabet.
    """

    kind: str
    ranking: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.kind not in _ORDER_KINDS:
            raise ValueError(f"unknown ordering kind {self.kind!r}")


class Polynomial:
    """An element of a free algebra, canonical descending term list."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: "FreeAlgebra", terms: tuple[tuple[Word, Coefficient], ...]):
        self.ring = ring
        self.terms = terms

    # canonicality is the constructor caller's job (FreeAlgebra.poly checks)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.terms == other.terms
            and self.ring == other.ring
        )

    def __hash__(self) -> int:
        return hash(self.terms)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self.ring.add(self, other)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self.ring.add(self, self.ring.negate(other))

    def __neg__(self) -> "Polynomial":
        return self.ring.negate(self)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        return self.ring.multiply(self, other)

    def __repr__(self) -> str:
        return f"<{self.ring.render(self)}>"

    def leading_word(self) -> Word:
        if not self.terms:
            raise ValueError("zero polynomial")
        return self.terms[0][0]

    def leading_coeff(self) -> Coefficient:
        if not self.terms:
            raise ValueError("zero polynomial")
        return self.terms[0][1]

    def max_word_length(self) -> int:
        return max((len(w) for w, _ in self.terms), default=0)


class FreeAlgebra:
    """A free associative algebra: coefficient domain, alphabet, ordering.

    All polynomial construction and arithmetic goes through this class so
    canonical form is maintained in one place.
    """

    def __init__(self, domain: Domain, alphabet: Alphabet, ordering: Ordering):
        n = len(alphabet)
        if sorted(ordering.ranking) != list(range(n)):
            raise ValueError("ordering ranking must be a permutation of the letters")
        self.domain = domain
        self.alphabet = alphabet
        self.ordering = ordering

        # letter -> inverted rank, so that byte-wise lexicographic order of
        # the translated word agrees with the variable ranking; the anti
        # table produces the reversed order, for min-heaps of words
        table = bytearray(256)
        anti = bytearray(256)
        for pos, letter in enumerate(ordering.ranking):
            table[letter] = n - 1 - pos
            anti[letter] = pos
        self._table = bytes(table)
        self._anti_table = bytes(anti)
        self._weights = alphabet.weights

        if ordering.kind == DEG_LEFT_LEX:
            self.word_key = self._key_left
            self.word_antikey = self._antikey_left
        elif ordering.kind == DEG_RIGHT_LEX:
            self.word_key = self._key_right
            self.word_antikey = self._antikey_right
        else:
            self.word_key = self._key_weighted
            self.word_antikey = self._antikey_weighted

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FreeAlgebra)
            and self.domain == other.domain
            and self.alphabet == other.alphabet
            and self.ordering == other.ordering
        )

    def __hash__(self) -> int:
        return hash((self.domain, self.alphabet, self.ordering))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FreeAlgebra({self.domain!r}, <{','.join(self.alphabet.names)}>, "
            f"{self.ordering.kind})"
        )

    # -- ordering ------------------------------------------------------------

    def _key_left(self, w: Word):
        return len(w), w.translate(self._table)

    def _key_right(self, w: Word):
        return len(w), w[::-1].translate(self._table)

    def _key_weighted(self, w: Word):
        wt = self._weights
        return sum(map(wt.__getitem__, w)), len(w), w.translate(self._table)

    # anti keys: compare as the exact reverse of word_key, so a min-heap
    # keyed by them pops the largest word first

    def _antikey_left(self, w: Word):
        return -len(w), w.translate(self._anti_table)

    def _antikey_right(self, w: Word):
        return -len(w), w[::-1].translate(self._anti_table)

    def _antikey_weighted(self, w: Word):
        wt = self._weights
        return -sum(map(wt.__getitem__, w)), -len(w), w.translate(self._anti_table)

    def compare_words(self, u: Word, v: Word) -> int:
        """-1, 0 or 1 as u is below, equal to or above v."""
        ku, kv = self.word_key(u), self.word_key(v)
        return (ku > kv) - (ku < kv)

    # -- word construction -----------------------------------------------------

    def parse_word(self, text: str) -> Word:
        """Convenience for tests: variable names separated by ``*``,
        with optional ``^`` powers, or ``1`` for the empty word."""
        text = text.strip()
        if text in ("", "1"):
            return b""
        out = bytearray()
        for factor in text.split("*"):
            name, _, exp = factor.strip().partition("^")
            out.extend(bytes([self.alphabet.index(name)]) * (int(exp) if exp else 1))
        return bytes(out)

    # -- polynomial construction -------------------------------------------------

    @property
    def zero(self) -> Polynomial:
        return Polynomial(self, ())

    @property
    def one(self) -> Polynomial:
        return Polynomial(self, ((b"", self.domain.one),))

    def constant(self, c) -> Polynomial:
        c = self.domain.coerce(c)
        return Polynomial(self, ((b"", c),) if c else ())

    def gen(self, i: int | str) -> Polynomial:
        if isinstance(i, str):
            i = self.alphabet.index(i)
        return Polynomial(self, ((bytes([i]), self.domain.one),))

    def monomial(self, c, w: Word) -> Polynomial:
        c = self.domain.coerce(c)
        return Polynomial(self, ((w, c),) if c else ())

    def poly(self, pairs: Iterable[tuple[Word, Coefficient]]) -> Polynomial:
        """Canonicalise an arbitrary (word, coeff) collection."""
        acc: dict[Word, Coefficient] = {}
        dom = self.domain
        for w, c in pairs:
            c = dom.coerce(c)
            if w in acc:
                c = dom.add(acc[w], c)
            acc[w] = c
        key = self.word_key
        terms = tuple(
            (w, acc[w])
            for w in sorted((w for w, c in acc.items() if c != 0), key=key, reverse=True)
        )
        return Polynomial(self, terms)

    def from_terms(self, terms) -> Polynomial:
        """Wrap a term tuple already known to be canonical."""
        return Polynomial(self, tuple(terms))

    # -- arithmetic --------------------------------------------------------------

    def add(self, f: Polynomial, g: Polynomial) -> Polynomial:
        return Polynomial(self, self.merge_terms(f.terms, g.terms))

    def negate(self, f: Polynomial) -> Polynomial:
        neg = self.domain.neg
        return Polynomial(self, tuple((w, neg(c)) for w, c in f.terms))

    def scale(self, c, f: Polynomial) -> Polynomial:
        """``c * f`` for a coefficient ``c``."""
        return self.scaled_translate(c, b"", b"", f)

    def scaled_translate(self, c, l: Word, r: Word, f: Polynomial) -> Polynomial:
        """``c * l * f * r`` in one pass."""
        c = self.domain.coerce(c)
        if c == 0:
            return self.zero
        mul = self.domain.mul
        terms = tuple((l + w + r, mul(c, cf)) for w, cf in f.terms)
        if self.domain.kind == DomainKind.RESIDUE:
            terms = tuple((w, cc) for w, cc in terms if cc != 0)
        return Polynomial(self, terms)

    def multiply(self, f: Polynomial, g: Polynomial) -> Polynomial:
        return self.poly(
            (wf + wg, cf * cg) for wf, cf in f.terms for wg, cg in g.terms
        )

    def merge_terms(self, a, b):
        """Merge two canonical term sequences (sum), returning a tuple."""
        key = self.word_key
        add = self.domain.add
        out: list[tuple[Word, Coefficient]] = []
        i = j = 0
        la, lb = len(a), len(b)
        while i < la and j < lb:
            wa, ca = a[i]
            wb, cb = b[j]
            if wa == wb:
                c = add(ca, cb)
                if c != 0:
                    out.append((wa, c))
                i += 1
                j += 1
            elif key(wa) > key(wb):
                out.append(a[i])
                i += 1
            else:
                out.append(b[j])
                j += 1
        out.extend(a[i:])
        out.extend(b[j:])
        return tuple(out)

    def normalize_leading(self, f: Polynomial) -> Polynomial:
        """Scale by a unit so the leading coefficient is canonical
        (positive over Z, 1 over a field)."""
        if f.is_zero:
            return f
        u = self.domain.normalizing_unit(f.leading_coeff())
        return f if u == 1 else self.scale(u, f)

    # -- rendering -----------------------------------------------------------------

    def render_word(self, w: Word) -> str:
        if not w:
            return "1"
        names = self.alphabet.names
        parts: list[str] = []
        i = 0
        while i < len(w):
            j = i
            while j < len(w) and w[j] == w[i]:
                j += 1
            parts.append(names[w[i]] if j - i == 1 else f"{names[w[i]]}^{j - i}")
            i = j
        return "*".join(parts)

    def render(self, f: Polynomial) -> str:
        if f.is_zero:
            return "0"
        chunks: list[str] = []
        for w, c in f.terms:
            neg = c < 0
            mag = -c if neg else c
            if w and mag == 1:
                body = self.render_word(w)
            elif w:
                body = f"{self.domain.render(mag)}*{self.render_word(w)}"
            else:
                body = self.domain.render(mag)
            if not chunks:
                chunks.append(f"-{body}" if neg else body)
            else:
                chunks.append(f" - {body}" if neg else f" + {body}")
        return "".join(chunks)
