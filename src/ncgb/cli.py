"""Job-file front end.

A job declares a ring, a length bound, an ideal, and options::

    ring Z <x,y> deglex(x>y) bound 3;
    ideal 2*x, 3*y;
    option stats;

Domains are ``Z``, ``Q`` and ``Zmod m``; orderings are ``deglex`` /
``degrevlexR`` / ``wdeglex(w1,...,wn)``, each followed by the ranked
variables ``(x>y>z)``.  Polynomial expressions use ``*``, ``^``,
parentheses, integer literals, and the commutator shorthand ``[a,b]``
for ``a*b - b*a``.

Exit codes: 0 success, 1 input error (syntax, unknown variable, bound
too small), 2 unsupported feature (e.g. a prime-power modulus).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .coeffring import DomainKind, QQ, ZZ, residue_domain
from .engine import buchberger, gb_equivalent, monomial_basis
from .freealg import (
    Alphabet,
    DEG_LEFT_LEX,
    DEG_RIGHT_LEX,
    FreeAlgebra,
    Ordering,
    Polynomial,
    WEIGHTED_DEG_LEFT_LEX,
)
from .modlift import gb_zmod

_ORDER_TOKENS = {
    "deglex": DEG_LEFT_LEX,
    "degrevlexR": DEG_RIGHT_LEX,
    "wdeglex": WEIGHTED_DEG_LEFT_LEX,
}

# the most digits a literal may have (int()'s limit, or CPython's default
# where the limit is off); it also bounds a power and a product
_MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def _coeff_bits(p: Polynomial) -> int:
    """Bits b with sum(|c|) < 2^b over the coefficients c of p, nonzero over
    Z or Q: n integers below 2^k sum to below 2^(k + bit_length(n - 1))."""
    if len(p) == 1:
        return p.terms[0][1].numerator.bit_length()
    return max(c.numerator.bit_length() for _, c in p.terms) + (len(p) - 1).bit_length()


class JobError(Exception):
    """Input error with a source position."""

    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"line {line} col {col}: {msg}")
        self.line = line
        self.col = col


@dataclass
class Job:
    ring: FreeAlgebra
    bound: int
    generators: list[Polynomial]
    options: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

class _Token(NamedTuple):
    kind: str  # "ident" | "nat" | "punct" | "eof"
    value: str
    pos: int  # offset in the text


# \s is str.isspace() and \w is str.isalnum() or "_"; a natural number is
# ASCII digits only, as str.isdigit also accepts digits such as "²" and "٣"
_TOKEN = re.compile(
    r"(?P<space>\s+)|(?P<comment>#[^\n]*)|(?P<nat>[0-9]+)|(?P<ident>\w+)"
    r"|(?P<punct>[;,<>()*^+\-\[\]])|(?P<other>.)",
    re.DOTALL,
)


def _where(text: str, pos: int) -> tuple[int, int]:
    """The line and column, both from 1, of offset ``pos`` in ``text``."""
    start = text.rfind("\n", 0, pos) + 1
    return text.count("\n", 0, start) + 1, pos - start + 1


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    m = None
    for m in _TOKEN.finditer(text):
        kind, value = m.lastgroup, m.group()
        if kind == "space" or kind == "comment":
            continue
        # a word must start with a letter or "_", not a digit such as "²"
        if kind == "other" or (kind == "ident" and not (value[0].isalpha() or value[0] == "_")):
            raise JobError(f"unexpected character {value[0]!r}", *_where(text, m.start()))
        toks.append(_Token(kind, value, m.start()))
    # input that ends inside a comment ends where the comment starts
    end = m.start() if m is not None and m.lastgroup == "comment" else len(text)
    toks.append(_Token("eof", "", end))
    return toks


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0
        # the job's length bound, once its ring declaration is parsed
        self.bound: int | None = None

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def fail(self, msg: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise JobError(msg, *_where(self.text, tok.pos))

    def expect_punct(self, ch: str) -> _Token:
        t = self.peek()
        if t.kind != "punct" or t.value != ch:
            self.fail(f"expected {ch!r}")
        return self.next()

    def expect_ident(self, what: str = "identifier") -> _Token:
        t = self.peek()
        if t.kind != "ident":
            self.fail(f"expected {what}")
        return self.next()

    def expect_nat(self, what: str = "natural number") -> int:
        t = self.peek()
        if t.kind != "nat":
            self.fail(f"expected {what}")
        return self.nat_value(self.next())

    def items(self, item, sep: str = ","):
        """The items of ``item (sep item)*``, each parsed when it is asked
        for, so a check on one item comes before the next is parsed."""
        yield item()
        while self.peek().value == sep:
            self.next()
            yield item()

    def nat_value(self, t: _Token) -> int:
        try:
            return int(t.value)
        except ValueError:  # beyond the interpreter's limit on int() digits
            self.fail(f"number too long ({len(t.value)} digits)", t)

    # -- ring declaration ---------------------------------------------------

    def parse_ring_decl(self):
        t = self.expect_ident("'ring'")
        if t.value != "ring":
            self.fail("job must start with a ring declaration", t)
        dom_tok = self.expect_ident("domain (Z, Q or Zmod)")
        if dom_tok.value == "Z":
            domain = ZZ
        elif dom_tok.value == "Q":
            domain = QQ
        elif dom_tok.value == "Zmod":
            mod_tok = self.peek()
            modulus = self.expect_nat("modulus")
            if modulus < 2:
                self.fail("modulus must be at least 2", mod_tok)
            try:
                domain = residue_domain(modulus)
            except ValueError as exc:  # too large for exact primality
                self.fail(str(exc), mod_tok)
        else:
            self.fail("domain must be Z, Q or Zmod", dom_tok)
        self.expect_punct("<")
        names: list[str] = []
        for tok in self.items(functools.partial(self.expect_ident, "variable name")):
            if len(names) == 255:  # a letter is one byte of a word
                self.fail("at most 255 variables supported", tok)
            names.append(tok.value)
        self.expect_punct(">")
        if len(set(names)) != len(names):
            self.fail("duplicate variable name")

        ord_tok = self.expect_ident("ordering")
        if ord_tok.value not in _ORDER_TOKENS:
            self.fail("ordering must be deglex, degrevlexR or wdeglex", ord_tok)
        kind = _ORDER_TOKENS[ord_tok.value]
        weights: list[int] = []
        if kind == WEIGHTED_DEG_LEFT_LEX:
            self.expect_punct("(")
            weights = list(self.items(functools.partial(self.expect_nat, "weight")))
            self.expect_punct(")")
            if len(weights) != len(names):
                self.fail("one weight per variable required", ord_tok)
        self.expect_punct("(")
        ranked = list(self.items(functools.partial(self.expect_ident, "variable name"), ">"))
        self.expect_punct(")")
        ranked_names = [t.value for t in ranked]
        if sorted(ranked_names) != sorted(names):
            self.fail("ordering must rank each declared variable exactly once", ranked[0])

        bound_tok = self.peek()
        if bound_tok.kind != "ident" or bound_tok.value != "bound":
            self.fail("bound missing", bound_tok)
        self.next()
        nat_tok = self.peek()
        bound = self.expect_nat("bound")
        if bound < 1:
            self.fail("bound must be at least 1", nat_tok)
        self.expect_punct(";")

        # weights are given in ranked order; the alphabet stores them in
        # declaration order
        if weights:
            per_name = dict(zip(ranked_names, weights))
            alphabet = Alphabet(tuple(names), tuple(per_name[nm] for nm in names))
        else:
            alphabet = Alphabet(tuple(names))
        ranking = tuple(names.index(nm) for nm in ranked_names)
        ring = FreeAlgebra(domain, alphabet, Ordering(kind, ranking))
        return ring, bound

    # -- polynomial expressions ----------------------------------------------

    def parse_polys(self, ring: FreeAlgebra) -> list[Polynomial]:
        """Comma-separated polynomial expressions.  Nesting deeper than the
        interpreter's recursion limit is reported at the list's start."""
        start = self.peek()
        try:
            return list(self.items(functools.partial(self.parse_polyexpr, ring)))
        except RecursionError:
            raise JobError("expression nested too deeply", *_where(self.text, start.pos)) from None

    def parse_polyexpr(self, ring: FreeAlgebra) -> Polynomial:
        acc = self.parse_signed_term(ring)
        while self.peek().kind == "punct" and self.peek().value in "+-":
            op = self.next().value
            t = self.parse_term(ring)
            acc = ring.add(acc, ring.negate(t) if op == "-" else t)
        return acc

    def parse_signed_term(self, ring: FreeAlgebra) -> Polynomial:
        neg = False
        while self.peek().kind == "punct" and self.peek().value in "+-":
            if self.next().value == "-":
                neg = not neg
        t = self.parse_term(ring)
        return ring.negate(t) if neg else t

    def check_length(self, length: int, what: str, tok: _Token) -> None:
        if self.bound is not None and length > self.bound:
            self.fail(f"bound too small for a {what} of length {length}", tok)

    def parse_term(self, ring: FreeAlgebra) -> Polynomial:
        # over Z, Q and Z/p the longest words of a product of nonzero
        # factors are the products of theirs, so a product past the bound
        # is rejected before it is built; over Z/m zero divisors can
        # cancel them ((2*x)*(3*x) is 0 mod 6), so there it is checked
        # once built
        integral = ring.domain.kind != DomainKind.RESIDUE or ring.domain.is_field
        acc = self.parse_factor(ring)
        while self.peek().kind == "punct" and self.peek().value == "*":
            self.next()
            tok = self.peek()
            factor = self.parse_factor(ring)
            if integral and acc and factor:
                self.check_length(acc.max_word_length() + factor.max_word_length(), "product", tok)
            # a product's coefficients are at most its factors' |coefficient| sums multiplied
            if ring.domain.modulus is None and acc and factor:
                if (_coeff_bits(acc) + _coeff_bits(factor)) * math.log10(2) >= _MAX_DIGITS:
                    self.fail(f"number too long (a product of over {_MAX_DIGITS} digits)", tok)
            acc = ring.multiply(acc, factor)
            if not integral:
                self.check_length(acc.max_word_length(), "product", tok)
        return acc

    def parse_factor(self, ring: FreeAlgebra) -> Polynomial:
        base = self.parse_atom(ring)
        if self.peek().kind == "punct" and self.peek().value == "^":
            self.next()
            t = self.peek()
            if t.kind == "punct" and t.value == "-":
                self.fail("negative exponent")
            e = self.expect_nat("exponent")
            # the longest words of a nonzero power never cancel over Z, Q
            # and squarefree Z/m, so a power past the bound is rejected
            # before it is built
            self.check_length(e * base.max_word_length(), "power", t)
            # over Z or Q a power's coefficients are at most S^e, S the sum
            # of the base's |coefficient|; over Z/m they are reduced
            if ring.domain.modulus is None:
                s = sum(abs(c.numerator) for _, c in base.terms)
                if s > 1 and e >= _MAX_DIGITS / math.log10(s):
                    self.fail(f"number too long (a power of over {_MAX_DIGITS} digits)", t)
            # binary exponentiation; powers of one polynomial commute
            out = ring.one
            while e:
                if e & 1:
                    out = ring.multiply(out, base)
                e >>= 1
                if e:
                    base = ring.multiply(base, base)
            return out
        return base

    def parse_atom(self, ring: FreeAlgebra) -> Polynomial:
        t = self.peek()
        if t.kind == "nat":
            self.next()
            return ring.constant(self.nat_value(t))
        if t.kind == "ident":
            self.next()
            try:
                return ring.gen(t.value)
            except (KeyError, ValueError):
                self.fail(f"unknown variable {t.value!r}", t)
        if t.kind == "punct" and t.value == "(":
            self.next()
            inner = self.parse_polyexpr(ring)
            self.expect_punct(")")
            return inner
        if t.kind == "punct" and t.value == "[":
            self.next()
            a = self.parse_polyexpr(ring)
            self.expect_punct(",")
            b = self.parse_polyexpr(ring)
            self.expect_punct("]")
            out = ring.add(ring.multiply(a, b), ring.negate(ring.multiply(b, a)))
            # a*b and b*a can cancel, so the commutator is checked once built
            self.check_length(out.max_word_length(), "commutator", t)
            return out
        self.fail("expected a polynomial")


# option name -> (options key, value)
_OPTION_NAMES = {
    "reduce": ("reduce", True),
    "noreduce": ("reduce", False),
    "tailreduce": ("tail_reduce", True),
    "notailreduce": ("tail_reduce", False),
    "stats": ("stats", True),
}


def parse_job(text: str) -> Job:
    """Parse a complete job file.  Raises :class:`JobError` on bad input."""
    p = _Parser(text)
    ring, bound = p.parse_ring_decl()
    p.bound = bound
    gens: list[Polynomial] = []
    options = {"reduce": True, "tail_reduce": True, "stats": False}
    while p.peek().kind != "eof":
        stmt = p.expect_ident("'ideal' or 'option'")
        if stmt.value == "ideal":
            gens.extend(p.parse_polys(ring))
        elif stmt.value == "option":
            opt = p.expect_ident("option name")
            if opt.value not in _OPTION_NAMES:
                p.fail(f"unknown option {opt.value!r}", opt)
            key, value = _OPTION_NAMES[opt.value]
            options[key] = value
        else:
            p.fail("expected 'ideal' or 'option'", stmt)
        p.expect_punct(";")
    return Job(ring, bound, gens, options)


def parse_poly_list(text: str, ring: FreeAlgebra, bound: int | None = None) -> list[Polynomial]:
    """Comma-separated polynomial expressions (used by ``--equiv`` files);
    a trailing semicolon is allowed.  With a ``bound``, powers, products
    and commutators are length-checked as in a job."""
    p = _Parser(text)
    p.bound = bound
    out = p.parse_polys(ring)
    if p.peek().value == ";":
        p.next()
    if p.peek().kind != "eof":
        p.fail("unexpected trailing input")
    return out


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _integral_form(ring: FreeAlgebra, p: Polynomial) -> Polynomial:
    """Over Q, rescale to coprime integer coefficients with a positive
    leading one (the conventional way to print rational bases)."""
    if ring.domain.kind != DomainKind.RATIONALS or p.is_zero:
        return p
    lcm_den = 1
    for _, c in p.terms:
        lcm_den = lcm_den // math.gcd(lcm_den, c.denominator) * c.denominator
    content = 0
    for _, c in p.terms:
        content = math.gcd(content, abs(int(c * lcm_den)))
    return ring.scale(Fraction(lcm_den, content), p)


def render_basis(ring: FreeAlgebra, basis: list[Polynomial]) -> list[str]:
    return [ring.render(_integral_form(ring, p)) for p in basis]


def _fail(msg, code: int = 1) -> int:
    """Report an error on stderr; returns the exit code."""
    print(f"error: {msg}", file=sys.stderr)
    return code


def run(job: Job, *, monomials: int | None = None, equiv_text: str | None = None,
        output: str = "text") -> int:
    """Execute a parsed job and print its result document, as one JSON
    object or as text lines.  Returns the exit code."""
    ring = job.ring
    opts = job.options
    complete = gb_zmod if ring.domain.kind == DomainKind.RESIDUE else buchberger
    if monomials is not None and not 0 <= monomials <= job.bound:
        return _fail(f"--monomials must lie in 0..{job.bound}, the bound")
    if equiv_text is not None:
        # before the completion, so that a malformed target costs no run
        try:
            target = parse_poly_list(equiv_text, ring, job.bound)
        except JobError as exc:
            return _fail(exc)
    try:
        result = complete(
            ring, job.generators, job.bound,
            reduce=opts["reduce"], tail_reduce=opts["tail_reduce"],
        )
    except ValueError as exc:
        return _fail(exc, 2 if "unsupported" in str(exc) else 1)

    doc: dict = {
        "basis": render_basis(ring, result.basis),
        "flag": result.complete_flag,
        "stats": result.stats.as_dict(),
    }
    if monomials is not None:
        words = monomial_basis(result.basis, monomials, ring=ring)
        doc["monomials"] = [ring.render_word(w) for w in words]
    if equiv_text is not None:
        doc["equivalent"] = gb_equivalent(result.basis, target, job.bound)
    if output == "json":
        print(json.dumps(doc))
        return 0

    lines = [*doc["basis"], f"flag: {doc['flag']}"]
    if "monomials" in doc:
        lines.append("monomials: " + " ".join(doc["monomials"]))
    if "equivalent" in doc:
        lines.append(f"equivalent: {json.dumps(doc['equivalent'])}")
    if opts["stats"]:
        lines += [f"{key}={val}" for key, val in doc["stats"].items()]
    print("\n".join(lines))
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once: parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="ncgb",
        description="bounded strong Groebner bases for free algebras over Z, Q, Z/m",
    )
    ap.add_argument("jobfile", help="job file ('-' for stdin)")
    ap.add_argument("--stats", action="store_const", const=True, default=None,
                    help="print the counter block")
    ap.add_argument("--reduce", action="store_const", const=True, default=None,
                    help="force final minimisation on (overrides job options)")
    ap.add_argument("--tail-reduce", action="store_const", const=True, default=None,
                    dest="tail_reduce",
                    help="force tail reduction on (overrides job options)")
    ap.add_argument("--monomials", type=int, metavar="N", default=None,
                    help="also print the words up to length N that contain no leading "
                         "word of the basis (0..bound)")
    ap.add_argument("--equiv", metavar="FILE", default=None,
                    help="compare against the comma-separated polynomials in FILE")
    ap.add_argument("--output", choices=("text", "json"), default="text")
    return ap


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # only the job file reads '-' as stdin
        job = parse_job(sys.stdin.read() if args.jobfile == "-" else _read(args.jobfile))
        equiv_text = None if args.equiv is None else _read(args.equiv)
    except (OSError, UnicodeDecodeError, JobError) as exc:
        return _fail(exc)
    # flags override the job's options
    for key in ("reduce", "tail_reduce", "stats"):
        if getattr(args, key) is not None:
            job.options[key] = getattr(args, key)
    return run(job, monomials=args.monomials, equiv_text=equiv_text, output=args.output)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
