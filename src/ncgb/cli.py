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
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

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

_PUNCT = ";,<>()*^+-[]"


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

@dataclass(frozen=True)
class _Token:
    kind: str  # "ident" | "nat" | "punct" | "eof"
    value: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            col += 1
            i += 1
            continue
        if c == "#":  # comment to end of line
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Token("nat", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if c in _PUNCT:
            toks.append(_Token("punct", c, line, col))
            col += 1
            i += 1
            continue
        raise JobError(f"unexpected character {c!r}", line, col)
    toks.append(_Token("eof", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, toks: list[_Token]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def fail(self, msg: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise JobError(msg, tok.line, tok.col)

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
        return int(self.next().value)

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
        names = [self.expect_ident("variable name").value]
        while self.peek().value == ",":
            self.next()
            names.append(self.expect_ident("variable name").value)
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
            weights.append(self.expect_nat("weight"))
            while self.peek().value == ",":
                self.next()
                weights.append(self.expect_nat("weight"))
            self.expect_punct(")")
            if len(weights) != len(names):
                self.fail("one weight per variable required", ord_tok)
        self.expect_punct("(")
        ranked = [self.expect_ident("variable name")]
        while self.peek().value == ">":
            self.next()
            ranked.append(self.expect_ident("variable name"))
        self.expect_punct(")")
        ranked_names = [t.value for t in ranked]
        if sorted(ranked_names) != sorted(names):
            self.fail("ordering must rank each declared variable exactly once", ranked[0])

        bound_tok = self.peek()
        if bound_tok.kind != "ident" or bound_tok.value != "bound":
            self.fail("bound missing", bound_tok)
        self.next()
        bound = self.expect_nat("bound")
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
            out = [self.parse_polyexpr(ring)]
            while self.peek().value == ",":
                self.next()
                out.append(self.parse_polyexpr(ring))
        except RecursionError:
            raise JobError("expression nested too deeply", start.line, start.col) from None
        return out

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

    def parse_term(self, ring: FreeAlgebra) -> Polynomial:
        acc = self.parse_factor(ring)
        while self.peek().kind == "punct" and self.peek().value == "*":
            self.next()
            acc = ring.multiply(acc, self.parse_factor(ring))
        return acc

    def parse_factor(self, ring: FreeAlgebra) -> Polynomial:
        base = self.parse_atom(ring)
        if self.peek().kind == "punct" and self.peek().value == "^":
            self.next()
            t = self.peek()
            if t.kind == "punct" and t.value == "-":
                self.fail("negative exponent")
            e = self.expect_nat("exponent")
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
            return ring.constant(int(t.value))
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
            return ring.add(ring.multiply(a, b), ring.negate(ring.multiply(b, a)))
        self.fail("expected a polynomial")


_OPTION_NAMES = {"reduce", "noreduce", "tailreduce", "notailreduce", "stats"}


def parse_job(text: str) -> Job:
    """Parse a complete job file.  Raises :class:`JobError` on bad input."""
    p = _Parser(_tokenize(text))
    ring, bound = p.parse_ring_decl()
    if bound < 1:
        p.fail("bound must be at least 1")
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
            if opt.value == "reduce":
                options["reduce"] = True
            elif opt.value == "noreduce":
                options["reduce"] = False
            elif opt.value == "tailreduce":
                options["tail_reduce"] = True
            elif opt.value == "notailreduce":
                options["tail_reduce"] = False
            else:
                options["stats"] = True
        else:
            p.fail("expected 'ideal' or 'option'", stmt)
        p.expect_punct(";")
    return Job(ring, bound, gens, options)


def parse_poly_list(text: str, ring: FreeAlgebra) -> list[Polynomial]:
    """Comma-separated polynomial expressions (used by ``--equiv`` files);
    a trailing semicolon is allowed."""
    p = _Parser(_tokenize(text))
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


def run(job: Job, *, monomials: int | None = None, equiv_text: str | None = None,
        want_stats: bool = False, output: str = "text", out=None) -> int:
    """Execute a parsed job and print the result.  Returns the exit code."""
    out = out or sys.stdout
    ring = job.ring
    opts = job.options
    try:
        if ring.domain.kind == DomainKind.RESIDUE:
            result = gb_zmod(
                ring, job.generators, job.bound,
                reduce=opts["reduce"], tail_reduce=opts["tail_reduce"],
            )
        else:
            result = buchberger(
                ring, job.generators, job.bound,
                reduce=opts["reduce"], tail_reduce=opts["tail_reduce"],
            )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if "unsupported" in str(exc) else 1

    lines = render_basis(ring, result.basis)
    mono_words = None
    if monomials is not None:
        mono_words = [
            ring.render_word(w)
            for w in monomial_basis(result.basis, monomials, ring=ring)
        ]
    verdict = None
    if equiv_text is not None:
        try:
            target = parse_poly_list(equiv_text, ring)
        except JobError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        verdict = gb_equivalent(result.basis, target, job.bound)

    show_stats = want_stats or opts["stats"]
    if output == "json":
        doc: dict = {
            "basis": lines,
            "flag": result.complete_flag,
            "stats": result.stats.as_dict(),
        }
        if mono_words is not None:
            doc["monomials"] = mono_words
        if verdict is not None:
            doc["equivalent"] = verdict
        print(json.dumps(doc), file=out)
        return 0

    for line in lines:
        print(line, file=out)
    print(f"flag: {result.complete_flag}", file=out)
    if mono_words is not None:
        print("monomials: " + " ".join(mono_words), file=out)
    if verdict is not None:
        print(f"equivalent: {'true' if verdict else 'false'}", file=out)
    if show_stats:
        for key, val in result.stats.as_dict().items():
            print(f"{key}={val}", file=out)
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="ncgb",
        description="bounded strong Groebner bases for free algebras over Z, Q, Z/m",
    )
    ap.add_argument("jobfile", help="job file ('-' for stdin)")
    ap.add_argument("--stats", action="store_true", help="print the counter block")
    ap.add_argument("--reduce", action="store_const", const=True, default=None,
                    help="force final minimisation on (overrides job options)")
    ap.add_argument("--tail-reduce", action="store_const", const=True, default=None,
                    dest="tail_reduce",
                    help="force tail reduction on (overrides job options)")
    ap.add_argument("--monomials", type=int, metavar="N", default=None,
                    help="also print the normal words up to length N")
    ap.add_argument("--equiv", metavar="FILE", default=None,
                    help="compare against the comma-separated polynomials in FILE")
    ap.add_argument("--output", choices=("text", "json"), default="text")
    args = ap.parse_args(argv)

    try:
        if args.jobfile == "-":
            text = sys.stdin.read()
        else:
            with open(args.jobfile, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        job = parse_job(text)
    except JobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.reduce is not None:
        job.options["reduce"] = args.reduce
    if args.tail_reduce is not None:
        job.options["tail_reduce"] = args.tail_reduce

    equiv_text = None
    if args.equiv is not None:
        try:
            with open(args.equiv, "r", encoding="utf-8") as fh:
                equiv_text = fh.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    return run(
        job,
        monomials=args.monomials,
        equiv_text=equiv_text,
        want_stats=args.stats,
        output=args.output,
    )


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
