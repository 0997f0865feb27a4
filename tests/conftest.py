"""Shared ring-building helpers for the test suite."""

import itertools

from ncgb import Alphabet, FreeAlgebra, Ordering, normal_form
from ncgb.cli import parse_poly_list
from ncgb.coeffring import residue_domain


def make_ring(domain, names, kind, ranked, weights=None):
    """Build a FreeAlgebra from variable names and a ranked precedence list.

    ``weights`` (if given) are listed in ranked order, mirroring the CLI.
    """
    names = tuple(names)
    if weights:
        per = dict(zip(ranked, weights))
        alphabet = Alphabet(names, tuple(per[n] for n in names))
    else:
        alphabet = Alphabet(names)
    ranking = tuple(names.index(n) for n in ranked)
    return FreeAlgebra(domain, alphabet, Ordering(kind, ranking))


def polys(ring, text):
    return parse_poly_list(text, ring)


def poly(ring, text):
    (p,) = parse_poly_list(text, ring)
    return p


def discarded_pair_polys(result, nletters):
    """Materialize every S-/G-polynomial the engine discarded.

    Family entries expand to all connecting words of their level.  The
    yield order follows the log.
    """
    import itertools

    from ncgb.overlap import spoly1, spoly2

    for entry in result.discard_log:
        kind, f, g, data = entry
        if kind == "S2-family":
            for letters in itertools.product(range(nletters), repeat=data):
                yield spoly2(f, g, bytes(letters)).spoly
        elif kind in ("S2", "chain-S2"):
            yield spoly2(f, g, data).spoly
        elif kind == "chain-G2":
            yield spoly2(f, g, data).gpoly
        elif kind == "chain-S1":
            yield spoly1(f, g, data).spoly
        elif kind == "chain-G1":
            yield spoly1(f, g, data).gpoly
        else:  # pragma: no cover - future kinds must be audited too
            raise AssertionError(f"unknown discard kind {kind}")


def verify_by_lm_reduction(ring, basis, d):
    """The exhaustive Buchberger check with every pair polynomial
    lm-reduced from scratch by :func:`ncgb.normal_form`: the same pairs,
    reducer order and failure records as :func:`ncgb.verify_strong_basis`,
    without its memoised word forms and frontier steps.  Kept as an
    oracle for them over every domain."""
    from ncgb.engine import _ReducerSet, _first_type
    from ncgb.freealg import Bimonomial
    from ncgb.overlap import U_DIVIDES_V, Overlap, overlaps, spoly1, spoly2

    failures = []
    n = len(basis)
    nletters = len(ring.alphabet)
    order = sorted(
        (g for g in basis if g.terms),
        key=lambda g: (len(g.leading_word()), abs(g.leading_coeff())),
    )
    prepared = _ReducerSet(ring, order)

    def nonzero(p):
        return not normal_form(p, prepared).is_zero

    for i in range(n):
        for j in range(i, n):
            f, g = basis[i], basis[j]
            lmf, lmg = f.leading_word(), g.leading_word()
            if lmf and lmg:
                rels = overlaps(lmf, lmg)
                if i != j and lmf == lmg:
                    identity = Bimonomial(b"", b"")
                    rels = [Overlap(lmf, identity, identity, U_DIVIDES_V)] + rels
            elif lmf or lmg:
                rels = _first_type(lmf, lmg)
            else:
                rels = []
            for ov in rels:
                if len(ov.t) > d:
                    continue
                res = spoly1(f, g, ov)
                if nonzero(res.spoly):
                    failures.append(("S1", i, j, ov))
                if res.gpoly is not None and nonzero(res.gpoly):
                    failures.append(("G1", i, j, ov))

    for i in range(n):
        for j in range(n):
            f, g = basis[i], basis[j]
            base = len(f.leading_word()) + len(g.leading_word())
            monomials = len(f.terms) == 1 and len(g.terms) == 1
            for k in range(d - base + 1):
                for letters in itertools.product(range(nletters), repeat=k):
                    w = bytes(letters)
                    res = spoly2(f, g, w)
                    if not monomials and nonzero(res.spoly):
                        failures.append(("S2", i, j, w))
                    if res.gpoly is not None and nonzero(res.gpoly):
                        failures.append(("G2", i, j, w))
    return failures


# -- modular helpers --------------------------------------------------------


def prime_ring(ring_m, p):
    """The prime-field ring over the same alphabet and ordering."""
    return FreeAlgebra(residue_domain(p), ring_m.alphabet, ring_m.ordering)


def projection_coherent(ring_m, gens, basis, d):
    """Mod every prime factor of the modulus, the reduction of ``basis``
    and the directly computed prime-field basis must generate the same
    leading terms: each reduces the other to zero."""
    from ncgb.modlift import _transfer, gb_mod_prime, plan_modulus

    for p in plan_modulus(ring_m.domain.modulus).primes():
        ring_p = prime_ring(ring_m, p)
        direct = gb_mod_prime(ring_m, gens, d, p).basis
        lifted = [g for g in (_transfer(ring_p, b) for b in basis) if not g.is_zero]
        for g in lifted:
            if not normal_form(g, direct, tail_reduce=True).is_zero:
                return False
        for g in direct:
            if not normal_form(g, lifted, tail_reduce=True).is_zero:
                return False
    return True


def _row_reduce(vec, echelon, p):
    """Reduce a word->coefficient vector against monic echelon rows, largest
    word first; introduced words are always smaller, so one sweep suffices."""
    out = {}
    work = {w: c % p for w, c in vec.items() if c % p}
    while work:
        w = max(work)
        c = work.pop(w)
        row = echelon.get(w)
        if row is None:
            out[w] = c
            continue
        for u, cu in row.items():
            if u != w:
                nc = (work.get(u, 0) - c * cu) % p
                if nc:
                    work[u] = nc
                else:
                    work.pop(u, None)
    return out


def bounded_membership_oracle(ring_p, gens, pad=2):
    """Exact membership test for the linear span of ``l*g*r`` with
    ``len(l), len(r) <= pad`` over a prime field, by row reduction.

    A True answer certifies ideal membership outright; the converse
    holds whenever the instance is small enough for the window."""
    p = ring_p.domain.modulus
    letters = range(len(ring_p.alphabet))
    words = [b""] + [
        bytes(t)
        for k in range(1, pad + 1)
        for t in itertools.product(letters, repeat=k)
    ]
    echelon = {}
    for g in gens:
        if g.is_zero:
            continue
        for l, r in itertools.product(words, words):
            q = ring_p.scaled_translate(ring_p.domain.coerce(1), l, r, g)
            vec = _row_reduce({w: int(c) for w, c in q.terms}, echelon, p)
            if vec:
                w = max(vec)
                inv = pow(vec[w], -1, p)
                echelon[w] = {u: (cu * inv) % p for u, cu in vec.items()}

    def member(f):
        return not _row_reduce({w: int(c) for w, c in f.terms}, echelon, p)

    return member


def crt_membership_oracle(ring_m, gens, pad=2):
    """Member mod a squarefree modulus iff member mod every prime factor."""
    from ncgb.modlift import _transfer, plan_modulus

    oracles = []
    for p in plan_modulus(ring_m.domain.modulus).primes():
        ring_p = prime_ring(ring_m, p)
        gens_p = [_transfer(ring_p, g) for g in gens]
        oracles.append((ring_p, bounded_membership_oracle(ring_p, gens_p, pad)))

    def member(f):
        return all(oracle(_transfer(ring_p, f)) for ring_p, oracle in oracles)

    return member


def random_polys(ring, rng, *, ngens, maxterms, maxlen, maxcoeff):
    """Small random generators; zero draws are simply dropped."""
    n = len(ring.alphabet)
    out = []
    for _ in range(ngens):
        terms = []
        for _ in range(rng.randint(1, maxterms)):
            w = bytes(rng.randrange(n) for _ in range(rng.randint(0, maxlen)))
            c = rng.randint(-maxcoeff, maxcoeff)
            if c:
                terms.append((w, ring.domain.coerce(c)))
        p = ring.poly(terms)
        if not p.is_zero:
            out.append(p)
    return out
