"""Reduction, criteria, and the bounded completion loop."""

import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ncgb import (
    QQ,
    ZZ,
    DEG_LEFT_LEX,
    DEG_RIGHT_LEX,
    WEIGHTED_DEG_LEFT_LEX,
    buchberger,
    coeff_criterion,
    completeness_flag,
    gb_equivalent,
    gb_zmod,
    interreduce,
    monomial_basis,
    normal_form,
    spoly1,
    verify_strong_basis,
)
from ncgb.cli import parse_job
from ncgb.coeffring import ext_gcd, lcm_coeff, residue_domain
from ncgb.overlap import g_cofactors, overlaps, pair_poly, pair_terms, s_cofactors, sides, spoly2
from ncgb import engine
from ncgb.engine import _FRONTIER, _Engine, _PairMeta, _WordForms, _reducer

from conftest import (
    first_cut_end,
    interreduce_preparing_every_call,
    is_window,
    make_ring,
    occurrences,
    poly,
    polys,
    product_criterion_holds,
    random_polys,
    verify_by_lm_reduction,
)


R = make_ring(ZZ, "xyz", DEG_LEFT_LEX, ["x", "y", "z"])
RXY = make_ring(ZZ, "xy", DEG_RIGHT_LEX, ["x", "y"])


# -- single reduction steps ----------------------------------------------------

def _first_step(f, g):
    """The first lm-reduction step of ``f`` by ``g``, read from the trace
    of :func:`normal_form`: ``(a, l, r, f - a*l*g*r)``, or None."""
    trace = []
    normal_form(f, [g], trace=trace)
    if not trace:
        return None
    (h, a, l, r) = trace[0]
    assert h is g
    return a, l, r, R.add(f, R.scaled_translate(-a, l, r, g))


def test_lm_reduce_step_exact_division():
    f = poly(R, "12*x*y + 9*z")
    g = poly(R, "4*x*y + 3*z")
    a, l, r, rest = _first_step(f, g)
    assert (a, l, r) == (3, b"", b"") and rest.is_zero  # b = 0


def test_lm_reduce_step_leftmost_occurrence():
    # xy occurs at positions 0 and 2 of xyxy; the step rewrites the leftmost
    # one, so the tail of g lands on the left: 2xyxy - 2*(xy - z)*xy = 2zxy.
    f = poly(R, "2*x*y*x*y")
    g = poly(R, "x*y - z")
    a, l, r, rest = _first_step(f, g)
    assert (a, l, r) == (2, b"", R.parse_word("x*y"))
    assert R.render(rest) == "2*z*x*y"
    # with a bare monomial divisor the single step already clears everything
    trace = []
    assert normal_form(f, [poly(R, "x*y")], trace=trace).is_zero and len(trace) == 1


def test_lm_reduce_step_not_applicable():
    assert _first_step(poly(R, "x + y"), poly(R, "z")) is None
    assert _first_step(poly(R, "x"), poly(R, "2*x")) is None  # 1 is reduced mod 2


def test_normal_form_fixed_chain():
    basis = polys(R, "2*x, 3*y")
    assert normal_form(poly(R, "6*x*y"), basis).is_zero
    assert R.render(normal_form(poly(R, "5*x + z"), basis, tail_reduce=True)) == "x + z"
    assert normal_form(poly(R, "4*x + 3*y"), basis, tail_reduce=True).is_zero
    assert R.render(normal_form(poly(R, "4*x + y"), basis, tail_reduce=True)) == "y"


def test_normal_form_canonical_window():
    # coefficients end in (-|c|/2, |c|/2]: 5 mod 4 -> 1, -2 mod 4 -> +2
    basis = polys(R, "4*x")
    assert R.render(normal_form(poly(R, "5*x"), basis)) == "x"
    assert R.render(normal_form(poly(R, "-2*x"), basis)) == "2*x"
    assert R.render(normal_form(poly(R, "2*x"), basis)) == "2*x"


def test_normal_form_head_only_stops_at_irreducible_lm():
    basis = polys(R, "2*y")
    f = poly(R, "x + 4*y")
    assert R.render(normal_form(f, basis, tail_reduce=False)) == "x + 4*y"
    assert R.render(normal_form(f, basis, tail_reduce=True)) == "x"


def test_normal_form_trace_reconstructs_input():
    basis = polys(R, "2*x*y - z, 3*z*z - x")
    f = poly(R, "6*x*y*z^2 + x*y + z")
    trace = []
    r = normal_form(f, basis, tail_reduce=True, trace=trace)
    rebuilt = r
    for g, a, l, rr in trace:
        rebuilt = R.add(rebuilt, R.scaled_translate(a, l, rr, g))
    assert rebuilt == f
    assert trace  # something actually reduced


def test_normal_form_rational_is_full_division():
    r = make_ring(QQ, "xy", DEG_LEFT_LEX, ["x", "y"])
    basis = polys(r, "2*x - y")
    assert r.render(normal_form(poly(r, "3*x"), basis, tail_reduce=True)) == "3/2*y"


def test_normal_form_residue_ring():
    r6 = make_ring(residue_domain(6), "xy", DEG_LEFT_LEX, ["x", "y"])
    basis = polys(r6, "2*x")
    # 4 = 2*2 mod 6 is divisible; 3 is not (gcd(2,6)=2 does not divide 3)
    assert normal_form(poly(r6, "4*x"), basis).is_zero
    assert r6.render(normal_form(poly(r6, "3*x"), basis)) == "3*x"


@pytest.mark.parametrize(
    "domain", [ZZ, QQ, residue_domain(6), residue_domain(7)], ids=["Z", "Q", "Z6", "Z7"]
)
@given(st.integers(-60, 60), st.integers(-60, 60))
@settings(max_examples=80, deadline=None)
def test_normal_form_steps_exactly_by_the_domain_rule(domain, cf, cg):
    # the kernel and Domain.reduce_quotient are one rule: a step is taken
    # iff the rule gives one, with its quotient, leaving its remainder
    r = make_ring(domain, "x", DEG_LEFT_LEX, ["x"])
    x = r.parse_word("x")
    f, g = r.monomial(cf, x), r.monomial(cg, x)
    assume(not f.is_zero and not g.is_zero)
    trace = []
    h = normal_form(f, [g], trace=trace)
    q = domain.reduce_quotient(f.leading_coeff(), g.leading_coeff())
    if q is None:
        assert trace == [] and h == f
    else:
        a, b = q
        assert trace == [(g, a, b"", b"")]
        assert h == r.monomial(b, x)


words = st.lists(st.integers(0, 2), min_size=0, max_size=4).map(bytes)
terms = st.lists(st.tuples(words, st.integers(-6, 6)), min_size=0, max_size=4)


@given(terms, terms, terms)
@settings(max_examples=60, deadline=None)
def test_normal_form_idempotent_and_subtractive(t1, t2, tf):
    basis = [p for p in (R.poly(t1), R.poly(t2)) if not p.is_zero]
    f = R.poly(tf)
    for tail in (False, True):
        r = normal_form(f, basis, tail_reduce=tail)
        assert normal_form(r, basis, tail_reduce=tail) == r
        # the difference is in the ideal: reduces to zero by construction
        trace = []
        normal_form(f, basis, tail_reduce=tail, trace=trace)
        total = R.zero
        for g, a, l, rr in trace:
            total = R.add(total, R.scaled_translate(a, l, rr, g))
        assert normal_form(R.add(f, R.negate(total)), basis, tail_reduce=tail) == r


# -- pair criteria --------------------------------------------------------------

def test_coeff_criterion():
    assert coeff_criterion(poly(R, "12*x*y + 9*z"), poly(R, "4*x*y + 3*z"))
    assert not coeff_criterion(poly(R, "4*x*y + x"), poly(R, "6*z*y + z"))
    r = make_ring(QQ, "xy", DEG_LEFT_LEX, ["x", "y"])
    assert coeff_criterion(poly(r, "4*x"), poly(r, "6*y"))


def _product_verdicts(f, g, words):
    """The product criterion's verdicts on ordered ``(f, g)`` at each
    connecting word, from the engine and from the word-by-word oracle."""
    eng = _Engine(R, 9, True, True, False)
    eng.active.update({0: _reducer(R.domain, f), 1: _reducer(R.domain, g)})
    meta = _PairMeta(f, g)
    engine = [eng._product_ok(0, 1, R.parse_word(w)) for w in words]
    oracle = [product_criterion_holds(meta, R.parse_word(w)) for w in words]
    assert engine == oracle, (engine, oracle)
    return engine


def test_product_criterion():
    f = poly(R, "4*x*y + x")
    g = poly(R, "6*z*y + z")
    assert _product_verdicts(f, g, ["1"]) == [False]  # gcd = 2
    f2 = poly(R, "3*x*y + x")
    g2 = poly(R, "2*z*y + z")
    assert _product_verdicts(f2, g2, ["1"]) == [True]
    # a tail collision u*w*LM(g) == LM(f)*w*v blocks the discard: the
    # leading coefficients are coprime and x meets x only in the identity
    # placement, but the constant tails give 1*w*x == x*w*1 whenever w
    # commutes with x
    f3, g3 = poly(R, "3*x + 1"), poly(R, "2*x + 1")
    meta = _PairMeta(f3, g3)
    assert meta.coprime_no_overlap and meta.constraints == [(b"", b"")]
    assert not any(_product_verdicts(f3, g3, ["1", "x", "x^2"]))
    assert all(_product_verdicts(f3, g3, ["y", "x*y", "z*x", "x*z*x"]))


def test_product_exceptions_are_the_words_where_the_criterion_fails():
    # the closed form against a word-by-word scan of the oracle, on random
    # leading words and constraints (u, v) with |u| + |LM(g)| == |LM(f)| + |v|
    rng = random.Random(20261018)
    found = 0
    for _ in range(3000):
        nletters = rng.randint(1, 3)

        def word(lo, hi):
            return bytes(rng.randrange(nletters) for _ in range(rng.randint(lo, hi)))

        meta = _PairMeta.__new__(_PairMeta)
        meta.coprime_no_overlap = True
        meta.lmf, meta.lmg = word(0, 3), word(0, 3)
        meta.constraints = []
        meta.kept = {}
        for _ in range(rng.randint(1, 3)):
            # u starts with LM(f), or LM(f) with u, or they have one length
            u = rng.choice([meta.lmf + word(1, 3), meta.lmf[:rng.randint(0, len(meta.lmf))],
                            word(len(meta.lmf), len(meta.lmf))])
            if u == meta.lmf:
                continue
            vlen = len(u) + len(meta.lmg) - len(meta.lmf)
            if vlen < 0:
                continue
            v = rng.choice([word(vlen, vlen), (meta.lmg * 4)[-vlen:] if vlen else b""])
            meta.constraints.append((u, v))
        for k in range(6):
            brute = [
                bytes(t)
                for t in itertools.product(range(nletters), repeat=k)
                if not product_criterion_holds(meta, bytes(t))
            ]
            assert meta.exceptions(k) == brute, (meta.lmf, meta.lmg, meta.constraints, k)
            assert meta.exceptions(k) is meta.kept[k]  # computed once per length
            found += len(brute)
    assert found > 1000, found


def test_pair_meta_cofactors_follow_the_cofactor_rules():
    # _PairMeta computes a pair's cofactors once, with s_cofactors and
    # g_cofactors; its lcm and gcd are the coefficient rules' values, and
    # pair_poly with its S-cofactors cancels the leading term on t while
    # the G-cofactors leave the gcd there
    rng = random.Random(20261019)
    n = len(R.alphabet)

    def word(lo, hi):
        return bytes(rng.randrange(n) for _ in range(rng.randint(lo, hi)))

    def element(lm):
        tail = [(word(0, len(lm) - 1), rng.randint(-9, 9)) for _ in range(rng.randint(0, 2))]
        return R.poly([(lm, rng.randint(1, 90))] + tail)

    placed = 0
    for _ in range(400):
        f, g = element(word(1, 3)), element(word(1, 3))
        cf, cg = f.leading_coeff(), g.leading_coeff()
        meta = _PairMeta(f, g)
        af, ag = s_cofactors(ZZ, cf, cg)
        bf, bg, gcd = g_cofactors(ZZ, cf, cg)
        assert meta.cofactors == (af, ag, bf, bg)
        assert meta.lcm == lcm_coeff(cf, cg) and meta.gcd == gcd == ext_gcd(cf, cg)[0]
        u, v = f.leading_word(), g.leading_word()
        w = word(0, 2)
        for t, pf, pg in overlaps(u, v) + [(u + w + v, 0, len(u) + len(w))]:
            sp = pair_poly(f, g, t, pf, pg, af, -ag)
            assert sp.is_zero or R.compare_words(sp.leading_word(), t) == -1
            gp = pair_poly(f, g, t, pf, pg, bf, bg)
            assert gp.leading_word() == t and gp.leading_coeff() == meta.gcd
            placed += 1
    assert placed > 400


def _walk_by_find(r, r_end, k, n, pats, lmf, lmg, seen):
    """The decisions of a range rebuilt word by word from its rank and
    checked with :func:`first_cut_end`: ``("keep", x, w)`` per survivor
    and ``("cut", from, to)`` per run of cut subtrees.  ``seen`` counts
    the subtrees entered mid-way and those cut short by ``r_end``, the
    cuts of more than one word that a window straddling ``w``'s start
    decides, the one-word cuts that only windows straddling its end
    decide, those that only windows straddling both its ends (holding all
    of ``w``) decide, and the survivors holding a pattern that starts or
    ends ``t``, which is no window."""
    la, lw, lt = len(lmf), len(lmf) + k, len(lmf) + k + len(lmg)
    out = []
    while r < r_end:
        w = engine._word(r, k, n)
        x = first_cut_end(w, pats, lmf, lmg)
        found = [(s, e) for s, e in occurrences(lmf + w + lmg, pats) if e > la and s < lw]
        if x is None:
            seen["edge"] += any(s == 0 or e == lt for s, e in found)
            out.append(("keep", r, w))
            r += 1
            continue
        size = n ** (k - x)
        stop = min(r - r % size + size, r_end)
        seen["mid"] += r % size != 0
        seen["short"] += stop < r - r % size + size
        wins = [(s, e) for s, e in found if is_window(s, e, lmf, w, lmg)]
        seen["start"] += size > 1 and any(s < la for s, e in wins if min(e - la, k) == x)
        seen["end"] += all(s >= la and e > lw for s, e in wins)
        seen["double"] += all(s < la and e > lw for s, e in wins)
        if out and out[-1][0] == "cut":
            out[-1] = ("cut", out[-1][1], stop)
        else:
            out.append(("cut", r, stop))
        r = stop
    return out


def _walk_decisions(walk):
    out = []
    for cut_from, x, w in walk:
        if cut_from < x:
            out.append(("cut", cut_from, x))
        if w is not None:
            out.append(("keep", x, w))
    return out


def test_connecting_word_walk_decides_as_find_per_word():
    # engine._avoiding against a bytes.find of every pattern over
    # LM(a)·w·LM(b) and the window rule per word, on random pattern sets,
    # random LM(a) and LM(b) (empty ones included), alphabets of one to
    # three letters, k = 0..6, and ranges resumed after a simulated
    # insertion with one more pattern; the pattern lengths are passed as
    # the engine's _thirds entry holds them
    rng = random.Random(20261019)
    seen = dict.fromkeys(
        ["mid", "short", "n1", "k0", "la0", "lb0", "resumed", "start", "end", "double", "edge"], 0
    )

    def walk(r, r_end, k, n, pats, lmf, lmg):
        lens = tuple(sorted({len(pat) for pat in pats}))
        return _walk_decisions(engine._avoiding(r, r_end, k, n, pats, lens, lmf, lmg))

    for _ in range(3000):
        n, k = rng.randint(1, 3), rng.randint(0, 6)

        def word(lo, hi):
            return bytes(rng.randrange(n) for _ in range(rng.randint(lo, hi)))

        lmf, lmg = word(0, 3), word(0, 3)
        pats = {word(1, 4) for _ in range(rng.randint(0, 5))}
        r = rng.randrange(n**k)
        r_end = rng.randint(r + 1, n**k)
        got = walk(r, r_end, k, n, pats, lmf, lmg)
        assert got == _walk_by_find(r, r_end, k, n, pats, lmf, lmg, seen), (n, k, pats, lmf, lmg, r)
        cut = any(d[0] == "cut" for d in got)
        seen["n1"] += n == 1 and cut
        seen["k0"] += k == 0
        seen["la0"] += not lmf and cut
        seen["lb0"] += not lmg and cut
        keeps = [d[1] for d in got if d[0] == "keep"]
        if keeps and keeps[0] + 1 < r_end:
            # an insertion after the first survivor: the rest of the range
            # is walked again, with one more pattern
            x, more = keeps[0], pats | {word(1, 4)}
            mid = seen["mid"]
            rest = walk(x + 1, r_end, k, n, more, lmf, lmg)
            assert rest == _walk_by_find(x + 1, r_end, k, n, more, lmf, lmg, seen)
            seen["resumed"] += seen["mid"] > mid
    assert min(seen.values()) >= 20, seen


def test_pair_replacement_is_unimodular():
    # the engine's replacement of two elements with one leading word is
    # the aligned first-type pair
    f = poly(R, "4*x*y + y")
    g = poly(R, "6*x*y + z")
    s, gp = spoly1(f, g, f.leading_word(), 0, 0)
    # gcd element takes over the leading word
    assert gp.leading_word() == f.leading_word() and gp.leading_coeff() == 2
    assert R.compare_words(s.leading_word(), f.leading_word()) == -1
    assert R.render(s) == "3*y - 2*z" and R.render(gp) == "2*x*y - y + z"
    # unimodular: the originals are recovered exactly as integer combinations
    # (the inverse of [[3, -2], [-1, 1]] is [[1, 2], [1, 3]])
    assert R.add(s, R.scale(2, gp)) == f
    assert R.add(s, R.scale(3, gp)) == g


def test_pair_replacement_needs_equal_words():
    f = poly(R, "x")
    with pytest.raises(ValueError):
        spoly1(f, poly(R, "y"), f.leading_word(), 0, 0)


# -- completion -----------------------------------------------------------------

def test_two_generator_monomial_closure():
    r = make_ring(ZZ, "xy", DEG_LEFT_LEX, ["x", "y"])
    res = buchberger(r, polys(r, "2*x, 3*y"), 3)
    assert sorted(r.render(g) for g in res.basis) == ["2*x", "3*y", "x*y", "y*x"]
    # longest basis word has length 2, so certainty needs bound 3*2 - 1 = 5
    assert res.complete_flag == "truncated"
    assert verify_strong_basis(r, res.basis, 3) == []
    res5 = buchberger(r, polys(r, "2*x, 3*y"), 5)
    assert res5.complete_flag == "conjecturally-complete"
    assert sorted(r.render(g) for g in res5.basis) == ["2*x", "3*y", "x*y", "y*x"]


def test_unit_ideal_short_circuit():
    res = buchberger(R, polys(R, "x + 1, x"), 4)
    assert [R.render(g) for g in res.basis] == ["1"]
    res2 = buchberger(R, polys(R, "3, 2"), 4)
    assert [R.render(g) for g in res2.basis] == ["1"]
    # not every constant makes the ideal trivial: <3, 2x> = <3, x>
    res3 = buchberger(R, polys(R, "3, 2*x"), 4)
    assert sorted(R.render(g) for g in res3.basis) == ["3", "x"]


def test_zero_generators_only():
    res = buchberger(R, [R.zero], 3)
    assert res.basis == []
    assert res.complete_flag == "conjecturally-complete"


def test_bound_too_small():
    with pytest.raises(ValueError, match="bound too small"):
        buchberger(R, polys(R, "x*y*z + x"), 2)
    with pytest.raises(ValueError, match="bound too small"):
        buchberger(R, polys(R, "x"), 0)


def test_torsion_tower_from_commutator():
    # [y,x] = xy together with 2x: powers of the commutator relation
    # force x*y^k towers with shrinking coefficient support
    r = make_ring(ZZ, "xy", DEG_LEFT_LEX, ["x", "y"])
    res = buchberger(r, polys(r, "2*x, x*y - y*x"), 4)
    assert verify_strong_basis(r, res.basis, 4) == []


def test_result_reduced_by_default():
    res = buchberger(R, polys(R, "2*x, 3*y"), 4)
    # no element's leading term divides another's
    for i, f in enumerate(res.basis):
        others = [g for j, g in enumerate(res.basis) if j != i]
        assert normal_form(f, others).terms[0] == f.terms[0]


@pytest.mark.parametrize("domain", [ZZ, QQ, residue_domain(7)], ids=["Z", "Q", "Z/7"])
def test_reduce_drops_nothing_from_the_engine_basis(domain):
    # _insert lm-reduces each new element against all active ones and
    # retires those whose leading term it divides, so the final
    # interreduction only adds its tail pass; without one, reduce is a no-op
    rings = [
        make_ring(domain, "xyz", DEG_LEFT_LEX, ["x", "y", "z"]),
        make_ring(domain, "xyq", WEIGHTED_DEG_LEFT_LEX, ["x", "y", "q"], weights=(1, 1, 0)),
    ]
    rng = random.Random(20261018)
    for ring in rings:
        for _ in range(40):
            gens = random_polys(ring, rng, ngens=2, maxterms=3, maxlen=2, maxcoeff=6)
            if not gens:
                continue
            on = buchberger(ring, gens, 5, reduce=True, tail_reduce=False)
            off = buchberger(ring, gens, 5, reduce=False, tail_reduce=False)
            assert [p.terms for p in on.basis] == [p.terms for p in off.basis]


def test_interreduce_drops_covered_heads():
    basis = polys(R, "2*x, 4*x*y, 3*y")
    kept = interreduce(basis)
    assert sorted(R.render(g) for g in kept) == ["2*x", "3*y"]
    # but a non-multiple coefficient survives
    basis2 = polys(R, "2*x, 3*x*y")
    kept2 = interreduce(basis2)
    assert sorted(R.render(g) for g in kept2) == ["2*x", "3*x*y"]


@pytest.mark.parametrize(
    "domain", [ZZ, QQ, residue_domain(7), residue_domain(30)], ids=["Z", "Q", "Z/7", "Z/30"]
)
def test_interreduce_is_idempotent(domain):
    # one tail pass leaves every tail in normal form modulo the result, so
    # a second interreduction changes no term
    ring = make_ring(domain, "xyz", DEG_LEFT_LEX, ["x", "y", "z"])
    rng = random.Random(20261019)
    changed = 0
    for _ in range(150):
        basis = random_polys(ring, rng, ngens=4, maxterms=4, maxlen=3, maxcoeff=9)
        once = interreduce(basis, tail_reduce=True)
        twice = interreduce(once, tail_reduce=True)
        assert [p.terms for p in twice] == [p.terms for p in once]
        for p in once:
            tail = ring.from_terms(p.terms[1:])
            assert normal_form(tail, once, tail_reduce=True).terms == tail.terms
        changed += [p.terms for p in once] != [p.terms for p in interreduce(basis, False)]
    assert changed > 20, changed


@pytest.mark.parametrize(
    "domain", [ZZ, QQ, residue_domain(7), residue_domain(30)], ids=["Z", "Q", "Z/7", "Z/30"]
)
def test_tail_pass_prepares_the_basis_once(domain):
    # preparing the kept elements once and replacing each reduced one's
    # record gives, term for term, the pass that prepares them per call
    ring = make_ring(domain, "xyz", DEG_LEFT_LEX, ["x", "y", "z"])
    rng = random.Random(20261020)
    several_changed = 0
    for _ in range(150):
        basis = random_polys(ring, rng, ngens=5, maxterms=5, maxlen=2, maxcoeff=9)
        got = interreduce(basis, tail_reduce=True)
        want = interreduce_preparing_every_call(basis, tail_reduce=True)
        assert [p.terms for p in got] == [p.terms for p in want]
        # a stale record can only show once an element's tail changed
        # before a later element is reduced
        raw = interreduce(basis, tail_reduce=False)
        several_changed += sum(p.terms != q.terms for p, q in zip(got, raw)) >= 2
    assert several_changed > 0, several_changed


def test_completeness_flag_threshold():
    basis = polys(R, "x*y*z")  # longest word 3 -> threshold 8
    assert completeness_flag(basis, 8) == "conjecturally-complete"
    assert completeness_flag(basis, 7) == "truncated"
    assert completeness_flag([], 1) == "conjecturally-complete"


def test_gb_equivalent_distinguishes_coefficients():
    a = polys(R, "2*x")
    b = polys(R, "3*x")
    assert not gb_equivalent(a, b, 3)
    assert gb_equivalent(polys(R, "2*x, x*y"), polys(R, "x*y, 2*x"), 3)
    # mutual containment with different (non-minimal) presentations
    assert gb_equivalent(polys(R, "x"), polys(R, "x, x*y"), 3)
    # associates, repeats and divided leading terms leave one minimal term
    assert gb_equivalent(polys(R, "2*x, -2*x, 4*x, 6*y*x"), polys(R, "2*x"), 3)
    r6 = make_ring(residue_domain(6), "xy", DEG_LEFT_LEX, ["x", "y"])
    assert gb_equivalent(polys(r6, "4*x, 2*x, 2*x*y"), polys(r6, "2*x"), 3)
    assert not gb_equivalent(polys(r6, "2*x"), polys(r6, "3*x"), 3)


def test_gb_equivalent_prepares_each_basis_once(monkeypatch):
    # one _reducer record per nonzero element of each side, not one per
    # element reduced against it
    r = make_ring(ZZ, "xyz", DEG_RIGHT_LEX, ["x", "y", "z"])
    basis = buchberger(r, polys(r, SKEW), 9).basis
    assert len(basis) == 14
    calls = []
    made = engine._reducer
    monkeypatch.setattr(engine, "_reducer", lambda dom, g: calls.append(g) or made(dom, g))
    assert gb_equivalent(basis, basis, 9)
    assert len(calls) == 2 * len(basis)
    calls.clear()
    zero = r.poly([])
    assert gb_equivalent(basis + [zero], basis[1:] + basis[:1], 9)
    assert len(calls) == 2 * len(basis)


def test_monomial_basis_small():
    r = make_ring(ZZ, "xy", DEG_LEFT_LEX, ["x", "y"])
    res = buchberger(r, polys(r, "x"), 2)
    mb = monomial_basis(res.basis, 2, ring=r)
    assert sorted(r.render_word(w) for w in mb) == ["1", "y", "y^2"]
    # ascending in the monomial order: 1 < y < x under left-lex with x > y
    assert monomial_basis([], 1, ring=r) == [b"", b"\x01", b"\x00"]
    # over Z the list is not the irreducible words: x is irreducible modulo 2x
    two_x = polys(r, "2*x")
    assert normal_form(poly(r, "x"), two_x) == poly(r, "x")
    assert [r.render_word(w) for w in monomial_basis(two_x, 1)] == ["1", "y"]


def test_verify_catches_incomplete_basis():
    r = make_ring(ZZ, "xy", DEG_LEFT_LEX, ["x", "y"])
    res = buchberger(r, polys(r, "2*x, 3*y"), 3)
    broken = [g for g in res.basis if r.render(g) != "x*y"]
    fails = verify_strong_basis(r, broken, 3)
    assert fails, "missing element must be detected"


def test_verify_catches_wrong_coefficient():
    r = make_ring(ZZ, "xy", DEG_LEFT_LEX, ["x", "y"])
    basis = polys(r, "4*x, 3*y")  # should be 2x for a strong basis of <4x,6x>? craft:
    fails = verify_strong_basis(r, polys(r, "4*x, 6*x"), 2)
    # gcd element 2x is missing: the G-pair of (4x, 6x) cannot reduce
    assert fails


SKEW = "z*y - y*z + z^2, z*x + y^2, y*x - 3*x*y"
TORSION = "y*x - 3*x*y - z, z*x - x*z + y, z*y - y*z - x"
COMMUTATOR = "y*x - 3*x*y - 3*z, z*x - 2*x*z + y, z*y - y*z - x"


class _RecordedWordForms(_WordForms):
    """The verifier's word forms, checked after every basis pair and kept
    for :func:`_check_spreads`."""

    __slots__ = ()
    made: list = []

    def __init__(self, ring, reducers):
        super().__init__(ring, reducers)
        self.made.append(self)

    def next_pair(self):
        super().next_pair()
        assert self.size == sum(len(f) // 2 for f in self.memo.values() if f.__class__ is not str)
        assert self.size <= engine._MEMO_BUDGET


def _check_spreads(forms, ring):
    """Every frontier word's steps, against a fresh :class:`_WordForms`:
    one per reducer whose leading word occurs in it, in order, ending at the
    first one with a unit leading coefficient, and each spread equal to
    ``sum(-c_u * form(l*u*r))`` over that reducer's tail."""
    fresh = _WordForms(ring, forms.reducers)
    modulus = ring.domain.modulus
    for v, (_, _, steps) in forms.frontier.items():
        want = []
        for (lmg, lg, div, gtail, _, _), (_, _, tail) in zip(fresh.reducers, fresh.rules):
            pos = v.find(lmg)
            if pos < 0:
                continue
            spread = {}
            for u, cu in gtail:
                x = v[:pos] + u + v[pos + lg:]
                f = fresh.form(x)
                it = iter(f)
                for y, cy in ((x, 1),) if f.__class__ is str else zip(it, it):
                    spread[y] = spread.get(y, 0) - cu * cy
            if modulus is not None:
                spread = {y: c % modulus for y, c in spread.items()}
            want.append((div, {y: (c, fresh.form(y) is _FRONTIER) for y, c in spread.items() if c}))
            if tail is not None:
                break
        got = [(div, {y: (k, fr) for y, k, fr in zip(*[iter(sp)] * 3)}) for div, sp in steps]
        assert got == want, v


@pytest.mark.parametrize(
    "domain, kind, ranked, gens, complete",
    [
        (QQ, DEG_RIGHT_LEX, "xyz", SKEW, buchberger),
        (residue_domain(7), DEG_RIGHT_LEX, "xyz", TORSION, buchberger),
        (QQ, DEG_LEFT_LEX, "zyx", COMMUTATOR, buchberger),
        (ZZ, DEG_RIGHT_LEX, "xyz", SKEW, buchberger),
        (ZZ, DEG_RIGHT_LEX, "xyz", TORSION, buchberger),
        (residue_domain(30), DEG_RIGHT_LEX, "xyz", SKEW, gb_zmod),
        (residue_domain(210), DEG_LEFT_LEX, "zyx", COMMUTATOR, gb_zmod),
    ],
    ids=["Q-skew", "Z7-torsion", "Q-commutator", "Z-skew", "Z-torsion", "Z30-skew",
         "Z210-commutator"],
)
def test_field_verifier_agrees_with_lm_reduction(domain, kind, ranked, gens, complete, monkeypatch):
    # the verifier sums memoised word forms and steps only the frontier
    # words, those whose first reducer has a non-unit leading coefficient
    # (none over a field); over every domain, on the completed basis and
    # on every basis with one element dropped, with the memo cleared after
    # every basis pair and kept for the whole call, it must report exactly
    # the failures that lm-reducing each pair reports
    d = 6
    r = make_ring(domain, "xyz", kind, list(ranked))
    basis = complete(r, polys(r, gens), d).basis
    want = [verify_by_lm_reduction(r, basis[:k] + basis[k + 1:], d) for k in range(len(basis))]
    assert verify_by_lm_reduction(r, basis, d) == [] and any(want)
    for budget in (0, float("inf")):
        monkeypatch.setattr(engine, "_MEMO_BUDGET", budget)
        assert verify_strong_basis(r, basis, d) == []
        for k in range(len(basis)):
            assert verify_strong_basis(r, basis[:k] + basis[k + 1:], d) == want[k], (budget, k)


@pytest.mark.parametrize("domain", [ZZ, residue_domain(30)], ids=["Z", "Z30"])
def test_verifier_word_forms_on_random_bases(domain, monkeypatch):
    # random bases whose leading coefficients are units for about half the
    # elements, none of them strong: the verdicts are lm-reduction's under
    # every memo budget, the memo's counted size never passes the budget
    # after a basis pair, and every cached frontier step is the one a
    # fresh memo recomputes
    monkeypatch.setattr(engine, "_WordForms", _RecordedWordForms)
    rng = random.Random(20261019)
    r = make_ring(domain, "xyz", DEG_LEFT_LEX, ["x", "y", "z"])
    d = 6

    def word(lo, hi):
        return bytes(rng.randrange(3) for _ in range(rng.randint(lo, hi)))

    mixed = 0
    for _ in range(16):
        basis = []
        for _ in range(rng.randint(3, 4)):
            lm = word(2, 3)
            lc = rng.choice([1, -1]) if rng.random() < 0.5 else rng.choice([2, -3, 4, 5, 6, 10, 12])
            tail = [(word(0, len(lm) - 1), rng.choice([1, -1, 2, -3, 5, 7, 12]))
                    for _ in range(rng.randint(1, 3))]
            basis.append(r.poly([(w, domain.coerce(c)) for w, c in [(lm, lc)] + tail]))
        want = verify_by_lm_reduction(r, basis, d)
        assert want
        for budget in (0, 30, float("inf")):
            monkeypatch.setattr(engine, "_MEMO_BUDGET", budget)
            _RecordedWordForms.made.clear()
            assert verify_strong_basis(r, basis, d) == want, (budget, [r.render(g) for g in basis])
            (forms,) = _RecordedWordForms.made
            _check_spreads(forms, r)
        mixed += forms.size > 0 and len(forms.frontier) > 0
    assert mixed >= 5, mixed


def _s_tail_events(ring, basis, d):
    """Over the first-type S-pairs of ``basis`` within ``d``, as the
    verifier streams them (two placed tails, S-cofactors ``(a_f, -a_g)``):
    the placed tail products ``scale*c_u`` that are 0 mod the modulus, and
    the words on which both tails land and cancel."""
    dom, modulus = ring.domain, ring.domain.modulus
    zero_products = cancelled = 0
    for i, j in itertools.combinations_with_replacement(range(len(basis)), 2):
        f, g = basis[i], basis[j]
        rels = engine._first_type(f.leading_word(), g.leading_word())
        if i != j and f.leading_word() == g.leading_word():
            rels = [(f.leading_word(), 0, 0)] + rels
        af, ag = s_cofactors(dom, f.leading_coeff(), g.leading_coeff())
        for t, pf, pg in rels:
            if len(t) > d:
                continue
            sums = [{}, {}]
            for side, (h, x, p) in enumerate(((f, af, pf), (g, dom.neg(ag), pg))):
                l, r = sides(h, t, p)
                for u, cu in h.terms[1:]:
                    c = x * cu
                    zero_products += modulus is not None and c % modulus == 0
                    sums[side][l + u + r] = sums[side].get(l + u + r, 0) + c
            for w in sums[0].keys() & sums[1].keys():
                c = sums[0][w] + sums[1][w]
                cancelled += (c if modulus is None else c % modulus) == 0
    return zero_products, cancelled


@pytest.mark.parametrize("domain", [QQ, residue_domain(7), residue_domain(6)],
                         ids=["Q", "Z7", "Z6"])
def test_streamed_verifier_on_non_monic_random_bases(domain, monkeypatch):
    # the verifier sums each pair's two placed summands into the word forms
    # without building the pair polynomial, and skips an S-pair's leading
    # terms; on random bases with no monic element (so the field
    # S-cofactors are not 1), in which elements share leading words and
    # tail words scaled so that the S-pair's tails cancel, and over Z/6
    # tail products vanish mod 6, its failures are lm-reduction's under
    # every memo budget
    rng = random.Random(20261020)
    r = make_ring(domain, "xyz", DEG_LEFT_LEX, ["x", "y", "z"])
    d = 5
    lcs = [2, -3, Fraction(5, 2), 7] if domain is QQ else [2, 3, 4, 5]

    def word(lo, hi):
        return bytes(rng.randrange(3) for _ in range(rng.randint(lo, hi)))

    zero_products = cancelled = failing = 0
    for _ in range(12):
        specs = []  # (leading word, leading coefficient, tail terms (u, e) of e*lc*u)
        for _ in range(rng.randint(3, 4)):
            if specs and rng.random() < 0.5:
                # an earlier element's leading word and some of its tail
                # words, scaled by this element's leading coefficient
                lm, _, shared = rng.choice(specs)
                tail = [t for t in shared if rng.random() < 0.7]
            else:
                lm, tail = word(2, 3), []
            tail += [(word(0, len(lm) - 1), rng.choice([1, -1, 2, 3, -4]))
                     for _ in range(rng.randint(1, 2))]
            specs.append((lm, rng.choice(lcs), tail))
        basis = [r.poly([(lm, domain.coerce(lc))] + [(u, domain.coerce(e * lc)) for u, e in tail])
                 for lm, lc, tail in specs]
        assert all(g.leading_coeff() != 1 for g in basis)
        events = _s_tail_events(r, basis, d)
        zero_products += events[0]
        cancelled += events[1]
        want = verify_by_lm_reduction(r, basis, d)
        failing += bool(want)
        for budget in (0, 30, float("inf")):
            monkeypatch.setattr(engine, "_MEMO_BUDGET", budget)
            assert verify_strong_basis(r, basis, d) == want, (budget, [r.render(g) for g in basis])
    assert failing >= 6 and cancelled >= 20, (failing, cancelled)
    if domain.modulus == 6:
        assert zero_products >= 20, zero_products


@pytest.mark.parametrize("domain", [ZZ, QQ], ids=["Z", "Q"])
def test_verifier_builds_no_pair_polynomial(domain, monkeypatch):
    # the verifier streams each pair's placed summands into the word forms:
    # with the pair-polynomial builder and the term merge raising, it
    # gives the same failures on the skew basis and on every basis with
    # one element dropped
    d = 6
    r = make_ring(domain, "xyz", DEG_RIGHT_LEX, ["x", "y", "z"])
    basis = buchberger(r, polys(r, SKEW), d).basis
    cases = [basis] + [basis[:k] + basis[k + 1:] for k in range(len(basis))]
    want = [verify_by_lm_reduction(r, b, d) for b in cases]
    assert want[0] == [] and any(want)

    def forbidden(*args, **kwargs):
        raise AssertionError("the verifier built a pair polynomial")

    from ncgb import freealg, overlap
    monkeypatch.setattr(overlap, "pair_poly", forbidden)
    monkeypatch.setattr(freealg.FreeAlgebra, "merge_terms", forbidden)
    assert [verify_strong_basis(r, b, d) for b in cases] == want


@pytest.mark.parametrize("d", [6, 9])
def test_field_verifier_multiplies_fractions_per_pair_not_per_placement(d, monkeypatch):
    # over Q the verifier clears each basis element's denominators once and
    # holds integral coefficients as int: on the skew basis, which has
    # thousands of placements at d=9, the Fraction products stay within a
    # few per ordered basis pair (two S-cofactors and their two scalings)
    r = make_ring(QQ, "xyz", DEG_RIGHT_LEX, ["x", "y", "z"])
    basis = buchberger(r, polys(r, SKEW), d).basis
    assert any(c.denominator != 1 for g in basis for _, c in g.terms)
    calls = 0

    def counted(mul):
        def wrapper(a, b):
            nonlocal calls
            calls += 1
            return mul(a, b)
        return wrapper

    monkeypatch.setattr(Fraction, "__mul__", counted(Fraction.__mul__))
    monkeypatch.setattr(Fraction, "__rmul__", counted(Fraction.__rmul__))
    assert verify_strong_basis(r, basis, d) == []
    assert calls <= 10 * len(basis) ** 2, calls


def test_verifier_skips_zero_elements():
    # a zero element has zero S- and G-polynomials: placed anywhere in a
    # basis it leaves the failures unchanged, up to the shifted indices
    r = make_ring(ZZ, "xy", DEG_LEFT_LEX, ["x", "y"])
    zero = r.poly([])
    assert verify_strong_basis(r, [zero], 3) == []
    for basis in (polys(r, "2*x, 3*y"), buchberger(r, polys(r, "2*x, 3*y"), 3).basis):
        want = verify_strong_basis(r, basis, 3)
        for at in range(len(basis) + 1):
            shift = [i + (i >= at) for i in range(len(basis))]
            got = verify_strong_basis(r, basis[:at] + [zero] + basis[at:], 3)
            assert got == [(kind, shift[i], shift[j], data) for kind, i, j, data in want], at


# -- audit mode -------------------------------------------------------------------

def test_discarded_pairs_reduce_to_zero_when_materialized():
    from conftest import discarded_pair_polys

    r = make_ring(ZZ, "xy", DEG_RIGHT_LEX, ["x", "y"])
    gens = polys(r, "2*x - 3*y, x*y - 3*x, y*x - x*y")
    res = buchberger(r, gens, 6, test_mode=True)
    assert res.discard_log is not None and res.discard_log
    checked = 0
    for sp in discarded_pair_polys(res, 2):
        assert normal_form(sp, res.basis).is_zero
        checked += 1
    assert checked >= len(res.discard_log)


def test_cofactor_log_satisfies_determinant_identity():
    r = make_ring(ZZ, "xy", DEG_RIGHT_LEX, ["x", "y"])
    res = buchberger(r, polys(r, "4*x*y + y, 6*y*x + x"), 5, test_mode=True)
    assert res.cofactor_log
    for af, ag, bf, bg in res.cofactor_log:
        assert af * bg + ag * bf == 1


class _CheckedPairPolys(_Engine):
    """The engine, checking every pair polynomial it builds, the dict of
    its two placed summands merged, against the S- or G-polynomial that
    :func:`spoly1` or :func:`spoly2` gives at the same placement (its
    terms, by ``repr``, so coefficient types count), and recording the
    pair kinds it built."""

    def _build_pair_poly(self, kind, i, j, f, g, t, pi, pj):
        got = super()._build_pair_poly(kind, i, j, f, g, t, pi, pj)
        key = self.ring.word_key
        terms = tuple(sorted(got.items(), key=lambda item: key(item[0]), reverse=True))
        if kind in (engine.S1, engine.G1):
            sp, gp = spoly1(f, g, t, pi, pj)
        else:
            sp, gp = spoly2(f, g, t[len(f.leading_word()):pj])
        want = gp if kind in (engine.G1, engine.G2) else sp
        assert repr(terms) == repr(want.terms), (kind, t, pi, pj)
        self.built.add(kind)
        return got


@pytest.mark.parametrize(
    "domain, kind, ranked, gens, d",
    [
        (QQ, DEG_RIGHT_LEX, "xyz", SKEW, 8),
        (residue_domain(7), DEG_RIGHT_LEX, "xyz", SKEW, 8),
        (QQ, DEG_LEFT_LEX, "zyx", COMMUTATOR, 7),
        (residue_domain(7), DEG_LEFT_LEX, "zyx", COMMUTATOR, 7),
        (ZZ, DEG_RIGHT_LEX, "xyz", "4*x*y + y, 6*y*x + x", 6),
    ],
    ids=["Q-skew", "Z7-skew", "Q-commutator", "Z7-commutator", "Z-non-unit"],
)
def test_pair_polys_are_the_s_and_g_polynomials(domain, kind, ranked, gens, d):
    # over a field every active element is monic, so the engine passes the
    # constant S-cofactors (1, -1); over Z, those of the pair's _PairMeta
    r = make_ring(domain, "xyz", kind, list(ranked))
    eng = _CheckedPairPolys(r, d, True, True, False)
    eng.built = set()
    res = eng.run(polys(r, gens))
    assert res.basis == buchberger(r, polys(r, gens), d).basis
    # over a field only first-type S-pairs are formed
    want = {engine.S1} if domain.is_field else {engine.S1, engine.G1, engine.S2, engine.G2}
    assert eng.built == want


@pytest.mark.parametrize(
    "domain", [ZZ, QQ, residue_domain(7), residue_domain(30)], ids=["Z", "Q", "Z7", "Z30"]
)
def test_reduction_from_placed_summands_is_normal_form_of_the_pair_polynomial(domain):
    # the completion starts a pair's reduction from its two placed summands
    # merged into one dict (overlap.pair_terms), not from the pair
    # polynomial: on random pairs, first- and second-type placements and
    # S- and G-cofactors (S only over Q, which has no gcd cofactors), with
    # and without tail reduction, the remainder's terms (with their types)
    # and the trace of steps are those of normal_form on the pair
    # polynomial, which pair_poly builds and ring arithmetic (the sum of
    # two scaled translates) builds independently of pair_terms
    rng = random.Random(20261020)
    r = make_ring(domain, "xyz", DEG_LEFT_LEX, ["x", "y", "z"])
    dom, n = r.domain, len(r.alphabet)
    seen = dict.fromkeys(["S", "G", "second", "aligned", "zero", "nonzero", "steps"], 0)
    for _ in range(150):
        gens = random_polys(r, rng, ngens=5, maxterms=4, maxlen=3, maxcoeff=12)
        if len(gens) < 3:
            continue
        f, g = gens[0], gens[1]
        if rng.random() < 0.3:
            # g on f's leading word, for aligned placements
            lower = [(x, c) for x, c in g.terms if r.compare_words(x, f.terms[0][0]) < 0]
            g = gens[1] = r.poly([(f.terms[0][0], dom.coerce(rng.randint(1, 6)))] + lower)
        rng.shuffle(gens)
        reducers = [_reducer(dom, p) for p in gens]
        (u, cf), (v, cg) = f.terms[0], g.terms[0]
        w = bytes(rng.randrange(n) for _ in range(rng.randint(0, 2)))
        places = [(u + w + v, 0, len(u) + len(w))] + engine._first_type(u, v)
        if u == v:
            places.append((u, 0, 0))
        af, ag = s_cofactors(dom, cf, cg)
        cofactors = [("S", af, -ag)]
        if domain != QQ:
            cofactors.append(("G", *g_cofactors(dom, cf, cg)[:2]))
        for (t, pf, pg), (kind, x, y) in itertools.product(places, cofactors):
            ref = r.add(r.scaled_translate(x, *sides(f, t, pf), f),
                        r.scaled_translate(y, *sides(g, t, pg), g))
            assert repr(pair_poly(f, g, t, pf, pg, x, y).terms) == repr(ref.terms), (kind, t, pf, pg)
            for tail in (False, True):
                want_trace, got_trace = [], []
                want = normal_form(ref, gens, tail, want_trace)
                start = pair_terms(f, g, t, pf, pg, x, y)
                got = engine._reduce(r, start, reducers, tail, got_trace)
                assert repr(got.terms) == repr(want.terms), (kind, t, pf, pg, tail)
                assert got_trace == want_trace, (kind, t, pf, pg, tail)
                seen[kind] += 1
                seen["second"] += pg == len(u) + len(w) and pf == 0 and t == u + w + v
                seen["aligned"] += t == u == v and pf == pg == 0
                seen["zero" if got.is_zero else "nonzero"] += 1
                seen["steps"] += len(got_trace)
    assert min(seen[k] for k in seen if not (k == "G" and domain == QQ)) >= 20, seen


def test_completion_builds_no_pair_polynomial(monkeypatch):
    # every reduction of a completion starts from a coefficient dict: a
    # queued pair's and an aligned swap's S- and G-parts are summed from
    # their placed summands, so over Z, Q and Z/7 no completion calls
    # pair_poly, spoly1 or spoly2, though aligned swaps do happen (counted
    # at _insert: the new element's leading word has an active owner)
    from ncgb import overlap

    def refuse(*args):
        raise AssertionError("a pair polynomial built in a completion")

    # in every module that holds a builder, as a direct import would
    for name in ("pair_poly", "spoly1", "spoly2"):
        made = getattr(overlap, name)
        for mod in [m for key, m in sys.modules.items() if key.startswith("ncgb")]:
            if getattr(mod, name, None) is made:
                monkeypatch.setattr(mod, name, refuse)
    plain_insert, swaps = _Engine._insert, []

    def insert(self, h):
        lm, lc = self.ring.normalize_leading(h).terms[0]
        if (lm or lc != 1) and any(rec[0] == lm for rec in self.active.values()):
            swaps.append(self.ring.domain)
        plain_insert(self, h)

    monkeypatch.setattr(_Engine, "_insert", insert)
    for domain, gens, d in [(ZZ, SKEW, 8), (ZZ, TORSION, 7), (ZZ, "4*x*y + y, 6*y*x + x", 6),
                            (QQ, SKEW, 8), (residue_domain(7), TORSION, 7)]:
        r = make_ring(domain, "xyz", DEG_RIGHT_LEX, ["x", "y", "z"])
        res = buchberger(r, polys(r, gens), d)
        assert res.stats.reductions_to_zero > 0
    assert swaps, "no aligned swap: the test no longer covers _insert's swap"


# -- random completions stay verifiable -------------------------------------------

gen_terms = st.lists(
    st.tuples(st.lists(st.integers(0, 1), min_size=0, max_size=2).map(bytes),
              st.integers(-4, 4)),
    min_size=1, max_size=3,
)


@given(st.lists(gen_terms, min_size=1, max_size=2))
@settings(max_examples=40, deadline=None)
def test_completion_output_passes_exhaustive_check(gen_data):
    r = make_ring(ZZ, "xy", DEG_LEFT_LEX, ["x", "y"])
    gens = [r.poly(t) for t in gen_data]
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        return
    res = buchberger(r, gens, 4)
    assert verify_strong_basis(r, res.basis, 4) == []
    # inputs are members
    for g in gens:
        assert normal_form(g, res.basis, tail_reduce=True).is_zero


# -- pinned counters ---------------------------------------------------------------

_SKEW = "z*y - y*z + z^2, z*x + y^2, y*x - 3*x*y"
_TORSION = "y*x - 3*x*y - z, z*x - x*z + y, z*y - y*z - x"


@pytest.mark.parametrize(
    "job, stats",
    [
        ("ring Z <x,y> deglex(x>y) bound 5;\nideal 2*x, 3*y;\noption stats;",
         (268, 36, 96, 104, 30, 4, 68)),
        (f"ring Z <x,y,z> degrevlexR(x>y>z) bound 9;\nideal {_SKEW};",
         (11532, 3112, 2467, 5747, 141, 17, 1725)),
        (f"ring Z <x,y,z> degrevlexR(x>y>z) bound 8;\nideal {_TORSION};",
         (16898, 1895, 6430, 8449, 99, 12, 4356)),
        (f"ring Zmod 6 <x,y,z> degrevlexR(x>y>z) bound 7;\nideal {_TORSION};",
         (41, 0, 2, 0, 24, 13, 23)),
        ("ring Z <x,y,z> deglex(z>y>x) bound 4;\nideal -4*z*z, -6, 2*z*z;",
         (310, 0, 18, 154, 134, 3, 100)),
        (f"ring Z <x,y,z> degrevlexR(x>y>z) bound 13;\nideal {_SKEW};",
         (921764, 253818, 207709, 459903, 269, 17, 138621)),
        (f"ring Z <x,y,z> degrevlexR(x>y>z) bound 11;\nideal {_TORSION};",
         (455648, 51386, 176208, 227824, 205, 12, 117612)),
        (f"ring Z <x,y,z> degrevlexR(x>y>z) bound 17;\nideal {_SKEW};",
         (74649764, 20561058, 16842069, 37246143, 429, 17, 11228301)),
        (f"ring Z <x,y,z> degrevlexR(x>y>z) bound 15;\nideal {_TORSION};",
         (36905648, 4162946, 14289376, 18452824, 477, 12, 9526572)),
    ],
    ids=[
        "readme", "skew-Z-d9", "torsion-Z-d8", "torsion-Zmod6-d7",
        "constants-Z-d4", "skew-Z-d13", "torsion-Z-d11", "skew-Z-d17", "torsion-Z-d15",
    ],
)
def test_stats_counters_are_pinned(job, stats):
    # the counters are part of the CLI's JSON output, so a change to pair
    # bookkeeping must leave every one of them, and their order, as it is
    parsed = parse_job(job)
    complete = gb_zmod if parsed.ring.domain.modulus else buchberger
    res = complete(parsed.ring, parsed.generators, parsed.bound)
    keys = [
        "pairs_created", "pairs_discarded_product", "pairs_discarded_chain",
        "pairs_discarded_coeff", "reductions_to_zero", "basis_insertions", "peak_queue_size",
    ]
    assert list(res.stats.as_dict().items()) == list(zip(keys, stats))


class _SecondTypeCounting(_Engine):
    """The engine, counting the second-type words it dequeues one by one
    through ``_process`` (those no bulk chain cut of ``_walk`` counts), and
    among them those that ``_process`` chain-discards."""

    def __init__(self, *args):
        super().__init__(*args)
        self.second_type = self.chained = 0

    def _process(self, kind, i, j, data):
        before = self.stats.pairs_discarded_chain
        super()._process(kind, i, j, data)
        if kind in (engine.S2, engine.G2):
            self.second_type += 1
            self.chained += self.stats.pairs_discarded_chain - before


@pytest.mark.parametrize("ideal, d, most, chained", [(_SKEW, 11, 400, 4), (_TORSION, 9, 200, 0)],
                         ids=["skew-Z-d11", "torsion-Z-d9"])
def test_straddling_occurrences_are_cut_in_bulk(ideal, d, most, chained):
    # occurrences that straddle LM(a)·w or w·LM(b) are cut by _walk's
    # lemma, so few second-type words reach _process one by one (3,039 on
    # skew at d=11 and 673 on torsion at d=9 when only occurrences inside
    # w were cut), and _process chain-discards almost none of them (141
    # and 53 when occurrences holding all of w were not cut); the
    # test-mode audit checks every cut word with _chain_discard and the
    # run is the plain one
    job = parse_job(f"ring Z <x,y,z> degrevlexR(x>y>z) bound {d};\nideal {ideal};")
    counting = _SecondTypeCounting(job.ring, d, True, True, False)
    plain = counting.run(job.generators)
    assert counting.second_type <= most
    assert counting.chained <= chained, counting.chained
    audited = buchberger(job.ring, job.generators, d, test_mode=True)
    assert audited.stats == plain.stats
    assert [g.terms for g in audited.basis] == [g.terms for g in plain.basis]
    assert audited.insertion_log == plain.insertion_log
    chain = [e for e in audited.discard_log if e[0].startswith("chain-")]
    assert len(chain) == plain.stats.pairs_discarded_chain
