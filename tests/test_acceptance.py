"""End-to-end acceptance battery.

One test function per gate, so ``pytest -v`` prints exactly one pass/fail
line for each.  Expected bases are frozen as parse literals.  Reduced
strong bases over the integers are not unique, so basis comparisons go
through :func:`gb_equivalent` (mutual reduction to zero plus identical
leading-word sets up to the bound); exact string equality is asserted
only where the output is pinned down completely.  Every gate also
asserts its wall-clock ceiling.
"""

import hashlib
import itertools
import random
import time
from collections import Counter
from functools import lru_cache

import pytest

from ncgb import (
    DEG_LEFT_LEX,
    DEG_RIGHT_LEX,
    QQ,
    WEIGHTED_DEG_LEFT_LEX,
    ZZ,
    buchberger,
    gb_equivalent,
    monomial_basis,
    normal_form,
    overlaps,
    verify_strong_basis,
)
from ncgb.coeffring import residue_domain
from ncgb.engine import _WordForms, _reduce, _reducer
from ncgb.modlift import gb_zmod
from ncgb.overlap import spoly1, spoly2

from conftest import (
    CallRecordingEngine,
    EagerEngine,
    FreshReducersEngine,
    FreshThirdsEngine,
    InvariantEngine,
    SetKeyedEngine,
    discarded_pair_polys,
    make_ring,
    poly,
    polys,
    projection_coherent,
    random_polys,
)


def _elapsed_under(budget, t0):
    took = time.monotonic() - t0
    assert took < budget, f"took {took:.1f}s, ceiling {budget}s"


def _renders(ring, res):
    return [ring.render(g) for g in res.basis]


# ---------------------------------------------------------------------------
# shared example runs (test_mode keeps the discard/cofactor logs around so
# the invariant sweep can audit them without recomputing anything)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def ex_monomial_pair():
    ring = make_ring(ZZ, "xy", DEG_LEFT_LEX, ["x", "y"])
    gens = polys(ring, "2*x, 3*y")
    return ring, gens, buchberger(ring, gens, 3, test_mode=True), 3, 2


@lru_cache(maxsize=None)
def ex_monomial_pair_spacer():
    ring = make_ring(ZZ, "xyz", DEG_LEFT_LEX, ["x", "y", "z"])
    gens = polys(ring, "2*x, 3*y")
    return ring, gens, buchberger(ring, gens, 5, test_mode=True), 5, 3


def _twin(sign):
    ring = make_ring(ZZ, "xy", DEG_RIGHT_LEX, ["x", "y"])
    gens = polys(ring, f"2*y^2, 3*x^2 {sign} y^2, y*x - x*y")
    res = buchberger(ring, gens, 5, tail_reduce=False, test_mode=True)
    return ring, gens, res, 5, 2


@lru_cache(maxsize=None)
def ex_twin_plus():
    return _twin("+")


@lru_cache(maxsize=None)
def ex_twin_minus():
    return _twin("-")


def _cycle(text):
    ring = make_ring(ZZ, "abcd", DEG_LEFT_LEX, ["a", "b", "c", "d"])
    gens = polys(ring, text)
    return ring, gens, buchberger(ring, gens, 6, test_mode=True), 6, 4


@lru_cache(maxsize=None)
def ex_cycle_monomials():
    return _cycle("4*a*b, 6*c*d, b*c, d*a")


@lru_cache(maxsize=None)
def ex_cycle_monomials_swapped():
    return _cycle("2*a*b, b*c, 3*c*d, d*a")


COMMUTATOR_GENS = "y*x - 3*x*y - 3*z, z*x - 2*x*z + y, z*y - y*z - x"


def _commutators(domain):
    ring = make_ring(domain, "xyz", DEG_LEFT_LEX, ["z", "y", "x"])
    gens = polys(ring, COMMUTATOR_GENS)
    return ring, gens, buchberger(ring, gens, 7, test_mode=True), 7, 3


@lru_cache(maxsize=None)
def ex_commutators_rational():
    return _commutators(QQ)


@lru_cache(maxsize=None)
def ex_commutators_integer():
    return _commutators(ZZ)


TORSION_GENS = "y*x - 3*x*y - z, z*x - x*z + y, z*y - y*z - x"


@lru_cache(maxsize=None)
def ex_torsion_chain():
    ring = make_ring(ZZ, "xyz", DEG_RIGHT_LEX, ["x", "y", "z"])
    gens = polys(ring, TORSION_GENS)
    return ring, gens, buchberger(ring, gens, 9, test_mode=True), 9, 3


SKEW_GENS = "z*y - y*z + z^2, z*x + y^2, y*x - 3*x*y"


def _skew(domain):
    ring = make_ring(domain, "xyz", DEG_RIGHT_LEX, ["x", "y", "z"])
    gens = polys(ring, SKEW_GENS)
    return ring, gens, buchberger(ring, gens, 11, test_mode=True), 11, 3


@lru_cache(maxsize=None)
def ex_skew_integer():
    return _skew(ZZ)


@lru_cache(maxsize=None)
def ex_skew_rational():
    return _skew(QQ)


PARAMETER_RELS = (
    "x^2 + (1 - q)*x - q, y^2 + (1 - q)*y - q, z^2 + (1 - q)*z - q,"
    "z*x - x*z, y*x*y - x*y*x, z*y*z - y*z*y,"
    "[q,x], [q,y], [q,z], [iq,x], [iq,y], [iq,z], q*iq - 1, iq*q - 1"
)


def _parameter_ring():
    return make_ring(
        ZZ,
        ["x", "y", "z", "iq", "q"],
        WEIGHTED_DEG_LEFT_LEX,
        ["x", "y", "z", "iq", "q"],
        weights=[1, 1, 1, 0, 0],
    )


@lru_cache(maxsize=None)
def ex_weighted_parameters():
    ring = _parameter_ring()
    gens = polys(ring, PARAMETER_RELS)
    return ring, gens, buchberger(ring, gens, 7, test_mode=True), 7, 5


@lru_cache(maxsize=None)
def ex_weighted_parameters_specialized():
    ring = _parameter_ring()
    gens = polys(ring, PARAMETER_RELS + ", q^2 + q + 1")
    return ring, gens, buchberger(ring, gens, 7, test_mode=True), 7, 5


@lru_cache(maxsize=None)
def ex_binomial_pair():
    ring = make_ring(ZZ, "xy", DEG_RIGHT_LEX, ["x", "y"])
    gens = polys(ring, "2*x - 3*y, x*y - 3*x, y*x - x*y")
    return ring, gens, buchberger(ring, gens, 6, test_mode=True), 6, 2


EXAMPLES = [
    ("monomial_pair", ex_monomial_pair),
    ("monomial_pair_spacer", ex_monomial_pair_spacer),
    ("twin_plus", ex_twin_plus),
    ("twin_minus", ex_twin_minus),
    ("cycle_monomials", ex_cycle_monomials),
    ("cycle_monomials_swapped", ex_cycle_monomials_swapped),
    ("commutators_rational", ex_commutators_rational),
    ("commutators_integer", ex_commutators_integer),
    ("torsion_chain", ex_torsion_chain),
    ("skew_integer", ex_skew_integer),
    ("skew_rational", ex_skew_rational),
    ("weighted_parameters", ex_weighted_parameters),
    ("weighted_parameters_specialized", ex_weighted_parameters_specialized),
    ("binomial_pair", ex_binomial_pair),
]


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------

def test_monomial_pair_closes_under_mixed_products():
    t0 = time.monotonic()
    ring, _, res, _, _ = ex_monomial_pair()
    assert set(_renders(ring, res)) == {"2*x", "3*y", "x*y", "y*x"}

    # a third letter that appears in no generator still spaces out the
    # mixed products the closure has to insert
    ring3, _, res3, _, _ = ex_monomial_pair_spacer()
    got = set(_renders(ring3, res3))
    assert {"x*z*y", "y*z*x", "x*z^2*y", "y*z^2*x"} <= got
    _elapsed_under(1, t0)


def test_twin_ideals_gain_one_element_differing_in_tail_sign():
    t0 = time.monotonic()
    ringa, gensa, resa, _, _ = ex_twin_plus()
    ringb, gensb, resb, _, _ = ex_twin_minus()
    gain_a = [g for g in resa.basis if g.terms not in {f.terms for f in gensa}]
    gain_b = [g for g in resb.basis if g.terms not in {f.terms for f in gensb}]
    assert [ringa.render(g) for g in gain_a] == ["x^2*y^2 + y^4"]
    assert [ringb.render(g) for g in gain_b] == ["x^2*y^2 - y^4"]
    # the two completions generate the same ideal up to the bound
    assert gb_equivalent(resa.basis, resb.basis, 5)
    _elapsed_under(1, t0)


def test_insertions_skip_all_lengths_between_inputs_and_first_products():
    t0 = time.monotonic()
    ring, _, res, _, _ = ex_cycle_monomials()
    by_len = Counter(l for l, _ in res.insertion_log)
    assert by_len == {2: 4, 5: 4, 6: 14}
    at5 = sorted(ring.render(p) for l, p in res.insertion_log if l == 5)
    assert at5 == ["2*a*b*a*c*d", "2*a*b*d*c*d", "2*c*d*b*a*b", "2*c*d*c*a*b"]

    _, _, res2, _, _ = ex_cycle_monomials_swapped()
    lens2 = {l for l, _ in res2.insertion_log}
    assert lens2 & {3, 4} == set()
    assert min(l for l in lens2 if l > 2) == 5
    _elapsed_under(5, t0)


def test_rational_basis_and_its_integer_refinement():
    t0 = time.monotonic()
    ringq, _, resq, _, _ = ex_commutators_rational()
    wantq = polys(
        ringq,
        "4*x*y + 3*z, 3*x*z - y, 4*y*x - 3*z, 2*y^2 - 3*x^2,"
        "2*y*z + x, 3*z*x + y, 2*z*y - x, 3*z^2 - 2*x^2, 4*x^3 + x",
    )
    assert len(resq.basis) == 9
    assert gb_equivalent(resq.basis, wantq, 7)
    normal_words = sorted(ringq.render_word(w) for w in monomial_basis(resq.basis, 7))
    assert normal_words == sorted(["1", "z", "y", "x", "x^2"])

    ringz, _, resz, _, _ = ex_commutators_integer()
    wantz = polys(
        ringz,
        "y*x - 3*x*y - 3*z, z*x - 2*x*z + y, z*y - y*z - x,"
        "12*x*y + 9*z, 9*x*z - 3*y, 6*y^2 - 9*x^2, 6*y*z + 3*x,"
        "3*z^2 + 2*y^2 - 5*x^2, 6*x^3 - 3*y*z, 4*x^2*y + 3*x*z,"
        "3*x^2*z + 3*x*y + 3*z, 2*x*y^2 + 3*x^3 + 3*y*z + 3*x,"
        "3*x*y*z + 3*y^2 - 3*x^2, 2*y^3 + x^2*y + 3*x*z,"
        "2*x^4 + y^2 - x^2, 2*x^3*y + 3*y^2*z + 3*x*y + 3*z,"
        "x^2*y*z + x*y^2 - x^3, x*y^2*z - y^3 + x^2*y,"
        "x^5 - y^3*z - x*y^2 + x^3, y^3*z^2 - x^4*y,"
        "x^4*z + x^3*y + 2*y^2*z + x^2*z + 3*x*y + 3*z,"
        "x*y^3*z - y^4 + x^4 - y^2 + x^2, x*y^4*z - y^5 + x^2*y^3,"
        "x*y^5*z - y^6 + x^4*y^2 + y^4 + x^4 + 2*y^2 - 2*x^2",
    )
    assert len(resz.basis) == 24
    assert gb_equivalent(resz.basis, wantz, 7)
    _elapsed_under(30, t0)


def test_torsion_chain_basis_and_completeness_flags():
    t0 = time.monotonic()
    ring, gens, res9, _, _ = ex_torsion_chain()
    want = polys(
        ring,
        "y*x - 3*x*y - z, z*x - x*z + y, z*y - y*z - x,"
        "8*x*y + 2*z, 4*x*z - 2*y, 4*y*z + 2*x,"
        "2*x^2 - 2*y^2, 4*y^2 - 2*z^2, 2*z^3 - 2*x*y",
    )
    assert len(res9.basis) == 9
    assert gb_equivalent(res9.basis, want, 9)
    assert ring.render(res9.basis[-1]) == "2*z^3 - 2*x*y"
    assert res9.complete_flag == "conjecturally-complete"
    # the heuristic threshold is three times the longest leading word,
    # less one: stable from bound 8 = 3*3 - 1 on, truncated below
    assert buchberger(ring, gens, 8).complete_flag == "conjecturally-complete"
    assert buchberger(ring, gens, 7).complete_flag == "truncated"
    _elapsed_under(10, t0)


def test_pair_volume_contrast_between_integer_and_rational_runs():
    t0 = time.monotonic()
    ringz, _, resz, _, _ = ex_skew_integer()
    wantz = polys(
        ringz,
        "z*y - y*z + z^2, z*x + y^2, y*x - 3*x*y,"
        "2*y^3 + y^2*z - 2*y*z^2 + 2*z^3, y^2*z^2 - 4*y*z^3 + 6*z^4,"
        "y^4 + 27*x*y^2*z - 54*x*y*z^2 + 54*x*z^3,"
        "54*x*y^2*z - y^3*z - 108*x*y*z^2 + 108*x*z^3 + 62*y*z^3 - 124*z^4,"
        "14*z^5, 14*y*z^3 - 28*z^4, 2*y*z^4 - 6*z^5, 2*x*y*z^3 - 4*x*z^4,"
        "x*y^3*z, 2*z^6, 2*x*z^5",
    )
    assert len(resz.basis) == 14
    assert gb_equivalent(resz.basis, wantz, 11)
    assert {"14*z^5", "2*z^6", "2*x*z^5"} <= set(_renders(ringz, resz))

    ringq, _, resq, _, _ = ex_skew_rational()
    wantq = polys(
        ringq,
        "z*y - y*z + z^2, z*x + y^2, y*x - 3*x*y,"
        "2*y^3 + y^2*z - 2*y*z^2 + 2*z^3, y^2*z^2 - 2*z^4,"
        "x*y^2*z - 2*x*y*z^2 + 2*x*z^3, y*z^3 - 2*z^4, z^5",
    )
    assert len(resq.basis) == 8
    assert gb_equivalent(resq.basis, wantq, 11)
    assert "z^5" in set(_renders(ringq, resq))

    # same ideal, wildly different pair volume: the torsion bookkeeping
    # over the integers is orders of magnitude busier than the field run
    assert resz.stats.pairs_created >= 10_000
    assert resq.stats.pairs_created <= 100
    _elapsed_under(300, t0)


def test_weighted_parameter_algebra_gains_one_braid_consequence():
    t0 = time.monotonic()
    ring, gens, res, _, _ = ex_weighted_parameters()
    assert len(res.basis) == len(gens) + 1
    assert gb_equivalent(res.basis, gens + polys(ring, "x*y*z*x - y*x*y*z"), 7)

    # specializing the parameter to a primitive cube root of unity makes
    # the inverse expressible as a polynomial
    _, _, res_special, _, _ = ex_weighted_parameters_specialized()
    assert normal_form(poly(ring, "iq + q + 1"), res_special.basis, tail_reduce=True).is_zero
    _elapsed_under(120, t0)


def test_binomial_pair_has_exact_four_element_basis():
    t0 = time.monotonic()
    ring, _, res, _, _ = ex_binomial_pair()
    want = ["2*x - 3*y", "3*y^2 - 9*y", "x*y + x - 6*y", "y*x + x - 6*y"]
    assert sorted(_renders(ring, res)) == sorted(want)
    assert res.complete_flag == "conjecturally-complete"
    _elapsed_under(1, t0)


def test_worked_pair_polynomials_match_hand_computation():
    t0 = time.monotonic()
    ring = make_ring(ZZ, "xyz", DEG_LEFT_LEX, ["x", "y", "z"])

    f = poly(ring, "4*x*y + x")
    g = poly(ring, "6*z*y + z")
    sp, gp = spoly2(f, g, b"")
    assert sp == poly(ring, "3*x*z*y - 2*x*y*z")
    assert gp == poly(ring, "2*x*y*z*y + x*y*z - x*z*y")

    f = poly(ring, "4*x*y + y")
    g = poly(ring, "6*y*z + y")
    (pl,) = [
        pl
        for pl in overlaps(f.leading_word(), g.leading_word())
        if pl[0] == ring.parse_word("x*y*z")
    ]
    sp, gp = spoly1(f, g, *pl)
    assert sp == poly(ring, "3*y*z - 2*x*y")
    assert gp == poly(ring, "2*x*y*z - y*z + x*y")
    _elapsed_under(1, t0)


def test_completion_invariants_on_examples_and_random_ideals():
    t0 = time.monotonic()

    def audit(label, ring, res, bound, nletters, rng):
        # every in-bound S-/G-polynomial of the finished basis reduces to zero
        assert verify_strong_basis(ring, res.basis, bound) == [], label
        # pairs the criteria discarded were genuinely redundant: each one
        # lm-reduces to zero modulo the basis, decided by the verifier's
        # memoised word forms, whose verdict is lm-reduction's (see
        # verify_strong_basis)
        reducers = [_reducer(ring.domain, g) for g in res.basis]
        reduces_to_zero = _WordForms(ring, reducers).reduces_to_zero
        for p in discarded_pair_polys(res, nletters):
            if not p.is_zero:
                assert reduces_to_zero(p), label
        # gcd cofactors always satisfy the unimodularity identity
        for af, ag, bf, bg in res.cofactor_log:
            assert af * bg + ag * bf == 1, label
        # reducing a reduced polynomial is a no-op
        for _ in range(3):
            probes = random_polys(ring, rng, ngens=1, maxterms=3, maxlen=3, maxcoeff=6)
            if probes:
                once = normal_form(probes[0], res.basis, tail_reduce=True)
                twice = normal_form(once, res.basis, tail_reduce=True)
                assert ring.render(twice) == ring.render(once), label

    for idx, (label, build) in enumerate(EXAMPLES):
        ring, _, res, bound, nletters = build()
        audit(label, ring, res, bound, nletters, random.Random(77_000 + idx))

    rng = random.Random(20260815)
    runs = 0
    for i in range(200):
        nletters = rng.randint(1, 3)
        names = "abc"[:nletters]
        kind = DEG_LEFT_LEX if i % 2 == 0 else DEG_RIGHT_LEX
        ring = make_ring(ZZ, names, kind, list(names))
        gens = random_polys(
            ring, rng, ngens=rng.randint(1, 3), maxterms=3, maxlen=3, maxcoeff=6
        )
        if not gens:
            continue
        bound = rng.randint(3, 6)
        res = buchberger(ring, gens, bound, test_mode=True)
        audit(f"random[{i}]", ring, res, bound, nletters, rng)
        runs += 1
    assert runs >= 190  # zero-generator draws are rare
    _elapsed_under(600, t0)


# the examples run with tail reduction off; every other one runs with it on
_TAIL_OFF = {"twin_plus", "twin_minus"}


def test_family_cursor_answers_as_the_dequeued_key_set():
    """At every disjoint premise of the chain criterion the family cursor
    gives the verdict of the set of dequeued second-type keys, on the
    acceptance examples and on random ideals over Z in two orderings;
    the runs equal the plain engine's, and ``processed`` holds only
    first-type keys."""
    t0 = time.monotonic()
    checks = 0

    def run(ring, gens, bound, tail):
        oracle = SetKeyedEngine(ring, bound, True, tail, True)
        res = oracle.run(gens)
        assert all(key[0] == "S" for key in oracle.processed)
        return oracle.checks, res

    for label, build in EXAMPLES:
        ring, gens, res, bound, _ = build()
        n, got = run(ring, gens, bound, label not in _TAIL_OFF)
        assert got.stats == res.stats, label
        assert [g.terms for g in got.basis] == [g.terms for g in res.basis], label
        checks += n
    on_examples = checks
    assert on_examples > 0

    rng = random.Random(20261018)
    for i in range(80):
        nletters = rng.randint(1, 3)
        names = "abc"[:nletters]
        kind = DEG_LEFT_LEX if i % 2 == 0 else DEG_RIGHT_LEX
        ring = make_ring(ZZ, names, kind, list(names))
        gens = random_polys(ring, rng, ngens=rng.randint(1, 3), maxterms=3, maxlen=3, maxcoeff=6)
        if not gens:
            continue
        bound = rng.randint(3, 7)
        n, got = run(ring, gens, bound, i % 4 < 2)
        plain = buchberger(ring, gens, bound, tail_reduce=i % 4 < 2, test_mode=True)
        assert got.stats == plain.stats, i
        assert [g.terms for g in got.basis] == [g.terms for g in plain.basis], i
        assert len(got.discard_log) == len(plain.discard_log), i
        checks += n
    assert checks > on_examples
    _elapsed_under(120, t0)


def test_field_premises_intersect_and_aligned_swaps_keep_their_leading_term():
    """The invariants behind two branches the engine does not have
    (``InvariantEngine``): over Q, Z/5 and Z/7 every premise of the chain
    criterion spans intersecting occurrences, on the skew, torsion and
    commutator ideals and on random ideals; over Z every aligned swap's
    G-polynomial keeps its leading term, on the acceptance examples and on
    random ideals with constants.  The runs equal the plain engine's."""
    t0 = time.monotonic()

    def run(ring, gens, bound, tail=True):
        checked = InvariantEngine(ring, bound, True, tail, False)
        got = checked.run(gens)
        plain = buchberger(ring, gens, bound, tail_reduce=tail)
        assert got.stats == plain.stats
        assert [g.terms for g in got.basis] == [g.terms for g in plain.basis]
        return checked

    premises = swaps = 0
    fields = (QQ, residue_domain(5), residue_domain(7))
    orders = (DEG_LEFT_LEX, DEG_RIGHT_LEX)
    for domain, kind, ranked in itertools.product(fields, orders, ("xyz", "zyx", "yxz")):
        for text in (SKEW_GENS, TORSION_GENS, COMMUTATOR_GENS):
            ring = make_ring(domain, "xyz", kind, list(ranked))
            premises += run(ring, polys(ring, text), 9).premises
    rng = random.Random(20261021)
    for domain in (QQ, residue_domain(5), residue_domain(7), ZZ):
        for i in range(60):
            nletters = rng.randint(1, 3)
            names = "abc"[:nletters]
            kind = DEG_LEFT_LEX if i % 2 == 0 else DEG_RIGHT_LEX
            ring = make_ring(domain, names, kind, list(names))
            gens = random_polys(
                ring, rng, ngens=rng.randint(1, 3), maxterms=3, maxlen=3, maxcoeff=6
            )
            if domain is ZZ and i % 3 == 0:
                gens.append(ring.poly([(b"", ring.domain.coerce(rng.choice([2, 3, 4, 6])))]))
            if gens:
                checked = run(ring, gens, rng.randint(3, 6), i % 4 < 2)
                premises += checked.premises
                swaps += checked.swaps
    for label, build in EXAMPLES:
        ring, gens, _, bound, _ = build()
        if not ring.domain.is_field:
            swaps += run(ring, gens, bound, label not in _TAIL_OFF).swaps
    assert premises > 1000 and swaps > 50, (premises, swaps)
    _elapsed_under(120, t0)


def test_word_ranges_decide_as_one_queue_entry_per_pair():
    """Second-type word ranges, with their bulk chain cuts and the
    closed-form product criterion, give the run of one queue entry per
    pair (``EagerEngine``): the same ``Stats``, bases, discard and
    cofactor logs, on the acceptance examples and on random ideals over
    Z in two orderings, some with a constant generator.  Each is also run
    outside test mode, where no audit checks the chain cuts word by word,
    and gives the eager engine's ``Stats`` and basis there too."""
    t0 = time.monotonic()

    def compare(label, ring, gens, bound, tail, lazy):
        eager = EagerEngine(ring, bound, True, tail, True).run(gens)
        assert lazy.stats == eager.stats, label
        assert [g.terms for g in lazy.basis] == [g.terms for g in eager.basis], label
        assert lazy.discard_log == eager.discard_log, label
        assert lazy.cofactor_log == eager.cofactor_log, label
        plain = buchberger(ring, gens, bound, tail_reduce=tail)
        eager = EagerEngine(ring, bound, True, tail, False).run(gens)
        assert plain.discard_log is None and eager.discard_log is None, label
        assert plain.stats == eager.stats == lazy.stats, label
        assert [g.terms for g in plain.basis] == [g.terms for g in eager.basis], label
        return lazy.stats.pairs_discarded_chain

    cut = 0
    for label, build in EXAMPLES:
        ring, gens, res, bound, _ = build()
        cut += compare(label, ring, gens, bound, label not in _TAIL_OFF, res)

    ring = make_ring(ZZ, "xyz", DEG_LEFT_LEX, ["z", "y", "x"])
    gens = polys(ring, "-4*z*z, -6, 2*z*z")
    cut += compare("constants", ring, gens, 4, True, buchberger(ring, gens, 4, test_mode=True))

    rng = random.Random(20261019)
    runs = constants = 0
    for i in range(100):
        nletters = rng.randint(1, 3)
        names = "abc"[:nletters]
        kind = DEG_LEFT_LEX if i % 2 == 0 else DEG_RIGHT_LEX
        ring = make_ring(ZZ, names, kind, list(names))
        gens = random_polys(ring, rng, ngens=rng.randint(1, 3), maxterms=3, maxlen=3, maxcoeff=6)
        if i % 3 == 0:
            gens.append(ring.poly([(b"", ring.domain.coerce(rng.choice([2, 3, 4, 6, -6])))]))
        if not gens:
            continue
        constants += any(not g.leading_word() for g in gens)
        bound = rng.randint(3, 7)
        tail = i % 4 < 2
        lazy = buchberger(ring, gens, bound, tail_reduce=tail, test_mode=True)
        cut += compare(f"random[{i}]", ring, gens, bound, tail, lazy)
        runs += 1
    assert runs >= 90 and constants >= 30
    assert cut > 0
    _elapsed_under(120, t0)


def test_dequeue_order_is_pinned():
    """The sequence of dequeued pairs and chain cuts, on the acceptance
    examples over Z and on seeded random ideals over Z and Q, hashed and
    pinned: a change to the pair queue must dequeue the same pairs, in
    the same order, with the same decisions.  Bases and ``Stats`` can
    stay equal under a different order, so the other gates do not pin
    it."""
    t0 = time.monotonic()
    digest = hashlib.sha256()
    runs = 0

    def record(ring, gens, bound, tail):
        nonlocal runs
        eng = CallRecordingEngine(ring, bound, True, tail, False)
        eng.run(gens)
        digest.update(repr(eng.calls).encode())
        runs += 1

    for label, build in EXAMPLES:
        ring, gens, _, bound, _ = build()
        if ring.domain == ZZ:
            record(ring, gens, bound, label not in _TAIL_OFF)

    rng = random.Random(20261021)
    for domain in (ZZ, QQ):
        for i in range(30):
            nletters = rng.randint(1, 3)
            names = "abc"[:nletters]
            kind = DEG_LEFT_LEX if i % 2 == 0 else DEG_RIGHT_LEX
            ring = make_ring(domain, names, kind, list(names))
            gens = random_polys(
                ring, rng, ngens=rng.randint(1, 3), maxterms=3, maxlen=3, maxcoeff=6
            )
            if gens:
                record(ring, gens, rng.randint(3, 6), i % 4 < 2)
    assert runs >= 60
    assert digest.hexdigest() == "d464ac230375e8827dd0d7465cdab69d1fcd5e041fb3c91963885466fbed74ac"
    _elapsed_under(120, t0)


def test_live_reducers_equal_a_fresh_preparation():
    """Before every reduction the engine's active records are the
    ``_reducer`` records of its live elements, built fresh
    (``FreshReducersEngine``), on the acceptance examples and on random
    ideals over Z, Q and Z/7 in two orderings; the runs equal the plain
    engine's."""
    t0 = time.monotonic()

    def run(ring, gens, bound, tail):
        checked = FreshReducersEngine(ring, bound, True, tail, True)
        res = checked.run(gens)
        return checked.checks, res

    checks = 0
    for label, build in EXAMPLES:
        ring, gens, res, bound, _ = build()
        n, got = run(ring, gens, bound, label not in _TAIL_OFF)
        assert got.stats == res.stats, label
        assert [g.terms for g in got.basis] == [g.terms for g in res.basis], label
        checks += n
    on_examples = checks
    assert on_examples > 0

    rng = random.Random(20261020)
    for domain in (ZZ, QQ, residue_domain(7)):
        for i in range(40):
            nletters = rng.randint(1, 3)
            names = "abc"[:nletters]
            kind = DEG_LEFT_LEX if i % 2 == 0 else DEG_RIGHT_LEX
            ring = make_ring(domain, names, kind, list(names))
            gens = random_polys(
                ring, rng, ngens=rng.randint(1, 3), maxterms=3, maxlen=3, maxcoeff=6
            )
            if not gens:
                continue
            bound = rng.randint(3, 6)
            tail = i % 4 < 2
            n, got = run(ring, gens, bound, tail)
            plain = buchberger(ring, gens, bound, tail_reduce=tail, test_mode=True)
            assert got.stats == plain.stats, (domain, i)
            assert [g.terms for g in got.basis] == [g.terms for g in plain.basis], (domain, i)
            checks += n
    assert checks > on_examples
    _elapsed_under(120, t0)


def test_chain_third_elements_equal_a_fresh_filter():
    """At every lookup the chain criterion's cached third elements are a
    fresh, in-order filter of the active set (``FreshThirdsEngine``), on
    the integer acceptance examples, on the skew, torsion and commutator
    ideals over Q and Z/7 in two orderings, and on random ideals over Z, Q and Z/7 in two
    orderings; the runs, in test mode, equal the plain engine's.  The
    leading-word lengths cached with them are checked too."""
    t0 = time.monotonic()

    def run(ring, gens, bound, tail):
        checked = FreshThirdsEngine(ring, bound, True, tail, True)
        got = checked.run(gens)
        plain = buchberger(ring, gens, bound, tail_reduce=tail, test_mode=True)
        assert got.stats == plain.stats
        assert [g.terms for g in got.basis] == [g.terms for g in plain.basis]
        assert got.discard_log == plain.discard_log
        assert got.insertion_log == plain.insertion_log
        return checked.checks

    checks = 0
    for label, build in EXAMPLES:
        ring, gens, _, bound, _ = build()
        if ring.domain == ZZ:
            checks += run(ring, gens, bound, label not in _TAIL_OFF)
    on_integers = checks
    for domain, kind in itertools.product((QQ, residue_domain(7)), (DEG_LEFT_LEX, DEG_RIGHT_LEX)):
        ring = make_ring(domain, "xyz", kind, ["x", "y", "z"])
        for text in (SKEW_GENS, TORSION_GENS, COMMUTATOR_GENS):
            checks += run(ring, polys(ring, text), 9, True)
    on_fields = checks - on_integers

    rng = random.Random(20261023)
    for domain in (ZZ, QQ, residue_domain(7)):
        for i in range(40):
            nletters = rng.randint(1, 3)
            names = "abc"[:nletters]
            kind = DEG_LEFT_LEX if i % 2 == 0 else DEG_RIGHT_LEX
            ring = make_ring(domain, names, kind, list(names))
            gens = random_polys(
                ring, rng, ngens=rng.randint(1, 3), maxterms=3, maxlen=3, maxcoeff=6
            )
            if gens:
                checks += run(ring, gens, rng.randint(3, 6), i % 4 < 2)
    assert on_integers > 10_000 and on_fields > 400, (on_integers, on_fields)
    assert checks > on_integers + on_fields, checks
    _elapsed_under(120, t0)


def test_skew_integer_basis_is_conjecturally_complete_at_bound_17():
    # the longest basis word has length 6, so 3*6 - 1 = 17 is the first
    # bound that reaches the completeness threshold; the basis is the one
    # found at d=14.  The gate is the flag, so no wall-clock ceiling.
    ring = make_ring(ZZ, "xyz", DEG_RIGHT_LEX, ["x", "y", "z"])
    gens = polys(ring, SKEW_GENS)
    res14 = buchberger(ring, gens, 14)
    res17 = buchberger(ring, gens, 17)
    assert res14.complete_flag == "truncated"
    assert res17.complete_flag == "conjecturally-complete"
    assert max(g.max_word_length() for g in res17.basis) == 6
    assert _renders(ring, res17) == _renders(ring, res14)


def test_composite_modulus_runs_cohere_and_capture_membership():
    t0 = time.monotonic()
    for m in (6, 10, 15):
        rng = random.Random(9_000 + m)
        for i in range(50):
            nletters = rng.randint(1, 2)
            names = "ab"[:nletters]
            ring = make_ring(residue_domain(m), names, DEG_LEFT_LEX, list(names))
            gens = random_polys(
                ring, rng, ngens=rng.randint(1, 2), maxterms=2, maxlen=3, maxcoeff=m - 1
            )
            if not gens:
                continue
            res = gb_zmod(ring, gens, 5)
            # the combined basis projects onto each per-prime basis
            assert projection_coherent(ring, gens, res.basis, 5), (m, i)

            # exhaustive membership: every combination that places one
            # bimonomial of total length <= 2 on each generator, with the
            # coefficient running over the whole residue range, reduces
            # to zero against the combined basis (each placed bimonomial
            # and the prepared reducers are built once per basis)
            words = [
                bytes(w)
                for k in range(3)
                for w in itertools.product(range(nletters), repeat=k)
            ]
            pads = [(l, r) for l in words for r in words if len(l) + len(r) <= 2]
            reducers = [_reducer(ring.domain, g) for g in res.basis]
            per_gen = [
                [None]
                + [
                    ring.scaled_translate(ring.domain.coerce(c), l, r, g)
                    for (l, r) in pads
                    for c in range(1, m)
                ]
                for g in gens
            ]
            for combo in itertools.product(*per_gen):
                placed = [q for q in combo if q is not None]
                if not placed:
                    continue
                s = placed[0]
                for q in placed[1:]:
                    s = ring.add(s, q)
                if not s.is_zero:
                    nf = _reduce(ring, dict(s.terms), reducers, False, None)
                    assert nf.is_zero, (m, i, ring.render(s), ring.render(nf))

    ring4 = make_ring(residue_domain(4), "x", DEG_LEFT_LEX, ["x"])
    with pytest.raises(ValueError, match="unsupported"):
        gb_zmod(ring4, polys(ring4, "2*x"), 3)
    _elapsed_under(300, t0)
