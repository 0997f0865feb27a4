"""Job-file parsing and the command-line front end."""

import ast
import contextlib
import io
import json
import random
import re
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from ncgb import ZZ, DEG_LEFT_LEX, buchberger
from ncgb.cli import _OPTION_NAMES, Job, JobError, main, parse_job, parse_poly_list
from ncgb.coeffring import residue_domain

from conftest import make_ring


INTRO = """\
# two monomial generators with non-unit coefficients
ring Z <x,y> deglex(x>y) bound 5;
ideal 2*x, 3*y;
"""


# -- job parsing --------------------------------------------------------------


def test_parse_job_intro():
    job = parse_job(INTRO)
    assert job.bound == 5
    assert job.ring.domain is ZZ
    assert [job.ring.render(g) for g in job.generators] == ["2*x", "3*y"]
    assert job.options == {"reduce": True, "tail_reduce": True, "stats": False}


def test_parse_job_zmod_and_options():
    job = parse_job(
        "ring Zmod 6 <a,b> degrevlexR(a>b) bound 4;"
        "ideal 2*a + 3*b;"
        "option noreduce; option notailreduce; option stats;"
    )
    assert job.ring.domain.modulus == 6
    assert job.options == {"reduce": False, "tail_reduce": False, "stats": True}


def test_parse_job_weighted_ring():
    job = parse_job(
        "ring Z <x,y,q> wdeglex(1,1,0)(x>y>q) bound 3;\nideal x*q - q*x;"
    )
    assert job.ring.alphabet.weights == (1, 1, 0)
    # weight-zero letters never outgrow weighted ones
    assert job.ring.word_key(job.ring.parse_word("q^7"))[0] == 0


def test_parse_job_rank_order_differs_from_declaration():
    job = parse_job("ring Z <x,y> deglex(y>x) bound 2;\nideal x + y;")
    assert job.ring.render(job.generators[0]) == "y + x"


def test_parse_job_multiple_ideal_statements():
    job = parse_job(
        "ring Z <x> deglex(x) bound 3;\nideal x;\nideal x^2, 2*x + 1;"
    )
    assert [job.ring.render(g) for g in job.generators] == ["x", "x^2", "2*x + 1"]


@pytest.mark.parametrize(
    "src, msg",
    [
        ("ring Z <x,y> deglex(x>y) bound 3;\nideal 2*z;", "line 2 col 9: unknown variable 'z'"),
        ("ring F <x> deglex(x) bound 3;\nideal x;", "line 1 col 6: domain must be Z, Q or Zmod"),
        ("ring Z <x,x> deglex(x>x) bound 3;", "line 1 col 14: duplicate variable name"),
        ("ring Z <x,y> deglex(x) bound 3;", "line 1 col 21: ordering must rank each declared variable exactly once"),
        ("ring Z <x> deglex(x);", "line 1 col 21: bound missing"),
        ("ring Z <x> deglex(x) bound 3;\noption frobnicate;", "line 2 col 8: unknown option 'frobnicate'"),
        ("ring Z <x> deglex(x) bound 3;\nideal x^-2;", "line 2 col 9: negative exponent"),
        ("ring Z <x> deglex(x) bound 0;\nideal x;", "line 1 col 28: bound must be at least 1"),
        ("ring Z <x> deglex(x) bound 3;\nideal x @;", "line 2 col 9: unexpected character '@'"),
        ("ring Z <x,y> wdeglex(1) (x>y) bound 3;\nideal x;", "line 1 col 14: one weight per variable required"),
        ("ring Zmod 1 <x> deglex(x) bound 3;\nideal x;", "line 1 col 11: modulus must be at least 2"),
        ("ring Zmod 0 <x> deglex(x) bound 3;\nideal x;", "line 1 col 11: modulus must be at least 2"),
        ("ring Z <x> deglex(x) bound 3;\nideal x, " + "(" * 3000 + "x" + ")" * 3000 + ";",
         "line 2 col 7: expression nested too deeply"),
        # numbers are ASCII digits: str.isdigit accepts "²" and "٣", int() only the latter
        ("ring Z <x> deglex(x) bound ²;", "line 1 col 28: unexpected character '²'"),
        ("ring Z <x> deglex(x) bound 3;\nideal ٣*x;", "line 2 col 7: unexpected character '٣'"),
        # past the interpreter's limit on the digits int() converts
        ("ring Z <x> deglex(x) bound 3;\nideal " + "7" * 5000 + "*x;",
         "line 2 col 7: number too long (5000 digits)"),
        # the 256th name fails before the trailing comma's syntax error
        ("ring Z <" + ",".join(f"v{i}" for i in range(300)) + ",> deglex(v0) bound 3;",
         "line 1 col 1174: at most 255 variables supported"),
        # input that ends inside a comment ends where the comment starts
        ("ring Z <x> deglex(x) bound 3;\nideal x # c", "line 2 col 9: expected ';'"),
        ("ring Z <x> deglex(x) bound 3;\nideal x # c\n", "line 3 col 1: expected ';'"),
    ],
)
def test_parse_job_errors(src, msg):
    with pytest.raises(JobError) as exc:
        parse_job(src)
    assert str(exc.value) == msg


_JOB_TOKENS = [
    "ring", "ideal", "option", "bound", "Z", "Q", "Zmod", "deglex", "degrevlexR",
    "wdeglex", "reduce", "stats", "x", "y", "q",
    *";,<>()*^+-[]", "#", "\n", "@",
]
# job prefixes, so that the draws also reach the later parts of the grammar
_HEADERS = [
    "",
    "ring Zmod",
    "ring Q <x,y,q> wdeglex(",
    "ring Z <x,y> deglex(x>y) bound 4;\nideal",
    "ring Zmod 6 <x,y> degrevlexR(y>x) bound 3;",
]
# numbers stay small: a power of a sum such as (x + y)^e has 2^e terms
_job_texts = st.tuples(
    st.sampled_from(_HEADERS),
    st.lists(st.sampled_from(_JOB_TOKENS) | st.integers(0, 12).map(str), max_size=30),
).map(lambda parts: " ".join([parts[0], *parts[1]]))


@given(_job_texts)
@settings(max_examples=300, deadline=None)
def test_parse_job_returns_job_or_raises_job_error(text):
    try:
        job = parse_job(text)
    except JobError:
        return
    assert isinstance(job, Job)


# Unicode spaces, non-ASCII letters and digits, a combining mark and comments
_UNICODE_PIECES = [
    "\t", "\r", "\x0b", "\u2028", "é", "²", "٣", "Ⅻ", "\u0301", "e\u0301",
    "x²", "_٣", "xé", "# é ² note", "#",
]


def test_parse_job_errors_point_at_their_position():
    # every error points inside the text or just past a line's end, and an
    # unexpected character's position is that character's, with columns
    # counted in code points along the "\n"-separated lines
    rng = random.Random(20261022)
    pieces = [*_JOB_TOKENS, *_UNICODE_PIECES, *map(str, range(13))]
    unexpected = 0
    for _ in range(4000):
        parts = [rng.choice(_HEADERS), *rng.choices(pieces, k=rng.randint(0, 20))]
        text = "".join(part + rng.choice(["", " ", " ", "\n"]) for part in parts)
        try:
            parse_job(text)
        except JobError as exc:
            lines = text.split("\n")
            assert 1 <= exc.line <= len(lines) and 1 <= exc.col <= len(lines[exc.line - 1]) + 1
            assert str(exc).startswith(f"line {exc.line} col {exc.col}: ")
            m = re.fullmatch(r"line \d+ col \d+: unexpected character (.+)", str(exc), re.DOTALL)
            if m:
                assert lines[exc.line - 1][exc.col - 1] == ast.literal_eval(m[1]), text
                unexpected += 1
    assert unexpected > 500


@st.composite
def _cli_job_tokens(draw):
    """The tokens of a job the grammar accepts, with bounds <= 4 and
    exponents <= 12; it may still fail later (bound too small, prime
    power modulus)."""
    names = draw(st.sampled_from([["x"], ["x", "y"], ["x", "y", "q"]]))
    domain = draw(st.sampled_from(["Z", "Q", "Zmod 2", "Zmod 4", "Zmod 6", "Zmod 7", "Zmod 12"]))
    ordering = draw(st.sampled_from(["deglex", "degrevlexR"]))
    ranked = draw(st.permutations(names))
    atom = st.sampled_from(names) | st.integers(0, 12).map(str)
    factor = atom | st.tuples(atom, st.integers(0, 12)).map(lambda t: f"{t[0]} ^ {t[1]}")
    factor |= st.tuples(atom, atom).map(lambda t: f"[ {t[0]} , {t[1]} ]")
    term = st.lists(factor, min_size=1, max_size=3).map(" * ".join)
    sum_ = st.lists(term, min_size=1, max_size=3).map(" - ".join)
    factor |= st.tuples(sum_, st.integers(0, 3)).map(lambda t: f"( {t[0]} ) ^ {t[1]}")
    term = st.lists(factor, min_size=1, max_size=2).map(" * ".join)
    poly = st.lists(term, min_size=1, max_size=3).map(" + ".join)
    gens = draw(st.lists(poly, min_size=1, max_size=3))
    options = draw(st.lists(st.sampled_from(sorted(_OPTION_NAMES)), max_size=2))
    text = (
        f"ring {domain} < {' , '.join(names)} > {ordering} ( {' > '.join(ranked)} )"
        f" bound {draw(st.integers(1, 4))} ;\nideal {' , '.join(gens)} ;"
        + "".join(f"\noption {opt} ;" for opt in options)
    )
    return text.split(" ")


@st.composite
def _cli_job_texts(draw):
    tokens = draw(_cli_job_tokens())
    # splice in a few tokens, so that the error paths are reached too
    for _ in range(draw(st.integers(0, 2))):
        pos = draw(st.integers(0, len(tokens)))
        tokens.insert(pos, draw(st.sampled_from(_JOB_TOKENS) | st.integers(0, 12).map(str)))
    return " ".join(tokens)


_CLI_FLAGS = [[], ["--output", "json"], ["--stats"], ["--monomials", "3"], ["--reduce"]]


@given(_cli_job_texts(), st.sampled_from(_CLI_FLAGS))
@settings(max_examples=200, deadline=None)
def test_cli_main_exits_0_1_or_2_on_any_job_text(text, flags):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["-", *flags])
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2), text
    assert (code == 0) == (err.getvalue() == ""), text


def test_parse_large_exponent_by_squaring():
    r = make_ring(ZZ, "x", DEG_LEFT_LEX, ["x"])
    (p,) = parse_poly_list("x^200000", r)
    assert p.terms == ((b"\0" * 200000, 1),)
    (q,) = parse_poly_list("(x + 1)^5", r)
    assert q == parse_poly_list("(x + 1)*(x + 1)*(x + 1)*(x + 1)*(x + 1)", r)[0]
    # in a job, powers within the bound and powers of constants are built too
    job = parse_job("ring Z <x,y> deglex(x>y) bound 3;\nideal (x + y)^3 - x^3, 2^70*y^0;")
    assert len(job.generators[0].terms) == 7
    assert job.ring.render(job.generators[1]) == str(2**70)


@pytest.mark.parametrize(
    "ideal, msg",
    [
        ("x^2000000000", "line 2 col 9: bound too small for a power of length 2000000000"),
        ("(x + y)^40", "line 2 col 15: bound too small for a power of length 40"),
        ("y, 2*(x*y)^2", "line 2 col 18: bound too small for a power of length 4"),
    ],
)
def test_parse_job_rejects_a_power_past_the_bound_before_building_it(ideal, msg):
    t0 = time.monotonic()
    with pytest.raises(JobError) as exc:
        parse_job(f"ring Z <x,y> deglex(x>y) bound 3;\nideal {ideal};")
    assert str(exc.value) == msg
    assert time.monotonic() - t0 < 1


_SUMS = "*".join(["(x + y)"] * 30)
# 30 nested commutators with x + y: 2^31 - 2 terms if built
_NEST = "[" * 30 + "x" + ", x + y]" * 30


@pytest.mark.parametrize(
    "ring, ideal, msg",
    [
        ("Z", "3^2000000000*x", "line 2 col 9: number too long (a power of over 4300 digits)"),
        ("Q", "x - 7^6000", "line 2 col 13: number too long (a power of over 4300 digits)"),
        ("Z", "10^4300", "line 2 col 10: number too long (a power of over 4300 digits)"),
        ("Q", "x*10^3000*10^3000", "line 2 col 17: number too long (a product of over 4300 digits)"),
        ("Z", _SUMS, "line 2 col 31: bound too small for a product of length 4"),
        ("Q", _SUMS, "line 2 col 31: bound too small for a product of length 4"),
        ("Zmod 7", _SUMS, "line 2 col 31: bound too small for a product of length 4"),
        # over a composite modulus the product is checked once built
        ("Zmod 6", _SUMS, "line 2 col 31: bound too small for a product of length 4"),
        ("Z", _NEST, "line 2 col 34: bound too small for a commutator of length 4"),
    ],
)
def test_parse_job_rejects_an_explosion_before_it_grows(ring, ideal, msg):
    t0 = time.monotonic()
    with pytest.raises(JobError) as exc:
        parse_job(f"ring {ring} <x,y> deglex(x>y) bound 3;\nideal {ideal};")
    assert str(exc.value) == msg
    assert time.monotonic() - t0 < 1


def test_parse_job_keeps_what_the_bound_admits():
    # a constant power within the digit limit, and one over Z/m, where it
    # is reduced as it is built
    job = parse_job("ring Z <x> deglex(x) bound 1;\nideal 10^4299*x, (-1)^2000000000*x;")
    assert len(str(job.generators[0].leading_coeff())) == 4300
    assert job.ring.render(job.generators[1]) == "x"
    job = parse_job("ring Zmod 7 <x> deglex(x) bound 1;\nideal 3^2000000000*x;")
    assert job.ring.render(job.generators[0]) == "2*x"
    # zero divisors cancel the product's words: 2*x * 3*x is 0 mod 6
    job = parse_job("ring Zmod 6 <x> deglex(x) bound 1;\nideal (2*x)*(3*x) + x;")
    assert [job.ring.render(g) for g in job.generators] == ["x"]
    # a product with a zero factor, and a commutator that cancels
    job = parse_job("ring Z <x,y> deglex(x>y) bound 2;\nideal x*y*0*x + y, [x*x, x*x] + x;")
    assert [job.ring.render(g) for g in job.generators] == ["y", "x"]


def test_parse_job_large_prime_modulus_is_a_field():
    job = parse_job("ring Zmod 2305843009213693951 <x> deglex(x) bound 3;\nideal 3*x - 1;")
    assert job.ring.domain.is_field
    assert [job.ring.render(g) for g in job.generators] == ["3*x + 2305843009213693950"]


# -- polynomial expression lists ----------------------------------------------


def test_parse_poly_list_commutator_and_parens():
    r = make_ring(ZZ, "qx", DEG_LEFT_LEX, ["q", "x"])
    ps = parse_poly_list("[q,x], (1 - q)*x, x^3;", r)
    assert r.render(ps[0]) == "q*x - x*q"
    assert r.render(ps[1]) == "-q*x + x"
    assert r.render(ps[2]) == "x^3"


def test_parse_poly_list_rejects_trailing_garbage():
    r = make_ring(ZZ, "x", DEG_LEFT_LEX, ["x"])
    with pytest.raises(JobError, match="unexpected trailing input"):
        parse_poly_list("x; x", r)


def test_parse_poly_list_signs():
    r = make_ring(ZZ, "x", DEG_LEFT_LEX, ["x"])
    (p,) = parse_poly_list("- - 2*x - 3*x", r)
    assert r.render(p) == "-x"


# -- end-to-end runs -----------------------------------------------------------


def run_cli(tmp_path, capsys, jobtext, *flags):
    path = tmp_path / "job.txt"
    path.write_text(jobtext)
    code = main([str(path), *flags])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_text_output(tmp_path, capsys):
    code, out, err = run_cli(tmp_path, capsys, INTRO)
    assert code == 0 and err == ""
    assert out.splitlines() == ["3*y", "2*x", "y*x", "x*y", "flag: conjecturally-complete"]


def test_cli_json_output(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, capsys, INTRO, "--output", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["basis"] == ["3*y", "2*x", "y*x", "x*y"]
    assert doc["flag"] == "conjecturally-complete"
    assert doc["stats"]["basis_insertions"] == 4
    assert set(doc["stats"]) == {
        "pairs_created",
        "pairs_discarded_product",
        "pairs_discarded_chain",
        "pairs_discarded_coeff",
        "reductions_to_zero",
        "basis_insertions",
        "peak_queue_size",
    }


def test_cli_monomials_and_stats(tmp_path, capsys):
    code, out, _ = run_cli(tmp_path, capsys, INTRO, "--monomials", "2", "--stats")
    assert code == 0
    lines = out.splitlines()
    assert "monomials: 1" in lines
    assert any(line.startswith("pairs_created=") for line in lines)


@pytest.mark.parametrize("n", ["-1", "6", "12"])
def test_cli_rejects_monomials_outside_the_bound(tmp_path, capsys, n):
    # N past the bound would list words the basis does not certify, at a
    # cost that triples with each step; it is refused before the run
    job = "ring Z <x,y,z> deglex(x>y>z) bound 5;\nideal x*y*z - y;"
    t0 = time.monotonic()
    code, out, err = run_cli(tmp_path, capsys, job, "--monomials", n)
    assert time.monotonic() - t0 < 1
    assert (code, out) == (1, "")
    assert err == "error: --monomials must lie in 0..5, the bound\n"


@pytest.mark.parametrize("n, words", [("0", "1"), ("1", "1 z y")])
def test_cli_monomials_at_the_ends_of_the_range(tmp_path, capsys, n, words):
    code, out, err = run_cli(tmp_path, capsys, "ring Z <x,y,z> deglex(x>y>z) bound 1;\nideal 2*x;", "--monomials", n)
    assert code == 0 and err == ""
    assert "monomials: " + words in out.splitlines()


def test_cli_equiv_verdicts(tmp_path, capsys):
    target = tmp_path / "target.txt"
    target.write_text("3*y, 2*x, x*y, y*x;")
    code, out, _ = run_cli(tmp_path, capsys, INTRO, "--equiv", str(target))
    assert code == 0 and "equivalent: true" in out.splitlines()

    target.write_text("6*y, 2*x")
    code, out, _ = run_cli(tmp_path, capsys, INTRO, "--equiv", str(target))
    assert code == 0 and "equivalent: false" in out.splitlines()

    # json mode reports the verdict as a boolean field
    target.write_text("3*y, 2*x, x*y, y*x")
    code, out, _ = run_cli(tmp_path, capsys, INTRO, "--equiv", str(target), "--output", "json")
    assert json.loads(out)["equivalent"] is True


@pytest.mark.parametrize(
    "jobtext, target",
    [
        (INTRO, "3*y, 2*x, x*y, y*x"),
        ("ring Q <x,y> deglex(x>y) bound 4;\nideal 2*x - 3*y, x*y*x;", "2*x - 3*y, y^3"),
        ("ring Zmod 30 <x,y> degrevlexR(y>x) bound 4;\nideal 6*x*y + 10*y, 15*y*x;", "x"),
    ],
    ids=["intro", "Q", "Zmod30"],
)
def test_cli_text_lines_are_the_json_document(tmp_path, capsys, jobtext, target):
    # the text output prints the facts of the JSON document, line by line:
    # basis, flag, monomials, verdict, then the counters
    equiv = tmp_path / "target.txt"
    equiv.write_text(target)
    flags = ("--stats", "--monomials", "2", "--equiv", str(equiv))
    code, text, err = run_cli(tmp_path, capsys, jobtext, *flags)
    assert code == 0 and err == ""
    code, out, err = run_cli(tmp_path, capsys, jobtext, *flags, "--output", "json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert list(doc) == ["basis", "flag", "stats", "monomials", "equivalent"]
    assert text.splitlines() == [
        *doc["basis"],
        f"flag: {doc['flag']}",
        "monomials: " + " ".join(doc["monomials"]),
        f"equivalent: {'true' if doc['equivalent'] else 'false'}",
        *(f"{key}={val}" for key, val in doc["stats"].items()),
    ]


def test_cli_rational_basis_prints_integrally(tmp_path, capsys):
    code, out, _ = run_cli(
        tmp_path, capsys, "ring Q <x,y> deglex(x>y) bound 4;\nideal 2*x - 3*y;"
    )
    assert code == 0
    assert out.splitlines() == ["2*x - 3*y", "flag: conjecturally-complete"]


BIG_COEFFICIENT = """\
ring Z <x,y,z> deglex(x>y>z) bound 5;
ideal -6*y^2 + x - 6, y^3 - 4*y + 6, 2*y*z*x + 3*z*x - y;
option notailreduce;
"""


def _int_of(digits):
    # int() refuses more than 4,300 digits too: read them in chunks
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_cli_prints_coefficients_past_the_digit_limit(tmp_path, capsys):
    job = parse_job(BIG_COEFFICIENT)
    basis = buchberger(job.ring, job.generators, job.bound, tail_reduce=False).basis
    # the basis holds an integer of more than 4,300 digits (2^14285 > 10^4300)
    assert max(abs(c).bit_length() for p in basis for _, c in p.terms) > 14285
    want = [[abs(c) for w, c in p.terms if not (w and abs(c) == 1)] for p in basis]
    for flags in ((), ("--output", "json")):
        code, out, err = run_cli(tmp_path, capsys, BIG_COEFFICIENT, *flags)
        assert code == 0 and err == ""
        lines = json.loads(out)["basis"] if flags else out.splitlines()[:-1]
        got = [[_int_of(n) for n in re.findall(r"(?<![\^\w])\d+", line)] for line in lines]
        assert got == want


def test_cli_rejects_a_product_of_constants_past_the_digit_limit(tmp_path, capsys):
    # 100 factors in 838 bytes: the first product is checked before it is
    # built, as a power of a constant is
    job = "ring Z <x> deglex(x) bound 3;\nideal " + "10^4000*" * 100 + "x;"
    code, out, err = run_cli(tmp_path, capsys, job)
    assert code == 1 and out == ""
    assert err == "error: line 2 col 15: number too long (a product of over 4300 digits)\n"


@pytest.mark.parametrize("ring", ["Z", "Q"])
def test_cli_rejects_a_power_of_a_polynomial_past_the_digit_limit(tmp_path, capsys, ring):
    # (x + 9)^4300 has coefficients of about 4,300 digits: its base's
    # |coefficient| sum 10 bounds them by 10^4300, checked before building
    t0 = time.monotonic()
    job = f"ring {ring} <x> deglex(x) bound 5000;\nideal (x + 9)^4300;"
    code, out, err = run_cli(tmp_path, capsys, job)
    assert code == 1 and out == ""
    assert err == "error: line 2 col 15: number too long (a power of over 4300 digits)\n"
    assert time.monotonic() - t0 < 1


def test_cli_keeps_products_within_the_digit_limit(tmp_path, capsys):
    # the check bounds what the parser builds, not what the run makes
    code, _, err = run_cli(tmp_path, capsys, BIG_COEFFICIENT)
    assert code == 0 and err == ""
    for ideal in ("10^4299*x", "10^2000*10^2299*x", "2*10^2000*5*10^2298*x"):
        code, out, err = run_cli(tmp_path, capsys, f"ring Z <x> deglex(x) bound 3;\nideal {ideal};")
        assert code == 0 and err == ""
        assert out.splitlines()[0] == "1" + "0" * 4299 + "*x"


def test_cli_prime_power_modulus_exits_2(tmp_path, capsys):
    code, out, err = run_cli(
        tmp_path, capsys, "ring Zmod 4 <x> deglex(x) bound 3;\nideal 2*x;"
    )
    assert code == 2
    assert "prime-power moduli unsupported: 2^2 divides 4" in err


def test_cli_bound_too_small_exits_1(tmp_path, capsys):
    code, _, err = run_cli(
        tmp_path, capsys, "ring Z <x> deglex(x) bound 1;\nideal x^3;"
    )
    assert code == 1 and "bound too small" in err


def test_cli_syntax_error_exits_1(tmp_path, capsys):
    code, _, err = run_cli(tmp_path, capsys, "ring Z <x> deglex(x) bund 3;")
    assert code == 1 and "error: line 1" in err


@pytest.mark.parametrize(
    "jobtext",
    [
        "ring Zmod 1 <x> deglex(x) bound 3;\nideal x;",
        "ring Z <x> deglex(x) bound 3;\nideal " + "(" * 3000 + "x" + ")" * 3000 + ";",
        # 26 digits: at or above the bound below which primality is exact
        "ring Zmod 12345678901234567890123457 <x> deglex(x) bound 3;\nideal x;",
        # a literal longer than int() converts
        "ring Z <x> deglex(x) bound 3;\nideal " + "7" * 5000 + "*x;",
        # a letter is one byte of a word, so 255 variables at most
        "ring Z <{0}> deglex({1}) bound 3;\nideal v0;".format(
            ",".join(f"v{i}" for i in range(256)), ">".join(f"v{i}" for i in range(256))
        ),
    ],
)
def test_cli_bad_modulus_and_deep_nesting_exit_1(tmp_path, capsys, jobtext):
    code, out, err = run_cli(tmp_path, capsys, jobtext)
    assert code == 1 and out == ""
    assert err.startswith("error: line ") and len(err.splitlines()) == 1


def test_cli_equiv_file_is_parsed_under_the_bound(tmp_path, capsys, monkeypatch):
    target = tmp_path / "target.txt"
    target.write_text("2*x, x^2000000000")
    t0 = time.monotonic()
    code, out, err = run_cli(tmp_path, capsys, INTRO, "--equiv", str(target))
    assert time.monotonic() - t0 < 1
    assert code == 1 and out == ""
    assert err == "error: line 1 col 8: bound too small for a power of length 2000000000\n"
    # and before the completion: a malformed target costs no run
    def no_run(*args, **kwargs):
        raise AssertionError("the completion ran before --equiv was parsed")

    monkeypatch.setattr("ncgb.cli.buchberger", no_run)
    assert run_cli(tmp_path, capsys, INTRO, "--equiv", str(target)) == (code, out, err)


def test_cli_missing_file_exits_1(tmp_path, monkeypatch, capsys):
    code = main(["/nonexistent/job.txt"])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    # only the job file reads '-' as stdin: '--equiv -' names a file
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.stdin", io.StringIO("2*x, 3*y"))
    code, out, err = run_cli(tmp_path, capsys, INTRO, "--equiv", "-")
    assert (code, out) == (1, "")
    assert err == "error: [Errno 2] No such file or directory: '-'\n"
    # bytes that are not UTF-8, in a job file's comment or in an --equiv file
    job = tmp_path / "latin1.txt"
    job.write_bytes(b"# caf\xff\n" + INTRO.encode())
    (tmp_path / "target.txt").write_bytes(b"2*x, 3*y \xff")
    for argv in ([str(job)], [str(tmp_path / "job.txt"), "--equiv", "target.txt"]):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: 'utf-8' codec can't decode byte 0xff in position ")
        assert err.count("\n") == 1


def test_cli_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(INTRO))
    code = main(["-"])
    out = capsys.readouterr().out
    assert code == 0 and out.splitlines()[-1] == "flag: conjecturally-complete"


def test_cli_main_repeated_in_one_process_carries_no_flag_over(tmp_path, capsys):
    # the parser is built once per process; each call parses afresh, so
    # the same flags print the same bytes, and no flag outlives its call
    from ncgb.cli import _parser

    flag_sets = [("--stats",), ("--monomials", "1"), ("--output", "json"), ()]
    seen = {}
    for flags in flag_sets * 3:
        code, out, err = run_cli(tmp_path, capsys, INTRO, *flags)
        assert code == 0 and err == ""
        assert seen.setdefault(flags, out) == out, flags
        counters = [line for line in out.splitlines() if line.startswith("pairs_created=")]
        assert bool(counters) == (flags == ("--stats",)), flags
        assert ("monomials: " in out) == (flags == ("--monomials", "1")), flags
        assert out.startswith("{") == (flags == ("--output", "json")), flags
    assert seen[()] == "\n".join(
        ["3*y", "2*x", "y*x", "x*y", "flag: conjecturally-complete", ""]
    )
    assert _parser.cache_info().misses == 1


def test_cli_flag_overrides_job_option(tmp_path, capsys):
    # noreduce leaves tails as the completion produced them; --reduce
    # forces the final minimisation pass back on
    job = "ring Z <x,y> deglex(x>y) bound 3;\nideal 4*x + y, 6*x;\noption noreduce;"
    _, out_raw, _ = run_cli(tmp_path, capsys, job)
    _, out_min, _ = run_cli(tmp_path, capsys, job, "--reduce")
    assert "x*y + y*x - y^2" in out_raw.splitlines()
    assert "x*y + y^2" in out_min.splitlines()


# -- rendering round-trips -------------------------------------------------------


render_words = st.lists(st.integers(0, 2), min_size=0, max_size=4).map(bytes)
render_terms = st.lists(
    st.tuples(render_words, st.integers(-9, 9)), min_size=0, max_size=5
)


@given(render_terms)
@settings(max_examples=80, deadline=None)
def test_render_parse_fixpoint_integers(terms):
    r = make_ring(ZZ, "xyz", DEG_LEFT_LEX, ["x", "y", "z"])
    p = r.poly(terms)
    (back,) = parse_poly_list(r.render(p), r)
    assert back == p


@given(render_terms)
@settings(max_examples=60, deadline=None)
def test_render_parse_fixpoint_residues(terms):
    r = make_ring(residue_domain(6), "xyz", DEG_LEFT_LEX, ["x", "y", "z"])
    p = r.poly(terms)
    (back,) = parse_poly_list(r.render(p), r)
    assert back == p
