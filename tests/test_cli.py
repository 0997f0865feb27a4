"""Job-file parsing and the command-line front end."""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from ncgb import ZZ, DEG_LEFT_LEX
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
    assert job.ring.weighted_degree(job.ring.parse_word("q^7")) == 0


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
        ("ring Z <x> deglex(x) bound 0;\nideal x;", "line 2 col 1: bound must be at least 1"),
        ("ring Z <x> deglex(x) bound 3;\nideal x @;", "line 2 col 9: unexpected character '@'"),
        ("ring Z <x,y> wdeglex(1) (x>y) bound 3;\nideal x;", "line 1 col 14: one weight per variable required"),
        ("ring Zmod 1 <x> deglex(x) bound 3;\nideal x;", "line 1 col 11: modulus must be at least 2"),
        ("ring Zmod 0 <x> deglex(x) bound 3;\nideal x;", "line 1 col 11: modulus must be at least 2"),
        ("ring Z <x> deglex(x) bound 3;\nideal x, " + "(" * 3000 + "x" + ")" * 3000 + ";",
         "line 2 col 7: expression nested too deeply"),
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


def test_cli_rational_basis_prints_integrally(tmp_path, capsys):
    code, out, _ = run_cli(
        tmp_path, capsys, "ring Q <x,y> deglex(x>y) bound 4;\nideal 2*x - 3*y;"
    )
    assert code == 0
    assert out.splitlines() == ["2*x - 3*y", "flag: conjecturally-complete"]


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
    ],
)
def test_cli_bad_modulus_and_deep_nesting_exit_1(tmp_path, capsys, jobtext):
    code, out, err = run_cli(tmp_path, capsys, jobtext)
    assert code == 1 and out == ""
    assert err.startswith("error: line ") and len(err.splitlines()) == 1


def test_cli_missing_file_exits_1(capsys):
    code = main(["/nonexistent/job.txt"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(INTRO))
    code = main(["-"])
    out = capsys.readouterr().out
    assert code == 0 and out.splitlines()[-1] == "flag: conjecturally-complete"


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
