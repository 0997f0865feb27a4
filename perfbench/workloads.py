"""The benchmark's workloads.

Each workload turns the imported ``ncgb`` package, a size (``full`` for
measurement, ``toy`` for the self-test) and a seed into a list of
:class:`Call`.  Preparing the list is the workload's set-up: it parses the
job texts into rings and generators and, for the verify workloads, computes
the basis to verify.  A call's ``run`` is the timed call into a public entry
point, looked up on its module at call time so that a tracer's wrappers are
seen.  Its ``check`` turns the result into the text whose digest must match
the reference, or returns None when the result is wrong on its face.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
from dataclasses import dataclass
from typing import Callable

import jobgen

_DEGREVLEX = "<x,y,z> degrevlexR(x>y>z)"
_DEGLEX = "<x,y,z> deglex(z>y>x)"


@dataclass
class Call:
    id: str  # unique within the workload's list
    ref: str  # reference-digest key
    run: Callable[[], object]
    check: Callable[[object], "tuple[str, int] | None"]  # (text, coefficient bits)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _coeff_bits(basis) -> int:
    """Largest coefficient size, numerator plus denominator bits."""
    bits = 0
    for p in basis:
        for _, c in p.terms:
            den = c.denominator
            bits = max(bits, abs(c.numerator).bit_length() + (den.bit_length() if den != 1 else 0))
    return bits


def _basis_text(nc, ring, res) -> tuple[str, int]:
    lines = nc.cli.render_basis(ring, res.basis) + [f"flag: {res.complete_flag}"]
    return "\n".join(lines), _coeff_bits(res.basis)


def _completion_calls(nc, entry: str, cases) -> list[Call]:
    calls = []
    for cid, text in cases:
        job = nc.cli.parse_job(text)

        def run(job=job):
            return getattr(nc, entry)(job.ring, job.generators, job.bound)

        calls.append(Call(cid, cid, run, lambda res, ring=job.ring: _basis_text(nc, ring, res)))
    return calls


def zz_complete(nc, size: str, seed: int) -> list[Call]:
    d_skew, d_torsion = (13, 11) if size == "full" else (9, 8)
    return _completion_calls(nc, "buchberger", [
        (f"skew-Z-d{d_skew}", jobgen.job_text("Z", _DEGREVLEX, d_skew, jobgen.SKEW)),
        (f"torsion-Z-d{d_torsion}", jobgen.job_text("Z", _DEGREVLEX, d_torsion, jobgen.TORSION)),
    ])


def zmod_crt(nc, size: str, seed: int) -> list[Call]:
    d = 8 if size == "full" else 5
    return _completion_calls(nc, "gb_zmod", [
        (f"torsion-Zmod2310-d{d}", jobgen.job_text("Zmod 2310", _DEGREVLEX, d, jobgen.TORSION)),
        (f"commutator-Zmod210-d{d}", jobgen.job_text("Zmod 210", _DEGLEX, d, jobgen.COMMUTATOR)),
    ])


def _verify(domain: str, nc, size: str) -> list[Call]:
    d = 9 if size == "full" else 6
    cid = f"skew-{domain}-d{d}"
    job = nc.cli.parse_job(jobgen.job_text(domain, _DEGREVLEX, d, jobgen.SKEW))
    basis_res = nc.buchberger(job.ring, job.generators, d)

    def run():
        return nc.verify_strong_basis(job.ring, basis_res.basis, d)

    def check(failures):
        if failures != []:
            return None
        text, bits = _basis_text(nc, job.ring, basis_res)
        return text + "\nfailures: []", bits

    return [Call(cid, cid, run, check)]


def verify_qq(nc, size: str, seed: int) -> list[Call]:
    return _verify("Q", nc, size)


def verify_zz(nc, size: str, seed: int) -> list[Call]:
    return _verify("Z", nc, size)


_COEFF = re.compile(r"(?<![\^\w])\d+")


def run_cli_json(nc, text: str) -> tuple[int, str]:
    """``ncgb - --output json`` in-process, with ``text`` as standard input."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            rc = nc.cli.main(["-", "--output", "json"])
    finally:
        sys.stdin = saved
    return rc, out.getvalue()


def _cli_check(result) -> "tuple[str, int] | None":
    rc, out = result
    if rc != 0:
        return None
    lines = json.loads(out)["basis"]
    bits = max((int(n).bit_length() for line in lines for n in _COEFF.findall(line)), default=0)
    return out, bits


def cli_calls(nc, texts) -> list[Call]:
    calls = []
    for i, text in enumerate(texts):
        nc.cli.parse_job(text)  # set-up: every job parses and builds its ring
        calls.append(Call(f"job{i}", digest(text), lambda text=text: run_cli_json(nc, text), _cli_check))
    return calls


def cli_sweep(nc, size: str, seed: int) -> list[Call]:
    return cli_calls(nc, jobgen.sweep(seed, jobgen.SWEEP_DRAW if size == "full" else 25))


PREPARE = {
    "zz-complete": zz_complete,
    "verify-qq": verify_qq,
    "verify-zz": verify_zz,
    "zmod-crt": zmod_crt,
    "cli-sweep": cli_sweep,
}
