"""Two SHA-256 fingerprints of the completion, to show what a change to the
engine leaves alone.

Run from the root of a checkout (pytest does not collect this file)::

    python3 tests/fingerprint.py

It prints two digests:

- ``results``, over the basis, flag, ``Stats`` and insertion log of each of
  the 1,215 ``perfbench/jobgen`` jobs (the fixed jobs and the pool) run as
  ``ncgb`` runs it, and, where the ring is not composite, over the same
  and the discard and cofactor logs of a test-mode run; then over skew
  over Z at bound 17 and torsion over Z at bound 15, run plain;
- ``calls``, over the sequence of ``_Engine._process`` and ``_Engine._cut``
  calls of every test-mode run and of the two deep runs, as
  ``conftest.CallRecordingEngine`` records them.

A change that must not alter what the completion computes keeps
``results``; ``calls`` moves when pairs are dequeued or cut in another
order or grouping.  To fingerprint another checkout, copy this file and
``conftest.py`` into its ``tests/``.  It takes about 4 s on a 2-vCPU Xeon
virtual machine with Python 3.11.7.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]

import jobgen  # noqa: E402
from conftest import CallRecordingEngine  # noqa: E402
from ncgb import DomainKind, Polynomial  # noqa: E402
from ncgb.cli import parse_job  # noqa: E402
from ncgb.engine import buchberger  # noqa: E402
from ncgb.modlift import gb_zmod  # noqa: E402

DEEP = [
    jobgen.job_text("Z", "<x,y,z> degrevlexR(x>y>z)", 17, jobgen.SKEW),
    jobgen.job_text("Z", "<x,y,z> degrevlexR(x>y>z)", 15, jobgen.TORSION),
]


def _canon(x):
    """``x`` with every polynomial replaced by its terms, for ``repr``."""
    if isinstance(x, Polynomial):
        return x.terms
    if isinstance(x, (tuple, list)):
        return tuple(_canon(y) for y in x)
    return x


def _outcome(res) -> tuple:
    return (
        [g.terms for g in res.basis], res.complete_flag, res.stats.as_dict(),
        _canon(res.insertion_log), _canon(res.discard_log), _canon(res.cofactor_log),
    )


def _recorded(job, test_mode: bool):
    opts = job.options
    eng = CallRecordingEngine(job.ring, job.bound, opts["reduce"], opts["tail_reduce"], test_mode)
    try:
        return _outcome(eng.run(job.generators)), eng.calls
    except ValueError as exc:
        return str(exc), eng.calls


def _plain(job):
    dom = job.ring.domain
    complete = gb_zmod if dom.kind == DomainKind.RESIDUE else buchberger
    opts = job.options
    try:
        res = complete(job.ring, job.generators, job.bound,
                       reduce=opts["reduce"], tail_reduce=opts["tail_reduce"])
    except ValueError as exc:
        return str(exc)
    return _outcome(res)


def fingerprint() -> tuple[str, str, int]:
    results, calls = hashlib.sha256(), hashlib.sha256()
    runs = 0
    for text in jobgen.FIXED_JOBS + jobgen.pool():
        job = parse_job(text)
        results.update(repr(_plain(job)).encode())
        runs += 1
        dom = job.ring.domain
        if dom.kind != DomainKind.RESIDUE or dom.is_field:
            outcome, seq = _recorded(job, True)
            results.update(repr(outcome).encode())
            calls.update(repr(seq).encode())
            runs += 1
    for text in DEEP:
        outcome, seq = _recorded(parse_job(text), False)
        results.update(repr(outcome).encode())
        calls.update(repr(seq).encode())
        runs += 1
    return results.hexdigest(), calls.hexdigest(), runs


if __name__ == "__main__":
    res, seq, runs = fingerprint()
    print(f"runs    {runs}")
    print(f"results {res}")
    print(f"calls   {seq}")
