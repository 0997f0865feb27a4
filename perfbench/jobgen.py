"""Job texts for the ``cli-sweep`` workload.

The sweep feeds ``ncgb.cli.main`` nothing but job-file text.  It is made of
the fourteen acceptance-example ideals, the README job, and a seeded draw
of small random jobs.  The draw picks from a fixed pool, so that the exact
JSON output of every job that any seed can draw has a recorded digest.
"""

from __future__ import annotations

import random

SKEW = "z*y - y*z + z^2, z*x + y^2, y*x - 3*x*y"
TORSION = "y*x - 3*x*y - z, z*x - x*z + y, z*y - y*z - x"
COMMUTATOR = "y*x - 3*x*y - 3*z, z*x - 2*x*z + y, z*y - y*z - x"
PARAMETERS = (
    "x^2 + (1 - q)*x - q, y^2 + (1 - q)*y - q, z^2 + (1 - q)*z - q, "
    "z*x - x*z, y*x*y - x*y*x, z*y*z - y*z*y, "
    "[q,x], [q,y], [q,z], [iq,x], [iq,y], [iq,z], q*iq - 1, iq*q - 1"
)
_PARAM_RING = "<x,y,z,iq,q> wdeglex(1,1,1,0,0)(x>y>z>iq>q)"


def job_text(domain: str, ring: str, bound: int, ideal: str, options=()) -> str:
    lines = [f"ring {domain} {ring} bound {bound};", f"ideal {ideal};"]
    lines += [f"option {opt};" for opt in options]
    return "\n".join(lines) + "\n"


# The acceptance battery's examples (tests/test_acceptance.py), as jobs with
# the same ring, ordering, bound and options.
FIXED_JOBS = [
    job_text("Z", "<x,y> deglex(x>y)", 3, "2*x, 3*y"),
    job_text("Z", "<x,y,z> deglex(x>y>z)", 5, "2*x, 3*y"),
    job_text("Z", "<x,y> degrevlexR(x>y)", 5, "2*y^2, 3*x^2 + y^2, y*x - x*y", ["notailreduce"]),
    job_text("Z", "<x,y> degrevlexR(x>y)", 5, "2*y^2, 3*x^2 - y^2, y*x - x*y", ["notailreduce"]),
    job_text("Z", "<a,b,c,d> deglex(a>b>c>d)", 6, "4*a*b, 6*c*d, b*c, d*a"),
    job_text("Z", "<a,b,c,d> deglex(a>b>c>d)", 6, "2*a*b, b*c, 3*c*d, d*a"),
    job_text("Q", "<x,y,z> deglex(z>y>x)", 7, COMMUTATOR),
    job_text("Z", "<x,y,z> deglex(z>y>x)", 7, COMMUTATOR),
    job_text("Z", "<x,y,z> degrevlexR(x>y>z)", 9, TORSION),
    job_text("Z", "<x,y,z> degrevlexR(x>y>z)", 11, SKEW),
    job_text("Q", "<x,y,z> degrevlexR(x>y>z)", 11, SKEW),
    job_text("Z", _PARAM_RING, 7, PARAMETERS),
    job_text("Z", _PARAM_RING, 7, PARAMETERS + ", q^2 + q + 1"),
    job_text("Z", "<x,y> degrevlexR(x>y)", 6, "2*x - 3*y, x*y - 3*x, y*x - x*y"),
    # the README's example job
    job_text("Z", "<x,y> deglex(x>y)", 5, "2*x, 3*y", ["stats"]),
]

POOL_SEED = 20211116
POOL_SIZE = 1200
SWEEP_DRAW = 985  # with the fixed jobs, 1,000 jobs per sweep

_LETTERS = "xyz"
_DOMAINS = ("Z", "Q", "Zmod 30", "Zmod 210")
_ORDERINGS = ("deglex", "degrevlexR")


def _random_poly(rng: random.Random, letters: str, maxlen: int) -> str:
    terms = []
    for _ in range(rng.randint(1, 3)):
        c = rng.choice([-1, 1]) * rng.randint(1, 6)
        word = [rng.choice(letters) for _ in range(rng.randint(0, maxlen))]
        terms.append("*".join([str(c)] + word))
    return " + ".join(terms).replace("+ -", "- ")


def random_job(rng: random.Random) -> str:
    """One small job: 1-3 letters, deglex or degrevlexR, Z, Q, Zmod 30 or
    Zmod 210, bound 3-6, one to three generators of at most three terms."""
    letters = _LETTERS[: rng.randint(1, 3)]
    ranked = list(letters)
    rng.shuffle(ranked)
    ring = f"<{','.join(letters)}> {rng.choice(_ORDERINGS)}({'>'.join(ranked)})"
    bound = rng.randint(3, 6)
    maxlen = min(bound, 3 if len(letters) < 3 else 2)
    gens = ", ".join(_random_poly(rng, letters, maxlen) for _ in range(rng.randint(1, 3)))
    return job_text(rng.choice(_DOMAINS), ring, bound, gens)


def pool() -> list[str]:
    """The fixed pool the seeded draw picks from."""
    rng = random.Random(POOL_SEED)
    return [random_job(rng) for _ in range(POOL_SIZE)]


def sweep(seed: int, draw: int = SWEEP_DRAW) -> list[str]:
    """The jobs of one sweep: the fixed jobs and ``draw`` pool jobs chosen
    by ``seed``, in a seeded order."""
    rng = random.Random(seed)
    jobs = FIXED_JOBS + rng.sample(pool(), draw)
    rng.shuffle(jobs)
    return jobs
