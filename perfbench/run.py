"""Benchmark of ncgb: end-to-end timings and a per-layer trace.

Run from the root of a checkout::

    python3 perfbench/run.py --workload zz-complete --seed 1 --seconds 22 --trace 0

It imports ``ncgb`` from the checkout's ``src/`` and runs one workload in
this process (see ``workloads.py`` and ``BENCHMARK.json`` for the list).
Set-up (import, parsing, ring and basis construction) is repeated
``SETUP_REPEATS`` times and reported as its median.  Then the workload's
calls run in passes, a new pass starting while ``--seconds`` have not gone
by, and ``wall_s`` is the sum over calls of each call's median time.  Every
result is checked against the digests in ``reference.json``.

Both times are calibrated, because the speed of a shared machine swings by
tens of percent within a second.  While the workload runs, a timer signal
every ``TICK_S`` times a small fixed piece of reference work.  Each set-up,
and each stretch of about ``CHUNK_S`` of calls, is scaled by
``REFERENCE_S`` over the mean reference time measured within and at both
ends of it, after taking out the handler's own time: the reported seconds
are those of a machine on which the reference work takes ``REFERENCE_S``.

With ``--trace 1`` the run instead times one untraced set-up and pass, then
one set-up and pass under :class:`tracer.Tracer`, and reports per-layer self
times (uncalibrated) and counts.  Spans are written to ``.bench_trace/`` in
the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracer import STAT_FIELDS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
CHUNK_S = 0.25
TICK_S = 0.05
REFERENCE_ITERS = 2000
REFERENCE_S = 0.00125
SUBMODULES = ("cli", "coeffring", "engine", "freealg", "modlift", "overlap")

# functions whose self time and call count are reported by the traced run
TIMED = (
    "cli.parse_job",
    "cli.render_basis",
    "engine.register",
    "engine.materialize",
    "engine.product_ok",
    "engine.chain_discard",
    "engine.build_pair_poly",
    "engine.normal_form",
    "engine.insert",
    "engine.interreduce",
    "engine.verify_strong_basis",
    "overlap.spoly1",
    "overlap.spoly2",
    "freealg.scaled_translate",
    "freealg.add",
    "modlift.gb_mod_prime",
    "modlift.combine",
)


def import_ncgb():
    """A fresh import of ``ncgb`` and its modules from ``SRC``."""
    for name in [m for m in sys.modules if m == "ncgb" or m.startswith("ncgb.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    nc = importlib.import_module("ncgb")
    for sub in SUBMODULES:
        importlib.import_module(f"ncgb.{sub}")
    if Path(nc.__file__).resolve().parent != SRC / "ncgb":
        raise ImportError(f"ncgb imported from {nc.__file__}, not from {SRC}")
    return nc


def set_up(workload: str, size: str, seed: int):
    t0 = time.perf_counter()
    calls = workloads.PREPARE[workload](import_ncgb(), size, seed)
    return time.perf_counter() - t0, calls


def _reference_work() -> None:
    """Fixed interpreter work of the kind ncgb's inner loops do: bytes
    concatenation, dict updates keyed by words, integer arithmetic."""
    coeffs: dict[bytes, int] = {}
    acc = 1
    for i in range(REFERENCE_ITERS):
        w = b"xyz"[i % 3:] + bytes((i & 7,))
        acc = (acc * 31 + i) % 1000003
        coeffs[w] = coeffs.get(w, 0) + acc


class Calibration:
    """Measures the machine's speed while calls run.

    While active, a timer signal every ``TICK_S`` runs the reference work
    and records its duration.  The time the handler takes is ``stolen``
    from whatever call it interrupted, and :meth:`scale` turns durations
    measured since its previous use into seconds on a machine where the
    reference work takes ``REFERENCE_S``.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.stolen = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _reference_work()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.stolen += time.perf_counter() - t0

    def __enter__(self) -> "Calibration":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, durations: list[float]) -> list[float]:
        """Calibrate durations measured since the previous call, by the
        reference work timed at either end of that stretch and within it."""
        self._tick(None, None)
        factor = REFERENCE_S / statistics.fmean(self.samples)
        self.samples = self.samples[-1:]
        return [d * factor for d in durations]


class Checker:
    """Compares results with the reference digests and counts failures."""

    def __init__(self, reference: dict):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.max_coeff_bits = 0

    def run(self, call):
        """Run one call, timed: ``(duration, result)``, or ``(None, None)``
        when it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = call.run()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None, None
        return time.perf_counter() - t0, result

    def check(self, call, result) -> None:
        got = call.check(result)
        if got is None or self.reference.get(call.ref) != workloads.digest(got[0]):
            print(f"output check failed: {call.id}", file=sys.stderr)
            self.failed += 1
            return
        self.max_coeff_bits = max(self.max_coeff_bits, got[1])


def timed_pass(calls, checker: Checker, times: dict, cal: Calibration) -> None:
    """Run every call once and append its calibrated duration to ``times``,
    calibrating after each stretch of about ``CHUNK_S``."""
    chunk: list[tuple[str, float]] = []
    start = time.perf_counter()
    for i, call in enumerate(calls):
        stolen = cal.stolen
        dt, result = checker.run(call)
        if dt is not None:
            chunk.append((call.id, dt - (cal.stolen - stolen)))
            checker.check(call, result)
        if chunk and (time.perf_counter() - start >= CHUNK_S or i == len(calls) - 1):
            for (cid, _), t in zip(chunk, cal.scale([dt for _, dt in chunk])):
                times.setdefault(cid, []).append(t)
            chunk = []
            start = time.perf_counter()


def measure(args, reference) -> tuple[dict, Checker]:
    setups = []
    checker = Checker(reference)
    times: dict[str, list[float]] = {}
    with Calibration() as cal:
        cal.scale([])
        for _ in range(SETUP_REPEATS):
            stolen = cal.stolen
            dt, calls = set_up(args.workload, args.size, args.seed)
            setups.extend(cal.scale([dt - (cal.stolen - stolen)]))
        cal.scale([])
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline:
            timed_pass(calls, checker, times, cal)
    if len(times) < len(calls):
        wall = 0.0  # some call never succeeded; the run is already failed
    else:
        wall = sum(statistics.median(ts) for ts in times.values())
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, checker


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile_ms(values: list[float], q: int) -> float:
    if len(values) < 2:
        return 1e3 * values[0] if values else 0.0
    return 1e3 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def source_lines() -> dict:
    lines = {p.stem: len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "ncgb").glob("*.py")}
    out = {f"src.lines.{m}": (lines.get(m, 0), "lines") for m in ("__init__",) + SUBMODULES}
    out["src.lines.total"] = (sum(lines.values()), "lines")
    return out


def trace(args, reference) -> tuple[dict, Checker]:
    prepare = workloads.PREPARE[args.workload]
    nc = import_ncgb()
    checker = Checker(reference)

    latencies = []
    t0 = time.perf_counter()
    for call in prepare(nc, args.size, args.seed):
        dt, result = checker.run(call)
        if dt is not None:
            latencies.append(dt)
            checker.check(call, result)
    untraced = time.perf_counter() - t0

    modules = {"ncgb": nc, **{sub: getattr(nc, sub) for sub in SUBMODULES}}
    tr = Tracer(modules)
    results = []
    tr.install()
    try:
        t0 = time.perf_counter()
        calls = prepare(nc, args.size, args.seed)
        for call in calls:
            results.append((call, checker.run(call)[1]))
        traced = time.perf_counter() - t0
    finally:
        tr.remove()
    for call, result in results:
        if result is not None:
            checker.check(call, result)
    tr.write_spans(ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.jsonl")

    layers = tr.layer_self()
    # the self times of all layers must add up to the traced wall time
    if abs(sum(layers.values()) - tr.wall) > 1e-6 * max(tr.wall, 1.0):
        print("layer self times do not add up to the traced wall time", file=sys.stderr)
        checker.failed += 1

    c = tr.counts
    m = {f"{layer}.s": (s, "s") for layer, s in layers.items()}
    for key in TIMED:
        m[f"{key}.s"] = (tr.self_s(key), "s")
        m[f"{key}.calls"] = (tr.calls(key), "count")
    m["overlap.overlaps.calls"] = (tr.calls("overlap.overlaps"), "count")
    m["engine.chain_discard.hit_ratio"] = (_ratio(c["chain_discard.hits"], tr.calls("engine.chain_discard")), "ratio")
    for name in STAT_FIELDS:
        m[f"engine.{name}"] = (c[name], "count")
    m["engine.peak_queue_size"] = (tr.peak_queue_size, "count")
    m["engine.pairs.reduce_ratio"] = (_ratio(tr.calls("engine.build_pair_poly"), c["pairs_created"]), "ratio")
    m["engine.normal_form.steps"] = (c["normal_form.steps"], "count")
    m["engine.normal_form.steps_per_call"] = (_ratio(c["normal_form.steps"], tr.calls("engine.normal_form")), "count")
    m["coeffring.max_coeff_bits"] = (checker.max_coeff_bits, "bits")
    m["modlift.combine.candidates"] = (c["combine.candidates"], "count")
    m["modlift.combine.kept_ratio"] = (_ratio(c["combine.kept"], c["combine.candidates"]), "ratio")
    m["trace.wall_s"] = (tr.wall, "s")
    m["trace.overhead_ratio"] = (_ratio(traced, untraced), "ratio")
    m["calls.p50_ms"] = (_percentile_ms(latencies, 50), "ms")
    m["calls.p99_ms"] = (_percentile_ms(latencies, 99), "ms")
    m["failed_ratio"] = (_ratio(checker.failed, checker.attempted), "ratio")
    m.update(source_lines())
    return m, checker


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.PREPARE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="toy inputs, for the self-test")
    ap.add_argument("--reference", type=Path, default=HERE / "reference.json",
                    help="reference digests (the self-test passes a corrupted copy)")
    args = ap.parse_args(argv)

    reference = json.loads(args.reference.read_text(encoding="utf-8"))[args.workload]
    metrics, checker = (trace if args.trace else measure)(args, reference)
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
