"""Quick self-test of the benchmark, at toy size.

Run from the root of a checkout::

    python3 perfbench/selftest.py

For every workload it runs ``run.py`` untraced and traced in fresh
processes and checks that the result line has the contract's keys, that
every metric in ``BENCHMARK.json`` is printed with its unit, and that the
outputs match the reference.  It then checks that corrupted reference
digests are counted as failures, and that a directory holding only the
benchmark (no ``src/``) makes ``run.py`` fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "toy", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
    assert isinstance(out["attempted"], int) and out["attempted"] >= 1
    assert isinstance(out["failed"], int)
    return out


def check_metrics(out: dict, specs: list[dict], positive: bool) -> None:
    metrics = out["metrics"]
    assert set(metrics) == {s["name"] for s in specs}, set(metrics) ^ {s["name"] for s in specs}
    for s in specs:
        m = metrics[s["name"]]
        assert m["unit"] == s["unit"], (s["name"], m)
        assert isinstance(m["value"], (int, float)), (s["name"], m)
        assert not positive or m["value"] > 0, (s["name"], m)


def main() -> None:
    names = [w["name"] for w in SPEC["workloads"]]
    for workload in names:
        for trace, specs in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            out = result_of(bench(workload, trace))
            assert out["correct"] and out["failed"] == 0, (workload, trace, out)
            check_metrics(out, specs, positive=trace == 0)
            if trace:
                assert out["metrics"]["failed_ratio"]["value"] == 0
        print(f"ok   {workload}")

    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        table = reference[names[0]]
        for key in table:
            table[key] = "0" * len(table[key])
        bad = Path(tmp) / "reference.json"
        bad.write_text(json.dumps(reference), encoding="utf-8")
        for trace in (0, 1):
            out = result_of(bench(names[0], trace, "--reference", str(bad)))
            assert not out["correct"] and out["failed"] > 0, out
            if trace:
                assert out["metrics"]["failed_ratio"]["value"] > 0, out
    print("ok   corrupted reference digests are counted as failed")

    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(names[0], 0, cwd=Path(tmp))
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok   without src/ the benchmark fails and prints no result")


if __name__ == "__main__":
    main()
