"""The benchmark's outputs must keep their recorded digests.

``perfbench/reference.json`` holds the digest of every output the benchmark
checks.  This runs the calls that are cheap enough for the suite (every CLI
job the sweep can draw, every workload's toy calls and the full-size
``zmod-crt`` calls) and compares each digest, so that a change to a basis, a
flag or the CLI's bytes fails here and not only in a benchmark run.  The
benchmark's modules are read, never written.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import ncgb
import ncgb.cli

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module  # workloads imports jobgen by this name
    spec.loader.exec_module(module)
    return module


jobgen = _load("jobgen")
workloads = _load("workloads")
REFERENCE = json.loads((_PERFBENCH / "reference.json").read_text(encoding="utf-8"))


def _calls(workload, size):
    if workload == "cli-sweep":
        return workloads.cli_calls(ncgb, jobgen.FIXED_JOBS + jobgen.pool())
    return workloads.PREPARE[workload](ncgb, size, 0)


@pytest.mark.parametrize(
    "workload, size",
    [("cli-sweep", "all"), ("zz-complete", "toy"), ("verify-qq", "toy"),
     ("verify-zz", "toy"), ("zmod-crt", "toy"), ("zmod-crt", "full")],
)
def test_benchmark_outputs_match_their_reference_digests(workload, size):
    table = REFERENCE[workload]
    mismatches = []
    for call in _calls(workload, size):
        got = call.check(call.run())
        if got is None or workloads.digest(got[0]) != table[call.ref]:
            mismatches.append(call.id)
    assert mismatches == []
