"""Record ``reference.json``: the digest of every output the benchmark checks.

Run from the root of a checkout, on the commit whose outputs are the
reference::

    python3 perfbench/record_reference.py

A later change must reproduce these digests: one that alters a basis, a
flag or the CLI's output bytes fails the benchmark's output check.
"""

import json

import jobgen
import run
import workloads


def main() -> None:
    nc = run.import_ncgb()
    reference = {}
    for name, prepare in workloads.PREPARE.items():
        if name == "cli-sweep":
            calls = workloads.cli_calls(nc, jobgen.FIXED_JOBS + jobgen.pool())
        else:
            calls = prepare(nc, "full", 0) + prepare(nc, "toy", 0)
        table = reference[name] = {}
        for call in calls:
            got = call.check(call.run())
            if got is None:
                raise SystemExit(f"{name} {call.id}: the result fails its own check")
            table[call.ref] = workloads.digest(got[0])
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
