"""The README's examples, run as written."""

import contextlib
import io
import json
import re
from pathlib import Path

from ncgb.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(lang: str, after: str) -> str:
    """The first ``lang`` code block of the README after the text ``after``."""
    return re.search(rf"```{lang}\n(.*?)```", README[README.index(after):], re.S).group(1)


def _main(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


def test_readme_quick_start_prints_its_commented_output():
    # each print is followed by a comment line holding what it prints
    code = _block("python", "## Library quick start")
    lines = code.splitlines()
    want = [
        lines[i + 1].removeprefix("#").split("<-")[0].strip()
        for i, line in enumerate(lines)
        if line.startswith("print(")
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines() == want and len(want) == 2


def test_readme_cli_examples_match_the_cli(tmp_path):
    job = tmp_path / "job.gb"
    job.write_text(_block("", "A job file declares"))
    # the text example, up to the elided counter lines
    shown = _block("sh", "A job file declares").splitlines()
    assert shown[0] == "$ ncgb job.gb" and shown[-1] == "..."
    code, out = _main(str(job))
    assert code == 0 and out.splitlines()[:len(shown) - 2] == shown[1:-1]
    # the JSON example, whose stats show some of the counters
    doc = json.loads(_block("json", "JSON output is"))
    target = tmp_path / "target.txt"
    target.write_text(", ".join(doc["basis"]))
    code, out = _main(str(job), "--output", "json", "--monomials", "1", "--equiv", str(target))
    got = json.loads(out)
    assert code == 0 and list(got) == list(doc)
    for key in ("basis", "flag", "monomials", "equivalent"):
        assert got[key] == doc[key], key
    assert doc["stats"].items() <= got["stats"].items()
