"""The CLI's answer to invalid scenario files, pinned byte for byte.

tests/invalid_scenarios.json holds one invalid scenario per validation
message, plus cases with several violations at once, which pin the order of
the messages. Each case records the exit code and the stderr of
`fairshare validate --scenario <scenario>`, with the file's path written as
`<scenario>`. A case holds its scenario as JSON under `scenario`, or its raw
file text under `text`, written in the case's `encoding` (UTF-8 if it names
none). After a change that is meant to move these messages,
regenerate the expected output from the repo root with

    PYTHONPATH=src python tests/test_invalid_scenarios.py

and list every changed message in CHANGES.md.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from fairshare.cli import main

CORPUS = Path(__file__).resolve().parent / "invalid_scenarios.json"


def load_corpus() -> dict:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def write_scenario(path: Path, case: dict) -> None:
    """Write a case's file: its raw `text`, or its scenario as JSON, in its encoding."""
    text = case["text"] if "text" in case else json.dumps(case["scenario"])
    path.write_text(text, encoding=case.get("encoding", "utf-8"))


def run_validate(path: Path) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["validate", "--scenario", str(path)])
    return code, out.getvalue(), err.getvalue().replace(str(path), "<scenario>")


CASES = load_corpus()["cases"]


def test_corpus_names_are_unique():
    names = [case["name"] for case in CASES]
    assert len(names) == len(set(names)) and len(names) >= 90


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_validate_output_is_pinned(case, tmp_path):
    path = tmp_path / "scenario.json"
    write_scenario(path, case)
    assert run_validate(path) == (case["exit"], "", case["stderr"])


if __name__ == "__main__":
    import tempfile

    corpus = load_corpus()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        for case in corpus["cases"]:
            write_scenario(path, case)
            case["exit"], _, case["stderr"] = run_validate(path)
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {CORPUS}", file=sys.stderr)
