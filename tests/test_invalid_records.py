"""The CLI's answer to invalid revenue records files, pinned byte for byte.

tests/invalid_records.json holds one invalid records file per message of
`load_revenue_records`: each wrong file shape, a file that is not JSON, a file
nested too deeply, each field message, and records with several bad fields,
which pin the order of the messages. Each case records the exit code and the
stderr of

    fairshare empirical --records <records> --entity Z --payout 1 --window 2021 --format json

with the file's path written as `<records>`. A case holds its records as
JSON under `records`, its raw file text under `text`, or under `depth` the
depth of a file of nothing but nested lists. A file is written in the case's
`encoding`, UTF-8 if it names none. After a change that is meant to
move these messages, regenerate the expected output from the repo root with

    PYTHONPATH=src python tests/test_invalid_records.py

and list every changed message in CHANGES.md.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from fairshare.cli import main

CORPUS = Path(__file__).resolve().parent / "invalid_records.json"


def load_corpus() -> dict:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def write_records(path: Path, case: dict) -> None:
    """Write a case's file, in its encoding: its raw `text`, lists nested
    `depth` deep, or its records as JSON."""
    if "depth" in case:
        text = "[" * case["depth"] + "]" * case["depth"]
    else:
        text = case["text"] if "text" in case else json.dumps(case["records"])
    path.write_text(text, encoding=case.get("encoding", "utf-8"))


def run_empirical(path: Path) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["empirical", "--records", str(path), "--entity", "Z", "--payout", "1",
                     "--window", "2021", "--format", "json"])
    return code, out.getvalue(), err.getvalue().replace(str(path), "<records>")


CASES = load_corpus()["cases"]


def test_corpus_names_are_unique():
    names = [case["name"] for case in CASES]
    assert len(names) == len(set(names)) and len(names) >= 30


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_empirical_output_is_pinned(case, tmp_path):
    path = tmp_path / "records.json"
    write_records(path, case)
    code, _, err = run_empirical(path)
    assert (code, err) == (case["exit"], case["stderr"])


if __name__ == "__main__":
    import tempfile

    corpus = load_corpus()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "records.json"
        for case in corpus["cases"]:
            write_records(path, case)
            case["exit"], _, case["stderr"] = run_empirical(path)
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {CORPUS}", file=sys.stderr)
