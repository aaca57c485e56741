"""Golden-output tests: the CLI's JSON for the bundled scenarios, byte for byte.

Each file under tests/golden/ holds the stdout of one command. After a
change that is meant to move output, regenerate them from the repo root with

    PYTHONPATH=src python tests/test_golden.py

and list every changed line in CHANGES.md.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from fairshare.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

SWEEP_SCENARIOS = ("single_metcalfe", "profit_infra_costs", "weighted_trio")
SWEEP_N_VALUES = "1,2,10,1000"


def golden_cases():
    """(golden file name, CLI argv) for every golden output."""
    cases = [(f"solve_{path.stem}.json",
              ["solve", "--scenario", str(path), "--method", "all", "--format", "json"])
             for path in sorted(SCENARIO_DIR.glob("*.json"))]
    cases += [(f"sweep_{stem}.json",
               ["sweep", "--scenario", str(SCENARIO_DIR / f"{stem}.json"),
                "--n-values", SWEEP_N_VALUES, "--format", "json"])
              for stem in SWEEP_SCENARIOS]
    return cases


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == EXIT_OK, argv
    return out.getvalue()


def test_golden_set_is_complete():
    assert len(golden_cases()) == 12
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == \
        sorted(name for name, _ in golden_cases())


@pytest.mark.parametrize("name,argv", golden_cases(), ids=[n for n, _ in golden_cases()])
def test_cli_output_matches_golden(name, argv):
    expected = (GOLDEN_DIR / name).read_bytes()
    assert run_cli(argv).encode("utf-8") == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in golden_cases():
        (GOLDEN_DIR / name).write_bytes(run_cli(argv).encode("utf-8"))
        print(f"wrote {GOLDEN_DIR / name}", file=sys.stderr)
