#!/usr/bin/env python3
"""Pin the command line's bytes: write ``tests/data/cli_examples.txt``.

Usage: PYTHONPATH=src python3 scripts/pin_cli_examples.py [output.txt]
(from the repository root; the default output is the committed copy).

The file holds one block per call: a ``$ bmdlimits ...`` line with the
call's arguments, then its exact stdout.  The calls are the README's
command-line examples in order, then ``EXTRA``: the ``json-lines`` output of
each record-emitting form, one ``markdown`` table, the simulator's
``--seed`` override, a script tester's logic-and-accuracy deck, the
published grid under ``--convention strict`` at both budgets and an oracle
above 64 flawed printouts.  ``tests/test_cli_examples.py`` replays every block
through ``cli.run``, and CI compares the stdout of each numpy-free call,
run in a fresh interpreter, with its block.
"""

import io
import json
import os
import pathlib
import re
import shlex
import sys
import tempfile

from bmdlimits.cli import run

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT = ROOT / "tests" / "data" / "cli_examples.txt"

#: The file that README's ``cardinality --space my_space.json`` reads.
MY_SPACE = {"attributes": [{"name": "x", "cardinality": 3}]}

EXTRA = [
    ["--format", "json-lines", "passive", "--margin", "0.03", "--detect-rate", "0.07", "--base-rate", "0.005"],
    ["--format", "json-lines", "parallel", "--tests-per-day", "13", "--capacity", "140",
     "--altered-fraction", "0.005", "--confidence", "0.95"],
    ["--format", "json-lines", "oracle", "--population", "2980", "--flawed", "15", "--confidence", "0.95"],
    ["--format", "json-lines", "minimax", "--confidence", "0.99", "--test-limit", "2000",
     "--altered-fraction", "0.005"],
    ["--format", "json-lines", "feasibility", "--data", "tests/data/county_turnout.csv", "--margin", "0.03"],
    ["--format", "json-lines", "simulate", "--scenario", "scenarios/passive_poisson_gap.json"],
    ["--format", "markdown", "minimax", "--zeta-grid"],
    ["simulate", "--scenario", "scenarios/whole_space_flip.json", "--seed", "11"],
    ["simulate", "--scenario", "scenarios/logic_and_accuracy_scripts.json"],
    ["passive", "--convention", "strict", "--fp", "0.05", "--fn", "0.05", "--margin", "0.01,0.02,0.03,0.04,0.05",
     "--detect-rate", "0.07,0.25", "--base-rate", "0.005,0.01,0.015"],
    ["passive", "--convention", "strict", "--fp", "0.01", "--fn", "0.01", "--margin", "0.01,0.02,0.03,0.04,0.05",
     "--detect-rate", "0.07,0.25", "--base-rate", "0.005,0.01,0.015"],
    ["oracle", "--population", "1000000000000000", "--flawed", "65"],
]


def readme_examples() -> list[list[str]]:
    """Argument lists of the ``bmdlimits ...`` lines in README's command-line
    block, continuation lines joined."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    joined = re.sub(r"\\\n\s*", "", block)
    return [shlex.split(line)[1:] for line in joined.splitlines() if line.startswith("bmdlimits ")]


def read_pins(path=DEFAULT) -> list[tuple[list[str], str]]:
    """(argv, stdout) of each block of a pin file."""
    blocks: list[tuple[list[str], list[str]]] = []
    for line in pathlib.Path(path).read_text(encoding="utf-8").splitlines(keepends=True):
        if line.startswith("$ bmdlimits "):
            blocks.append((shlex.split(line)[2:], []))
        else:
            blocks[-1][1].append(line)
    return [(argv, "".join(out)) for argv, out in blocks]


def stdout_of(argv: list[str]) -> str:
    """What ``bmdlimits argv`` prints, from ``cli.run`` in this process, run
    from the repository root, or from a directory holding ``my_space.json``
    if ``argv`` names it.  A report's bytes do not depend on ``--workers``,
    so a simulation runs on one worker."""
    argv = list(argv)
    if "--workers" in argv:
        argv[argv.index("--workers") + 1] = "1"
    out = io.StringIO()
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        pathlib.Path(tmp, "my_space.json").write_text(json.dumps(MY_SPACE), encoding="utf-8")
        os.chdir(tmp if "my_space.json" in argv else ROOT)
        try:
            code = run(argv, out=out)
        finally:
            os.chdir(here)
    if code != 0:
        raise SystemExit(f"bmdlimits {shlex.join(argv)}: exit code {code}")
    return out.getvalue()


def main() -> None:
    path = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for argv in readme_examples() + EXTRA:
            fh.write(f"$ bmdlimits {shlex.join(argv)}\n{stdout_of(argv)}")


if __name__ == "__main__":
    main()
