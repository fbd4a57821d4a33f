"""The command line's bytes: every call pinned in ``tests/data/cli_examples.txt``
(written by ``scripts/pin_cli_examples.py``) prints exactly its pinned stdout
when replayed through ``cli.run``."""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).parent.parent

spec = importlib.util.spec_from_file_location("pin_cli_examples", ROOT / "scripts" / "pin_cli_examples.py")
pins = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pins)

PINNED = pins.read_pins(ROOT / "tests" / "data" / "cli_examples.txt")


def test_pins_are_the_readme_examples_then_the_extra_calls():
    assert [argv for argv, _ in PINNED] == pins.readme_examples() + pins.EXTRA


@pytest.mark.parametrize("argv, stdout", PINNED, ids=[" ".join(argv) for argv, _ in PINNED])
def test_stdout_matches_pin(argv, stdout):
    assert pins.stdout_of(argv) == stdout
