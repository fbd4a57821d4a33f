"""The one reader of every input file, ``errors.read_input``: JSON configs
through ``space.load_space`` and turnout CSV through
``feasibility.load_turnout``.  Every failure is one ``ParseError`` that starts
with the file, once, whether the reader's shape check or a record's own check
raised it; a byte that is not UTF-8 names its line.  Imports no numpy."""

import json

import pytest

from bmdlimits.errors import DomainError, ParseError, read_input
from bmdlimits.feasibility import JurisdictionRecord, load_turnout
from bmdlimits.space import AttributeSpec, TransactionSpace, load_space

HEADER = b"state,jurisdiction,turnout\n"


def space_file(attributes) -> bytes:
    return json.dumps({"attributes": attributes}).encode()


def fails_naming_the_file(load, path, message):
    with pytest.raises(ParseError) as exc:
        load(str(path))
    assert str(exc.value) == f"{path}: {message}"


class TestJsonConfig:
    def test_reads_a_space(self, tmp_path):
        path = tmp_path / "space.json"
        path.write_bytes(space_file([{"name": "café", "cardinality": 3}]))
        assert load_space(str(path)) == TransactionSpace((AttributeSpec("café", 3),))

    @pytest.mark.parametrize(
        "content,message",
        [
            (b'{"attributes": [\n{"name": "caf\xe9", "cardinality": 2}]}', "line 2: not valid UTF-8"),
            (b"\xff{}", "line 1: not valid UTF-8"),
            (b"[]", "space config must be a JSON object"),
            (space_file([{"name": "x"}]), "space attribute 0 needs 'cardinality'"),
            # the records' own checks
            (space_file([{"name": "x", "cardinality": 0}]), "cardinality of 'x' must be >= 1"),
            (space_file([]), "a transaction space needs at least one attribute"),
            (space_file([{"name": "x", "cardinality": 2}] * 2), "attribute names must be unique"),
        ],
        ids=["latin-1", "first-byte", "not-an-object", "missing-key", "cardinality-0",
             "no-attributes", "duplicate-name"],
    )
    def test_failure_names_the_file_once(self, tmp_path, content, message):
        path = tmp_path / "space.json"
        path.write_bytes(content)
        fails_naming_the_file(load_space, path, message)

    # nesting past the interpreter's recursion limit was once a RecursionError traceback
    @pytest.mark.parametrize("content", [b'{"attributes": ', b"[" * 100_000], ids=["cut-short", "nested-too-deep"])
    def test_not_json(self, tmp_path, content):
        path = tmp_path / "space.json"
        path.write_bytes(content)
        with pytest.raises(ParseError, match="not valid JSON") as exc:
            load_space(str(path))
        assert str(exc.value).startswith(f"{path}: not valid JSON (")


class TestTurnoutCsv:
    def test_reads_records_with_any_line_ending(self, tmp_path):
        path = tmp_path / "turnout.csv"
        path.write_bytes(HEADER.replace(b"\n", b"\r\n") + "AA,Café,1200\r\nAA,C2,7\r\n".encode())
        assert load_turnout(str(path)) == [
            JurisdictionRecord("AA", "Café", 1200), JurisdictionRecord("AA", "C2", 7)
        ]

    @pytest.mark.parametrize(
        "content,message",
        [
            (HEADER + b"AA,C1,100\nAA,Caf\xe9,1200\n", "line 3: not valid UTF-8"),
            (b"", "empty file: expected header 'state,jurisdiction,turnout'"),
            (HEADER, "no jurisdiction rows after the header"),
            (HEADER + b"AA,C1,100\nAA,C2\n", "line 3: expected 3 fields, got 2"),
        ],
        ids=["latin-1", "empty", "header-only", "short-row"],
    )
    def test_failure_names_the_file_once(self, tmp_path, content, message):
        path = tmp_path / "turnout.csv"
        path.write_bytes(content)
        fails_naming_the_file(load_turnout, path, message)


class TestReadInput:
    def test_domain_error_from_parse_names_the_file(self, tmp_path):
        path = tmp_path / "in.txt"
        path.write_text("5")

        def parse(text):
            raise DomainError(f"{text} is out of range")

        fails_naming_the_file(lambda p: read_input(p, parse), path, "5 is out of range")

    def test_other_errors_pass_unchanged(self, tmp_path):
        # a fault in a parser is not the file's
        path = tmp_path / "in.txt"
        path.write_text("5")
        with pytest.raises(ZeroDivisionError):
            read_input(str(path), lambda text: int(text) / 0)
        with pytest.raises(FileNotFoundError):
            read_input(str(tmp_path / "missing.txt"), str)
