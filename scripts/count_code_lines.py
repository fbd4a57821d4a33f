#!/usr/bin/env python3
"""Count the code lines of each module of ``src/bmdlimits``.

A line counts if it holds a token other than a comment, NL, NEWLINE, INDENT
or DEDENT, so blank and comment-only lines do not count and docstrings do
(every line of a multi-line string counts).  Prints one ``module lines`` row
per module, then the total:

    python3 scripts/count_code_lines.py
"""

import pathlib
import tokenize

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "bmdlimits"


def code_lines(path: pathlib.Path) -> int:
    lines: set[int] = set()
    with tokenize.open(path) as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type not in _NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{path.name} {n}")
    print(f"total {total}")


if __name__ == "__main__":
    main()
