"""Count code lines: ``python -m tests.code_lines PATH...``.

A code line is a physical line that carries at least one code token.
Blank lines, comment lines and docstring lines (a string literal that is a
whole statement) do not count. Prints one count per file and a total.
"""

from __future__ import annotations

import io
import sys
import tokenize

_LAYOUT = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER)


def count_code_lines(source: str) -> int:
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            statement.append(token)
        elif token.type == tokenize.NEWLINE and statement:
            if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                for tok in statement:
                    lines.update(range(tok.start[0], tok.end[0] + 1))
            statement = []
    return len(lines)


def main(argv: list[str]) -> int:
    total = 0
    for path in argv:
        with open(path, encoding="utf-8") as handle:
            count = count_code_lines(handle.read())
        print(f"{count:6d} {path}")
        total += count
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
