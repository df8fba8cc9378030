"""Code-line counts per package under ``src/repro`` (``make loc``).

A Python *code line* is a physical line carrying at least one token that
is not a comment, a blank, or part of a docstring (a string literal
standing alone as a statement) — so comment, docstring and blank-line
edits never move the number.  Stdlib :mod:`tokenize` only.  A C code
line is a line left non-blank once its ``/* */`` and ``//`` comments
are removed (string and character literals are kept whole).

    python tools/loc.py [ROOT]          # default ROOT: src/repro

Prints one row per package (top-level modules under ``(root)``), the
``serve/ + cli.py`` and ``tiers`` subtotals PR budgets quote, and the
Python total; then one row per ``.c`` file and the C subtotal.  Compare
two checkouts by running it in each.
"""

from __future__ import annotations

import re
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_INVISIBLE = {tokenize.COMMENT, tokenize.NL, tokenize.ENCODING}

#: The cache / persistence tiers: the two disciplines and their owners.
_TIERS = ("tier.py", "compile/store.py", "docstore/store.py", "serve/cache.py")


def code_lines(path: Path) -> int:
    with tokenize.open(path) as handle:
        tokens = [
            token
            for token in tokenize.generate_tokens(handle.readline)
            if token.type not in _INVISIBLE
        ]
    lines: set[int] = set()
    for index, token in enumerate(tokens):
        if token.type in _LAYOUT:
            continue
        if (
            token.type == tokenize.STRING
            and tokens[index + 1].type == tokenize.NEWLINE
            and (index == 0 or tokens[index - 1].type in _LAYOUT)
        ):
            continue  # a string standing alone as a statement: docstring
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


#: A C comment, or a string / character literal (so that a comment
#: marker inside one is not taken for a comment).
_C_SPAN = re.compile(r"/\*.*?\*/|//[^\n]*|\"(?:\\.|[^\"\\\n])*\"|'(?:\\.|[^'\\\n])*'", re.S)


def c_code_lines(path: Path) -> int:
    def blank_comment(match: re.Match) -> str:
        span = match.group()
        return span if span[0] in "\"'" else "\n" * span.count("\n")

    text = _C_SPAN.sub(blank_comment, path.read_text(encoding="utf-8"))
    return sum(1 for line in text.splitlines() if line.strip())


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/repro")
    per_package: dict[str, int] = {}
    per_file: dict[str, int] = {}
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root)
        package = relative.parts[0] if len(relative.parts) > 1 else "(root)"
        count = code_lines(path)
        per_package[package] = per_package.get(package, 0) + count
        per_file[relative.as_posix()] = count
    per_c_file = {
        path.relative_to(root).as_posix(): c_code_lines(path)
        for path in sorted(root.rglob("*.c"))
    }
    width = max(map(len, [*per_package, *per_c_file, "serve+cli.py"]))
    for package, count in sorted(per_package.items()):
        print(f"{package:<{width}}  {count:>6}")
    serving = per_package.get("serve", 0) + per_file.get("cli.py", 0)
    print(f"{'serve+cli.py':<{width}}  {serving:>6}")
    print(f"{'tiers':<{width}}  {sum(per_file.get(f, 0) for f in _TIERS):>6}")
    print(f"{'total':<{width}}  {sum(per_package.values()):>6}")
    for name, count in per_c_file.items():
        print(f"{name:<{width}}  {count:>6}")
    print(f"{'C':<{width}}  {sum(per_c_file.values()):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
