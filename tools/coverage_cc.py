"""Line coverage of the compiled passes (``make coverage-c``).

    CC="python3 tools/coverage_cc.py DIR" python -m pytest ...   # build + run
    python3 tools/coverage_cc.py --report DIR                     # read

As a compiler: :mod:`repro.native` feeds a source to ``$CC`` on stdin
(``-x c -``) and links it straight into the shared object, while gcov
needs the source as a file and its note file beside a fixed object.  So
this wrapper

* keeps the stdin source as ``DIR/<key>/<name>.c`` — ``<name>`` the
  checked-in ``.c`` under ``src/repro`` it is byte-equal to (else
  ``stdin``), ``<key>`` a hash of the source and the flags;
* compiles it there once, with ``--coverage -O0`` added (unoptimised,
  so every count lands on its own line), under a lock: a second build of
  the same key — another process, another cache directory — links the
  same object, so every process that loads it adds to one ``.gcda``;
* links that object into the output the loader asked for.

As a reporter (``--report DIR``): runs ``gcov`` over every key and
prints, per source, executed / executable lines and each function's
unexecuted line numbers.  Counts merge across keys (a line counts as
executed if any build ran it).  Report only: the exit status is 0
whatever the coverage.
"""

from __future__ import annotations

import fcntl
import gzip
import hashlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = ROOT / "src" / "repro"
GCC = "gcc"


def build(directory: Path, args: list[str]) -> int:
    source = sys.stdin.buffer.read()
    at = args.index("-o")
    output = args[at + 1]
    flags = [arg for arg in args[:at] + args[at + 2 :] if arg != "-"]
    names = [path.name for path in SOURCES.rglob("*.c") if path.read_bytes() == source]
    key = hashlib.sha256(source + "\0".join(flags).encode()).hexdigest()[:12]
    home = directory / key
    home.mkdir(parents=True, exist_ok=True)
    code = home / (names[0] if names else "stdin.c")
    obj = code.with_suffix(".o")
    with open(directory / f"{key}.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not obj.is_file():
            code.write_bytes(source)
            command = [GCC, *flags, "--coverage", "-O0", "-c", str(code), "-o", str(obj)]
            done = subprocess.run(command)
            if done.returncode:
                obj.unlink(missing_ok=True)
                return done.returncode
    link = list(flags)
    if "-x" in link:  # "-x c" would read the object as C source
        del link[link.index("-x") : link.index("-x") + 2]
    return subprocess.run([GCC, *link, "--coverage", str(obj), "-o", output]).returncode


def ranges(numbers: list[int]) -> str:
    spans: list[list[int]] = []
    for n in numbers:
        if spans and n == spans[-1][1] + 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in spans)


def report(directory: Path) -> int:
    counts: dict[str, dict[int, int]] = {}
    owner: dict[str, dict[int, str]] = {}
    for code in sorted(directory.glob("*/*.c")):
        if code.name == "stdin.c":
            continue
        subprocess.run(
            ["gcov", "--json-format", "-o", ".", code.name],
            cwd=code.parent,
            capture_output=True,
        )
        dump = code.with_suffix(".gcov.json.gz")
        if not dump.is_file():
            continue
        for record in json.loads(gzip.decompress(dump.read_bytes()))["files"]:
            if Path(record["file"]).name != code.name:
                continue  # a header's inline functions
            lines = counts.setdefault(code.name, {})
            names = owner.setdefault(code.name, {})
            for line in record["lines"]:
                number = line["line_number"]
                lines[number] = max(lines.get(number, 0), line["count"])
                names.setdefault(number, line.get("function_name", "?"))
    if not counts:
        print(f"no coverage data under {directory}")
    for name, lines in sorted(counts.items()):
        run = sum(1 for count in lines.values() if count)
        print(f"{name}: {run} of {len(lines)} lines executed ({100 * run / len(lines):.1f} %)")
        missed: dict[str, list[int]] = {}
        for number in sorted(lines):
            if not lines[number]:
                missed.setdefault(owner[name][number], []).append(number)
        for function, numbers in sorted(missed.items(), key=lambda item: item[1][0]):
            print(f"  {function}: {len(numbers)} unexecuted: {ranges(numbers)}")
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["--report"]:
        return report(Path(argv[1]))
    return build(Path(argv[0]), argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
