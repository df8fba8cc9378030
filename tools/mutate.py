"""Grade the oracle lattice with mutants: ``make mutants``.

Seeded samples of Python mutants (an operator flipped, an int constant
moved by one, a statement dropped) — one sample per group of
:data:`TARGETS`: the evaluator and the rewriter, the shape and frame
tiers, the unparser — plus :data:`C_MUTANTS` in ``_lean.c``, each
graded by ``tests/test_lattice.py`` and ``tests/test_shape_templates.py``
in a temporary copy of the tree with its own ``PYTHONPYCACHEPREFIX``;
the working tree is never written.  A failure (unshrunk) or a hang past
:data:`TIMEOUT` kills a mutant; the unmutated copy must pass first.
Prints the kill rate per module and overall; exits 1 below
:data:`FLOOR` killed.
"""

from __future__ import annotations

import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: (globs under ``src/repro``, mutants drawn from their sites), per group.
TARGETS = [
    (("hype/core.py", "hype/kernel.py", "hype/analyze.py", "rewrite/mfa_rewrite.py",
      "automata/*.py"), 40),
    (("compile/shape.py",), 12),
    (("xpath/unparse.py",), 12),
]
SEED, WORKERS, TIMEOUT, FLOOR = 38, 2, 300, 0.9
HARNESS = ["-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
           "tests/test_lattice.py", "tests/test_shape_templates.py"]
#: Appended to the copy's ``tests/conftest.py``: a kill needs no shrinking.
NO_SHRINK = """
from hypothesis import Phase, settings as _settings
_settings.register_profile("mutant", phases=[Phase.explicit, Phase.reuse, Phase.generate])
_settings.load_profile("mutant")
"""
#: ``_lean.c``: (what, text occurring once, replacement).
C_MUTANTS = [
    ("lean pass: prune count +2", "skipped++;", "skipped += 2;"),
    ("lean pass: childless test flipped", "if (ki2 == kend2) {", "if (ki2 != kend2) {"),
    ("lean pass: child's visit index +1", "cur.vidx = nvis++;", "cur.vidx = ++nvis;"),
    ("pop probe: predicate truth flipped", "if (!truth)\n            continue;\n        PyObject",
     "if (truth)\n            continue;\n        PyObject"),
    ("phase 2: exact-set test flipped", "same = parent_alive == above;",
     "same = parent_alive != above;"),
    ("phase 2: answer test flipped", "if (hit) {", "if (!hit) {"),
    ("cold close: has_final |= -> &=", "out->has_final |= f->final_[x];",
     "out->has_final &= f->final_[x];"),
    ("cold pop fill: bit k -> k + 1", "bits |= 1ULL << k;", "bits |= 1ULL << (k + 1);"),
]
FLIP = {ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE,
        ast.LtE: ast.Gt, ast.In: ast.NotIn, ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
        ast.And: ast.Or, ast.Or: ast.And}
DROPPABLE = (ast.Assign, ast.AugAssign, ast.Expr, ast.Return, ast.If, ast.For, ast.While, ast.With,
             ast.Raise, ast.Continue, ast.Break)


class Mutator(ast.NodeTransformer):
    """Lists the mutation sites in walk order (``sites``); rewrites the
    ``target``-th."""

    def __init__(self, target: int = -1) -> None:
        self.target, self.sites = target, []

    def _site(self, line: int, what: str) -> bool:
        self.sites.append((line, what))
        return len(self.sites) - 1 == self.target

    def visit_Compare(self, node):
        self.generic_visit(node)
        for i, op in enumerate(node.ops):
            if self._site(node.lineno, f"{type(op).__name__} flipped"):
                node.ops[i] = FLIP[type(op)]()
        return node

    def visit_BoolOp(self, node):
        self.generic_visit(node)
        if self._site(node.lineno, f"{type(node.op).__name__} flipped"):
            node.op = FLIP[type(node.op)]()
        return node

    def visit_Constant(self, node):
        for step in (1, -1) if type(node.value) is int else ():
            if self._site(node.lineno, f"{node.value} -> {node.value + step}"):
                return ast.copy_location(ast.Constant(node.value + step), node)
        return node

    def generic_visit(self, node):
        for field in ("body", "orelse", "finalbody"):
            body = getattr(node, field, None)
            for i, stmt in enumerate(body if isinstance(body, list) else ()):
                docstring = isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
                if isinstance(stmt, DROPPABLE) and not docstring and self._site(
                    stmt.lineno, f"{type(stmt).__name__} dropped"
                ):
                    body[i] = ast.copy_location(ast.Pass(), stmt)
        return super().generic_visit(node)


def mutants() -> list:
    """``(name, path, mutated source, compiled)`` of every mutant."""
    sample = []
    for patterns, size in TARGETS:
        sites = []
        for pattern in patterns:
            for path in sorted((ROOT / "src/repro").glob(pattern)):
                listing = Mutator()
                listing.visit(ast.parse(path.read_text()))
                sites += [(path, i, line, what) for i, (line, what) in enumerate(listing.sites)]
        sample += random.Random(SEED).sample(sites, size)
    jobs = []
    for path, i, line, what in sorted(sample, key=lambda s: (str(s[0]), s[1])):
        source = ast.unparse(Mutator(i).visit(ast.parse(path.read_text())))
        jobs.append((f"{path.relative_to(ROOT / 'src/repro')}:{line} {what}", path, source, False))
    lean = ROOT / "src/repro/hype/_lean.c"
    for what, text, replacement in C_MUTANTS:
        assert lean.read_text().count(text) == 1, text
        jobs.append((f"_lean.c {what}", lean, lean.read_text().replace(text, replacement), True))
    return jobs


def grade(name: str, path: Path, source: str, compiled: bool, built: Path) -> str:
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests", "benchmarks"):
            shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__"))
        (work / path.relative_to(ROOT)).write_text(source)
        with open(work / "tests/conftest.py", "a") as conftest:
            conftest.write(NO_SHRINK)
        prefix = work / "pycache"
        for so in built.rglob("*.so"):  # the unmutated builds, reused
            into = prefix / (work / "src" / so.parent.relative_to(built)).relative_to("/")
            into.mkdir(parents=True, exist_ok=True)
            shutil.copy2(so, into)
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONPYCACHEPREFIX=str(prefix))
        probe = "from repro.hype import kernel; print(kernel.DESCENT)"
        if compiled:
            run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
            if run.stdout.strip() != "compiled":
                return f"unbuilt   {name}"
        try:
            done = subprocess.run([sys.executable, *HARNESS], cwd=work, env=env,
                                  capture_output=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return f"killed    {name} (timeout)"
        return f"{'survived' if done.returncode == 0 else 'killed  '}  {name}"


def main() -> int:
    core = ROOT / "src/repro/hype/core.py"
    jobs = [("baseline: no mutation", core, core.read_text(), False), *mutants()]
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        src, prefix = Path(tmp) / "src", Path(tmp) / "pycache"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONPYCACHEPREFIX=str(prefix))
        build = "import repro.hype.kernel, repro.xtree.parse"
        subprocess.run([sys.executable, "-c", build], env=env, check=True)
        with ThreadPoolExecutor(WORKERS) as pool:
            lines = []
            for line in pool.map(lambda job: grade(*job, prefix / src.relative_to("/")), jobs):
                print(line, flush=True)
                lines.append(line)
    if not lines.pop(0).startswith("survived"):
        print("the unmutated tree fails the harness: no mutant is graded")
        return 1
    modules: dict[str, list[bool]] = {}
    for line in lines:
        module = line.split()[1].split(":")[0]
        modules.setdefault(module, []).append(line.startswith("killed"))
    for module, kills in sorted(modules.items()):
        print(f"  {module:28} {sum(kills)} of {len(kills)} killed")
    killed = sum(line.startswith("killed") for line in lines)
    print(f"{killed} of {len(lines)} mutants killed ({killed / len(lines):.1%})")
    return 0 if killed >= FLOOR * len(lines) else 1


if __name__ == "__main__":
    sys.exit(main())
