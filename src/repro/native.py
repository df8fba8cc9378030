"""Build-on-first-import loader of the compiled passes.

Two C sources ship beside the Python passes they compile:
``repro/hype/_lean.c`` (the lean descent and phase 2,
:mod:`repro.hype.kernel`) and ``repro/xtree/_scan.c`` (the parser's
token pass over a plain document, :mod:`repro.xtree.parse`).
:func:`load` takes a package and one of its sources and returns the
extension module, or ``None`` and the reason the Python pass runs
instead.  The shared object is built once per checkout, source and
interpreter, and every later process only loads it:

* it lives in the package's ``__pycache__`` (beside its bytecode, so
  under ``sys.pycache_prefix`` when one is set), named by the source's stem,
  a sha256 over the source and the full compiler command line, and the
  interpreter's extension suffix (which carries its ABI tag), so an
  edited source, another interpreter or another compiler or flag set
  builds its own file, and nothing stale or foreign is ever loaded: an
  object built under ``CC="gcc -fsanitize=address"`` cannot be picked
  up by a later plain process, which would abort on it;
* the compiler is ``CC`` from the environment when set (as setuptools
  honours it), else the interpreter's own build compiler
  (``sysconfig``); headers come from ``sysconfig``'s include path.  The
  source is fed on stdin, so the bytes hashed are the bytes compiled;
* the output is written to a temporary file and ``os.replace``-d into
  place (:func:`repro.tier.publish`), so concurrent processes — fleet
  workers, test subprocesses — never load a half-written object.

The fallback reasons: a free-threaded interpreter (each pass holds the
GIL for its whole run and has not been audited without it), no
compiler, no ``Python.h``, a failed build, or a cache directory that
cannot be written.  None of them is an error: each Python pass is the
same algorithm, only slower.

This module lives at the top of :mod:`repro`, not under either package,
because :mod:`repro.xtree` is imported by :mod:`repro.hype` and cannot
import it back.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import pkgutil
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

from .tier import publish

#: Seconds a build may take before it counts as failed.
BUILD_TIMEOUT = 120


def compiler() -> list[str]:
    """The C compiler command line: ``CC``, else the interpreter's."""
    return shlex.split(
        os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    )


def load(
    package: str, source: str, cache_dir: str | os.PathLike | None = None
):
    """``(module, None)`` — ``package``'s extension compiled from its
    ``source`` (say ``"_scan.c"``, whose module is ``package._scan``),
    built first if this source and interpreter have no cached build in
    ``cache_dir`` (default: the package's ``__pycache__``, or its mirror
    under ``sys.pycache_prefix`` when the interpreter keeps its bytecode
    there — ``PYTHONPYCACHEPREFIX``) — or ``(None, reason)``."""
    if sysconfig.get_config_var("Py_GIL_DISABLED"):
        return None, "free-threaded build"
    code = pkgutil.get_data(package, source)
    if code is None:
        return None, f"{source} is not installed"
    stem = source.removesuffix(".c")
    command = _command_line()
    key = hashlib.sha256(code)
    key.update("\0".join(["", *command]).encode())
    digest = key.hexdigest()[:16]
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    if cache_dir is None:
        home = Path(importlib.util.find_spec(package).origin).parent
        cache = home / "__pycache__"
        if sys.pycache_prefix:  # where this interpreter keeps bytecode too
            cache = Path(sys.pycache_prefix) / home.relative_to(home.anchor)
    else:
        cache = Path(cache_dir)
    target = cache / f"{stem}.{digest}{suffix}"
    module = f"{package}.{stem}"
    if target.is_file():
        try:
            return _import(module, target), None
        except ImportError:
            pass  # unloadable (truncated, foreign): rebuilt over below
    reason = _build(code, target, command)
    if reason is not None:
        return None, reason
    try:
        return _import(module, target), None
    except ImportError as error:
        return None, f"the build does not load: {error}"


def _command_line() -> list[str]:
    """The build's command line, all of it but the output file: what the
    cache key covers."""
    if sys.platform == "darwin":
        link = ["-bundle", "-undefined", "dynamic_lookup"]
    else:
        link = ["-shared"]
    include = sysconfig.get_paths()["include"]
    return [*compiler(), *link, "-fPIC", "-O2", f"-I{include}", "-x", "c", "-"]


def _build(source: bytes, target: Path, command: list[str]) -> str | None:
    """Compile ``source`` into ``target`` with ``command`` (from
    :func:`_command_line`); the reason it failed, or None."""
    if shutil.which(command[0]) is None:
        return f"no compiler ({' '.join(compiler()) or 'CC is empty'})"
    include = sysconfig.get_paths()["include"]
    if not Path(include, "Python.h").is_file():
        return f"no Python.h in {include}"

    def compile_into(tmp: Path) -> None:
        try:
            done = subprocess.run(
                [*command, "-o", str(tmp)],
                input=source,
                capture_output=True,
                timeout=BUILD_TIMEOUT,
            )
        except OSError as error:  # found on PATH but not runnable
            raise _BuildFailed(f"build failed ({error})") from None
        if done.returncode != 0:
            message = done.stderr.decode(errors="replace").strip()
            raise _BuildFailed(
                f"build failed ({command[0]} exited {done.returncode}"
                + (f": {message.splitlines()[-1]}" if message else "")
                + ")"
            )

    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        publish(target, compile_into)
    except _BuildFailed as failure:
        return str(failure)
    except subprocess.TimeoutExpired:
        return f"build failed (no result after {BUILD_TIMEOUT} s)"
    except OSError as error:
        return f"cannot write the build cache: {error}"
    return None


class _BuildFailed(Exception):
    pass


def _import(name: str, path: Path):
    loader = importlib.machinery.ExtensionFileLoader(name, str(path))
    spec = importlib.util.spec_from_file_location(name, path, loader=loader)
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    return module
