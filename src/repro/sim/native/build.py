"""Compile and load the native drain (``drain.c``) on first use.

The extension is built with the system C compiler at ``-O2`` (never
``-ffast-math``: the drain is integer-only, and results must stay
byte-identical to the scalar backend) against the running
interpreter's ``Python.h``.  One artifact exists per source digest and
interpreter ABI::

    <user cache>/repro/native/<digest>/_drain<EXT_SUFFIX>

``<user cache>`` is ``$XDG_CACHE_HOME`` or ``~/.cache``.  When that is
not writable the build goes to ``<tmp>/repro-native-<uid>`` instead,
which is used only if it is a real directory (not a symlink) owned by
the current user and writable by nobody else; anything else raises
:class:`NativeBuildError`, since another local user could otherwise
plant a shared object there.  The directory
is deliberately outside the result store (``REPRO_CACHE_DIR``), so
wiping or re-pointing the store never forces a recompile, and every
store, campaign and worker on the machine shares one build.  The
digest covers the C source and the compile flags; ``EXT_SUFFIX``
carries the SOABI, so two interpreters never load each other's build.

A build compiles into a temporary file in the artifact's directory and
renames it into place, under an exclusive lock: concurrent first
builds leave exactly one artifact, and a reader never sees a partial
file.  Campaign executors call :func:`load` in the parent before the
worker pool forks, so workers inherit the loaded module.

There is no silent fallback: a missing compiler or a missing
``Python.h`` raises :class:`NativeBuildError` carrying the compiler's
stderr and how to run the pure-python reference instead.
"""

from __future__ import annotations

import fcntl
import hashlib
import importlib.util
import os
import shutil
import stat
import subprocess
import sys
import sysconfig
import tempfile
import time
from pathlib import Path
from typing import List, Optional

#: The C source of the drain.
SOURCE = Path(__file__).resolve().with_name("drain.c")

#: Compiler flags; part of the artifact digest.
CFLAGS = ("-O2", "-fPIC", "-shared", "-Wall", "-fno-strict-aliasing")

#: Where to point users whose machine cannot build the extension.
HINT = (
    "set REPRO_SIM_BACKEND=scalar (or pass --backend scalar) to run "
    "the pure-python reference backend instead"
)


class NativeBuildError(RuntimeError):
    """The native drain could not be compiled or loaded."""


_module = None
#: Seconds the last compile in this process took (None: none ran).
last_compile_s: Optional[float] = None


def source_digest() -> str:
    """Digest of everything the artifact is built from."""
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update("\0".join(CFLAGS).encode())
    return digest.hexdigest()[:16]


def cache_root() -> Path:
    """The shared per-user build directory (outside the result store).

    A home without a writable cache directory (read-only or missing)
    builds under a private directory in the system temp directory
    instead, still once per digest for the machine's user.
    """
    base = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
    root = Path(base) / "repro" / "native"
    try:
        root.mkdir(parents=True, exist_ok=True)
    except OSError:
        pass
    if os.access(root, os.W_OK):
        return root
    private = Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"
    try:
        private.mkdir(mode=0o700, exist_ok=True)
    except OSError as error:
        raise NativeBuildError(
            f"{root} is not writable and {private} cannot be created "
            f"({error}); point XDG_CACHE_HOME at a writable directory, "
            f"or {HINT}"
        )
    info = os.lstat(private)
    if (
        not stat.S_ISDIR(info.st_mode)
        or info.st_uid != os.getuid()
        or info.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    ):
        raise NativeBuildError(
            f"{root} is not writable, and {private} is not a private "
            f"directory of this user (uid {info.st_uid}, mode "
            f"{stat.filemode(info.st_mode)}), so the native drain is "
            f"neither built nor loaded from it; point XDG_CACHE_HOME at a "
            f"writable directory, or {HINT}"
        )
    return private


def artifact_path(root: Optional[Path] = None) -> Path:
    root = cache_root() if root is None else Path(root)
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    return root / source_digest() / f"_drain{suffix}"


def _compile_command(output: Path) -> List[str]:
    compiler = shutil.which("gcc") or shutil.which("cc")
    if compiler is None:
        raise NativeBuildError(
            "no C compiler (gcc or cc) on PATH; the native simulation "
            f"backend compiles its drain on first use. {HINT}"
        )
    include = sysconfig.get_paths()["include"]
    if not (Path(include) / "Python.h").is_file():
        raise NativeBuildError(
            f"Python.h not found under {include} (install the "
            f"interpreter's development headers). {HINT}"
        )
    return [compiler, *CFLAGS, f"-I{include}", str(SOURCE), "-o", str(output)]


def build(root: Optional[Path] = None) -> Path:
    """Compile the artifact unless it exists; returns its path."""
    global last_compile_s
    target = artifact_path(root)
    if target.exists():
        return target
    target.parent.mkdir(parents=True, exist_ok=True)
    with open(target.parent / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if target.exists():  # a concurrent build won the race
            return target
        fd, temp = tempfile.mkstemp(
            prefix=".build-", suffix=".so", dir=target.parent
        )
        os.close(fd)
        try:
            command = _compile_command(Path(temp))
            started = time.perf_counter()
            proc = subprocess.run(command, capture_output=True, text=True)
            if proc.returncode != 0:
                raise NativeBuildError(
                    f"compiling {SOURCE.name} failed "
                    f"(exit {proc.returncode}):\n{proc.stderr.strip()}\n"
                    f"{HINT}"
                )
            last_compile_s = time.perf_counter() - started
            os.replace(temp, target)
        finally:
            if os.path.exists(temp):
                os.unlink(temp)
    return target


def load(root: Optional[Path] = None):
    """The compiled ``_drain`` module, building it first if needed."""
    global _module
    if _module is not None and root is None:
        return _module
    path = build(root)
    spec = importlib.util.spec_from_file_location(
        "repro.sim.native._drain", path
    )
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except ImportError as error:
        raise NativeBuildError(f"loading {path} failed: {error}. {HINT}")
    if root is None:
        _module = module
        sys.modules.setdefault("repro.sim.native._drain", module)
    return module


def loaded() -> bool:
    """True once this process has loaded the extension."""
    return _module is not None
