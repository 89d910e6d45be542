"""Where the measured package comes from, and what it was measured on."""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path


def add_package_path(root: Path) -> Path:
    """Put ``root/src`` first on the import path; the benchmark measures the
    checkout's own sources, never an installed copy."""
    src = root / "src"
    if not (src / "agdsmooth" / "__init__.py").is_file():
        raise FileNotFoundError(f"no agdsmooth package under {src}")
    sys.path.insert(0, str(src))
    return src


def check_imported(src: Path) -> None:
    import agdsmooth

    where = Path(agdsmooth.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"agdsmooth was imported from {where}, not from {src}")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str | None:
    """HEAD of ``root/.git`` if the checkout is a git work tree."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(src: Path) -> str:
    """sha256 over the package sources, which identifies a checkout that is
    not a git work tree."""
    h = hashlib.sha256()
    for path in sorted((src / "agdsmooth").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def describe(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root / "src"),
    }
