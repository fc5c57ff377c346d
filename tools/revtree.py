"""What the tools that read a git revision share: putting its tree into a
directory, and a quiet exit when the reader closes stdout.

Both are imported by `tools/bench_pairs.py` and `tools/census_gc_probe.py`,
which run as scripts, so this directory is the first on their path.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unpack(tool: str, rev, dest: Path, parts=()) -> None:
    """Put the tree of the git revision rev into dest with `git archive`,
    only the directories `parts` when given.  With rev None, copy those
    directories of the checkout instead, with no bytecode cache.  When git
    cannot read rev, print one line on stderr, `tool: cannot read revision
    ...`, and raise SystemExit(2)."""
    if rev is None:
        for part in parts:
            shutil.copytree(ROOT / part, dest / part, ignore=shutil.ignore_patterns("__pycache__"))
        return
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", rev, *parts],
                         capture_output=True, check=False)
    if tar.returncode:
        reason = (tar.stderr.decode(errors="replace").strip().splitlines() or ["git archive failed"])[0]
        print(f"{tool}: cannot read revision {rev!r}: {reason}", file=sys.stderr)
        raise SystemExit(2)
    # extraction filters came in Python 3.10.12 and 3.11.4, and older
    # releases take no filter keyword; a git tree holds no absolute or ..
    # paths, so it unpacks safely without one
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(dest, **safe)


def closed_stdout() -> int:
    """Exit 1 quietly when the reader has closed stdout (`... | head`), as
    `vexpf` does: stdout's descriptor goes to devnull, so the flush at exit
    cannot raise again.  A stdout with no descriptor is left as it is."""
    with contextlib.suppress(OSError, ValueError):
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 1
