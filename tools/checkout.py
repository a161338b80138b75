"""The commit of a checkout, as the `tools/bench_*.py` records name it."""

from __future__ import annotations

import subprocess
from pathlib import Path


def commit(src: Path) -> str:
    """The commit at HEAD of the git checkout src, marked when its tree
    has uncommitted changes."""
    try:
        head, dirty = (subprocess.run(["git", "-C", str(src), *argv], capture_output=True,
                                      text=True, check=True).stdout.strip()
                       for argv in (["rev-parse", "HEAD"], ["status", "--porcelain"]))
    except (OSError, subprocess.CalledProcessError):
        return "unknown (not a git checkout)"
    return head + (" with uncommitted changes" if dirty else "")
