"""Operating-system primitives shared by the engine and storage layers.

Both layers reclaim resources named after the process that made them
(shared-memory segments, on-disk stores) and write files a crash must
never leave half-written (checkpoints, persisted models).  These
helpers live here so neither layer imports the other for them.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["atomic_write_text", "pid_alive"]


def pid_alive(pid: int) -> bool:
    """True when a process with ``pid`` exists (signal-0 probe).

    Shared by every janitor that decides orphan-ness from a pid baked
    into a resource name (shared-memory segments, on-disk stores).
    """
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, owned elsewhere
        return True
    return True


def atomic_write_text(path: Path, text: str) -> None:
    """Write UTF-8 ``text`` via a ``.tmp.<pid>`` sibling + ``os.replace``.

    Concurrent writers from different processes never collide, and a
    crash mid-write never leaves a truncated file at ``path``.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # pragma: no cover - only on a failed write
            tmp.unlink()
