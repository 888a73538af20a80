"""Shared file-payload helpers for the model save/load paths.

Two concerns in one place:

* **gzip-by-suffix** — a ``.gz`` path is transparently compressed on
  write and decompressed on read, same text semantics either way;
* **atomic replace** — payloads land via a temporary sibling +
  ``os.replace`` so a crash mid-write can never leave a truncated
  file where a reader expects a complete one (plain-text payloads go
  through :func:`repro.osutil.atomic_write_text`, which checkpoints
  use directly).

Helpers raise ``OSError`` (and ``gzip`` errors, which subclass it);
callers wrap into their own error taxonomy (``PersistenceError``).
"""

from __future__ import annotations

import gzip
import os
from pathlib import Path

from repro.osutil import atomic_write_text

__all__ = [
    "is_gzip_path",
    "read_payload_text",
    "write_payload_text",
]

_ENCODING = "utf-8"


def is_gzip_path(path: Path) -> bool:
    """Compression is keyed on the suffix so files self-describe."""
    return path.suffix.lower() == ".gz"


def read_payload_text(path: Path) -> str:
    """Read a text payload, decompressing when the suffix says so."""
    path = Path(path)
    if is_gzip_path(path):
        with gzip.open(path, "rt", encoding=_ENCODING) as handle:
            return handle.read()
    return path.read_text(encoding=_ENCODING)


def write_payload_text(path: Path, text: str) -> None:
    """Atomically write a text payload, compressing ``.gz`` paths.

    The temporary sibling carries the final name plus ``.tmp.<pid>``
    so concurrent writers from different processes never collide, and
    ``os.replace`` keeps the swap atomic on POSIX.
    """
    path = Path(path)
    if not is_gzip_path(path):
        atomic_write_text(path, text)
        return
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        # mtime=0 and an empty embedded filename keep the compressed
        # payload deterministic: the same classifier state always
        # produces the same bytes, whatever the path.
        with open(tmp, "wb") as raw:
            with gzip.GzipFile(filename="", fileobj=raw, mode="wb", mtime=0) as handle:
                handle.write(text.encode(_ENCODING))
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # pragma: no cover - only on a failed write
            tmp.unlink()
