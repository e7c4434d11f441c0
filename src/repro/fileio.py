"""Atomic artifact writes: the one writer every JSON artifact goes through.

Checkpoints, aggregates, telemetry, progress heartbeats, perf reports
and lint reports are all read back by something that trusts them (a
resume, a poller, a diff), so none may ever be left torn.  Stdlib-only
and free of ``repro`` imports, so any layer can import it at module
level without an import cycle.
"""

from __future__ import annotations

import os
import pathlib
import tempfile

__all__ = ["atomic_write_text"]


def atomic_write_text(path: str | pathlib.Path, text: str) -> pathlib.Path:
    """Write *text* to *path* atomically (temp file + ``os.replace``).

    A crash mid-write must never leave a truncated file behind: a
    checkpoint resume (or any reader of ``benchmarks/out/``) would then
    trust corrupt JSON.  The temp file lives in the destination
    directory so the final rename is atomic on POSIX filesystems.

    The temp file is unlinked best-effort in a ``finally`` — on success
    ``os.replace`` already consumed it (the unlink is a no-op), and on
    *any* failure, including ones raised by the replace itself, no
    stray ``.*.tmp`` file survives.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp_name, path)
    finally:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
    return path
