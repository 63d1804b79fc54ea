"""Atomic artifact writes: a reader sees the previous file or the new one, never a part.

Every artifact is written to a temp file in its own directory and then moved
over the target with os.replace, which is atomic on one filesystem. A writer
that raises partway removes its temp file and leaves the previous artifact
as it was.
"""

from __future__ import annotations

import contextlib
import os
from pathlib import Path


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open a temp file beside path for writing; replace path with it on success.

    `mode` and `open_kwargs` go to open(). The parent directory is created
    if needed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
