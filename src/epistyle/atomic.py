"""All-or-nothing file writes."""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open a new sibling temp file of `path` for writing and move it over
    `path` when the block ends without error; on error delete it. `path` thus
    holds either its old bytes or all the new ones, never a part. A missing
    parent directory is made first.

    The temp file is made by a plain `open(..., "x")`, so it gets the same
    permissions as any other output (`mkstemp` would make it 0600). It is
    not fsynced: this guards against a failing or killed process, not
    against power loss.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    fh = open(tmp, mode.replace("w", "x"), **open_kwargs)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
