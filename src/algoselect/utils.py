"""Shared plumbing: labeled random streams and atomic file writes."""

from __future__ import annotations

import hashlib
import os
import tempfile

import numpy as np

_MASK64 = (1 << 64) - 1


def labeled_seed(root_seed: int, label: str) -> np.random.SeedSequence:
    """Derive a child seed from a root seed and a fixed label.

    Streams for different labels are independent, and adding a new label
    never perturbs the streams of existing ones.
    """
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return np.random.SeedSequence(
        entropy=(int(root_seed) & _MASK64, int.from_bytes(digest[:8], "big"))
    )


def labeled_rng(root_seed: int, label: str) -> np.random.Generator:
    return np.random.default_rng(labeled_seed(root_seed, label))


def atomic_write_text(path: str, text: str) -> None:
    """Write text to `path` via a temp file and rename, so readers never see partial output."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-algoselect-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
