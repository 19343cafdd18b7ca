"""Run manifest: config echo, seed, and checksums of every emitted file."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TextIO


def fresh_file(path: Path) -> TextIO:
    """Open ``path`` as a new file for writing; every output goes through this.

    Truncating a non-empty file, or renaming over one, makes ext4
    (``auto_da_alloc``) flush the old data first, which blocked for tens of ms
    per file; removing the old file first does not. So a symlinked output path
    is replaced, not written through. pbsgame never fsyncs, so the only thing
    given up is that implicit flush-on-truncate.
    """
    path.unlink(missing_ok=True)
    return open(path, "x", newline="")


def file_checksum(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(
    output_dir: Path,
    command: str,
    config: dict,
    seed: int | None,
    files: list[Path],
    duration: float,
    version: str,
) -> Path:
    payload = {
        "command": command,
        "config": config,
        "master_seed": seed,
        "version": version,
        "files": {
            f.name: {"sha256": file_checksum(f), "bytes": f.stat().st_size} for f in files
        },
        "duration_seconds": duration,
    }
    path = output_dir / "manifest.json"
    with fresh_file(path) as handle:
        handle.write(json.dumps(payload, indent=2) + "\n")
    return path
