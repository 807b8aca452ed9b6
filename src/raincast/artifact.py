"""The one on-disk artifact format: a ``<base>.json`` header and an optional
``<base>.f32`` payload of little-endian float32 arrays laid end to end.

A header with a payload also holds ``shapes`` (one list per array),
``payload_bytes`` and ``sha256`` (hex digest of the payload).  Each file is
written to a temporary file beside it and moved into place with
``os.replace``, payload first, so a reader never sees a half-written file and
a header never vouches for a payload it did not describe.
"""

import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np


class MissingArtifactError(FileNotFoundError):
    """An upstream artifact required by this stage does not exist."""


class DamagedArtifactError(MissingArtifactError):
    """An artifact exists but its header or payload cannot be trusted."""


def _replace(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def write_csv(path: Path, lines) -> None:
    """Write ``lines`` as a CSV file, moved into place whole like an artifact."""
    _replace(path, "".join(f"{line}\n" for line in lines).encode())


def write(base: str | Path, fields: dict, arrays=None) -> None:
    """Write ``fields`` as the header and, when ``arrays`` is given, their
    float32 bytes as the payload."""
    base = Path(base)
    header = dict(fields)
    if arrays is not None:
        blobs = [np.asarray(a, dtype="<f4") for a in arrays]
        payload = b"".join(b.tobytes() for b in blobs)
        header.update(shapes=[list(b.shape) for b in blobs], payload_bytes=len(payload),
                      sha256=hashlib.sha256(payload).hexdigest())
        _replace(base.with_suffix(".f32"), payload)
    _replace(base.with_suffix(".json"), (json.dumps(header, sort_keys=True) + "\n").encode())


def read_header(base: str | Path) -> dict:
    """Return the parsed ``<base>.json`` header; its payload is not read."""
    path = Path(base).with_suffix(".json")
    try:
        header = json.loads(path.read_bytes())
    except FileNotFoundError:
        raise MissingArtifactError(str(path)) from None
    except ValueError as e:
        raise DamagedArtifactError(f"{path}: header is not valid JSON ({e})") from None
    if not isinstance(header, dict):
        raise DamagedArtifactError(f"{path}: header is not a JSON object")
    return header


def read(base: str | Path) -> tuple[dict, list]:
    """Return the header and the payload arrays, decoded to float64, after
    checking the payload's length and digest against the header."""
    header = read_header(base)
    path = Path(base).with_suffix(".f32")
    try:
        shapes = [tuple(int(n) for n in s) for s in header["shapes"]]
        size, digest = int(header["payload_bytes"]), header["sha256"]
        if any(n < 0 for s in shapes for n in s):
            raise ValueError
    except (KeyError, TypeError, ValueError):
        raise DamagedArtifactError(f"{path}: header does not describe a payload") from None
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise DamagedArtifactError(f"{path}: payload is missing") from None
    if len(data) != size or size != 4 * sum(math.prod(s) for s in shapes):
        raise DamagedArtifactError(f"{path}: payload is {len(data)} bytes, header says {size}")
    if hashlib.sha256(data).hexdigest() != digest:
        raise DamagedArtifactError(f"{path}: payload digest does not match its header")
    raw = np.frombuffer(data, dtype="<f4").astype(np.float64)
    arrays, off = [], 0
    for s in shapes:
        n = math.prod(s)
        arrays.append(raw[off : off + n].reshape(s))
        off += n
    return header, arrays
