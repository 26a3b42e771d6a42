"""Binary checkpoint format.

Layout: magic "SMF1", format version (u32 LE), length-prefixed UTF-8 JSON
metadata (the model's `spec()`, iteration, config fingerprint), then the
parameter payload as 32-bit little-endian floats in declared order.
save -> load -> save round-trips byte-identically.
"""

import json
import struct

import numpy as np

from .distill import StudentModel
from .flow import TeacherModel
from .refine import Discriminator

MAGIC = b"SMF1"
VERSION = 1

MODEL_KINDS = {cls.kind: cls for cls in (TeacherModel, StudentModel, Discriminator)}


class CheckpointFormatError(ValueError):
    pass


def save_checkpoint(model, meta, path):
    """Write model parameters plus metadata; `meta` is merged into the header."""
    kind = getattr(model, "kind", None)
    if kind not in MODEL_KINDS:
        raise ValueError(f"cannot checkpoint model of kind {kind!r}")
    header = dict(meta or {})
    header.update(model.spec())
    params = [p.values.astype("<f4") for _, p in model.named_parameters()]
    header["param_count"] = int(sum(p.size for p in params))
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for p in params:
            fh.write(p.tobytes())


def load_checkpoint(path):
    """Read a checkpoint; returns (model, metadata dict).

    The header must name a known model kind and carry its `spec()` keys;
    parameter-count consistency is checked against the file size before any
    parameter array is populated.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12 or data[:4] != MAGIC:
        raise CheckpointFormatError(f"bad checkpoint magic in {path}")
    (version,) = struct.unpack("<I", data[4:8])
    if version != VERSION:
        raise CheckpointFormatError(f"unsupported checkpoint version {version} in {path}")
    (meta_len,) = struct.unpack("<I", data[8:12])
    if len(data) < 12 + meta_len:
        raise CheckpointFormatError(f"truncated checkpoint metadata in {path}")
    try:
        meta = json.loads(data[12:12 + meta_len].decode("utf-8"))
        model = MODEL_KINDS[meta["kind"]].from_spec(meta)
    except (KeyError, TypeError, ValueError, MemoryError) as exc:
        # ValueError covers undecodable UTF-8 and JSON as well as sizes the
        # model constructors reject; MemoryError, layer sizes too large to build.
        raise CheckpointFormatError(
            f"malformed checkpoint header in {path}: {exc!r}") from exc
    sizes = [p.values.size for p in model.parameters()]
    expected = sum(sizes)
    if meta.get("param_count") != expected:
        raise CheckpointFormatError(
            f"layer sizes declare {expected} parameters, header of {path} says "
            f"{meta.get('param_count')}")
    payload = data[12 + meta_len:]
    if len(payload) != 4 * expected:
        raise CheckpointFormatError(
            f"payload of {path} holds {len(payload) // 4} floats, expected {expected}")
    flat = np.frombuffer(payload, dtype="<f4")
    model.load_parameters(np.split(flat, np.cumsum(sizes)[:-1]))
    return model, meta
