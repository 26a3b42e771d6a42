import json
import struct

import numpy as np
import pytest

from splitflow import (Discriminator, StudentModel, TeacherModel,
                       load_checkpoint, make_rng, save_checkpoint)
from splitflow.checkpoint import MAGIC, VERSION, CheckpointFormatError


def make_teacher(seed=0):
    return TeacherModel(2, 1, hidden_sizes=(8, 8), time_embed_dim=8,
                        rng=np.random.default_rng(seed))


def test_save_load_save_is_byte_identical(tmp_path):
    model = make_teacher()
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    save_checkpoint(model, {"iteration": 10, "config_fingerprint": "abc"}, p1)
    loaded, meta = load_checkpoint(p1)
    assert meta["iteration"] == 10
    assert meta["config_fingerprint"] == "abc"
    save_checkpoint(loaded, {"iteration": 10, "config_fingerprint": "abc"}, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_parameters_survive_round_trip_exactly(tmp_path):
    model = make_teacher(seed=4)
    path = tmp_path / "t.ckpt"
    save_checkpoint(model, {}, path)
    loaded, _ = load_checkpoint(path)
    for (na, pa), (nb, pb) in zip(model.named_parameters(),
                                  loaded.named_parameters()):
        assert na == nb
        assert np.array_equal(pa.values, pb.values)
    z = make_rng(1).standard_normal((4, 2)).astype(np.float32)
    cond = np.zeros((4, 1), dtype=np.float32)
    assert np.array_equal(model.velocity(z, 0.5, cond).values,
                          loaded.velocity(z, 0.5, cond).values)


def test_student_and_discriminator_round_trip(tmp_path):
    student = StudentModel.from_teacher(make_teacher(seed=2))
    disc = Discriminator(256, hidden=8, rng=np.random.default_rng(1),
                         pool_from=16, pool_to=4)
    for model, name in ((student, "s.ckpt"), (disc, "d.ckpt")):
        path = tmp_path / name
        save_checkpoint(model, {"iteration": 0}, path)
        loaded, meta = load_checkpoint(path)
        assert meta["kind"] == model.kind
        for (_, pa), (_, pb) in zip(model.named_parameters(),
                                    loaded.named_parameters()):
            assert np.array_equal(pa.values, pb.values)
    assert loaded.pool_from == 16 and loaded.pool_to == 4


def make_model(kind):
    if kind == "teacher":
        return make_teacher(seed=5)
    if kind == "student":
        student = StudentModel(2, 1, hidden_sizes=(8, 8), time_embed_dim=8,
                               rng=make_rng(6))
        student.proj_r.values += 0.25    # away from its zero start
        return student
    return Discriminator(256, hidden=8, rng=make_rng(7), pool_from=16, pool_to=4)


@pytest.mark.parametrize("kind", ["teacher", "student", "discriminator"])
def test_copy_saves_the_same_bytes_and_is_independent(tmp_path, kind):
    model = make_model(kind)
    clone = model.copy()
    assert type(clone) is type(model)
    save_checkpoint(model, {"iteration": 3}, tmp_path / "a.ckpt")
    save_checkpoint(clone, {"iteration": 3}, tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
    before = [p.values.copy() for p in model.parameters()]
    for p in clone.parameters():
        p.values += 1.0
    for original, p in zip(before, model.parameters()):
        assert np.array_equal(original, p.values)


@pytest.mark.parametrize("kind", ["teacher", "student", "discriminator"])
def test_from_spec_alone_gives_zero_mlp_weights(kind):
    model = make_model(kind)
    rebuilt = type(model).from_spec(model.spec())
    assert rebuilt.spec() == model.spec()
    for p in rebuilt.net.parameters():
        assert p.values.dtype == np.float32
        assert not np.any(p.values)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(CheckpointFormatError, match="magic"):
        load_checkpoint(path)


def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "v9.ckpt"
    path.write_bytes(MAGIC + struct.pack("<I", 9) + struct.pack("<I", 0))
    with pytest.raises(CheckpointFormatError, match=r"version 9 in .*v9\.ckpt"):
        load_checkpoint(path)


def test_truncated_payload_rejected(tmp_path):
    model = make_teacher()
    path = tmp_path / "full.ckpt"
    save_checkpoint(model, {}, path)
    data = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(data[:len(data) - 40])
    with pytest.raises(CheckpointFormatError, match=r"payload of .*cut\.ckpt"):
        load_checkpoint(cut)


def test_truncated_metadata_rejected(tmp_path):
    blob = json.dumps({"kind": "teacher"}).encode()
    path = tmp_path / "meta.ckpt"
    path.write_bytes(MAGIC + struct.pack("<I", VERSION)
                     + struct.pack("<I", len(blob) + 100) + blob)
    with pytest.raises(CheckpointFormatError, match=r"metadata in .*meta\.ckpt"):
        load_checkpoint(path)


def test_param_count_mismatch_detected_before_loading(tmp_path):
    model = make_teacher()
    path = tmp_path / "t.ckpt"
    save_checkpoint(model, {}, path)
    data = bytearray(path.read_bytes())
    (meta_len,) = struct.unpack("<I", data[8:12])
    meta = json.loads(bytes(data[12:12 + meta_len]).decode())
    # declare a different architecture than the payload carries
    meta["layer_sizes"] = [4, 4, 2]
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode()
    forged = (bytes(data[:8]) + struct.pack("<I", len(blob)) + blob
              + bytes(data[12 + meta_len:]))
    bad = tmp_path / "forged.ckpt"
    bad.write_bytes(forged)
    with pytest.raises(CheckpointFormatError,
                       match=r"parameters, header of .*forged\.ckpt"):
        load_checkpoint(bad)


def test_unknown_kind_rejected(tmp_path):
    blob = json.dumps({"kind": "vae", "param_count": 0}).encode()
    path = tmp_path / "vae.ckpt"
    path.write_bytes(MAGIC + struct.pack("<I", VERSION)
                     + struct.pack("<I", len(blob)) + blob)
    with pytest.raises((CheckpointFormatError, ValueError)):
        load_checkpoint(path)


@pytest.mark.parametrize("blob", [
    json.dumps({"kind": "teacher", "param_count": 0}).encode(),
    b"{not json",
    b"\xff\xfe\x00",
], ids=["missing-spec-key", "not-json", "not-utf8"])
def test_malformed_header_rejected_naming_the_path(tmp_path, blob):
    path = tmp_path / "header.ckpt"
    path.write_bytes(MAGIC + struct.pack("<I", VERSION)
                     + struct.pack("<I", len(blob)) + blob)
    with pytest.raises(CheckpointFormatError, match="header.ckpt"):
        load_checkpoint(path)
