"""Atomic artifact writes: the target holds the old bytes or the new ones."""

import pytest

from qpatch.atomic import atomic_write


def test_success_replaces_the_target_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "sub" / "a.bin"
    for payload in (b"first", b"second"):
        with atomic_write(path, "wb") as fh:
            fh.write(payload)
        assert path.read_bytes() == payload
    assert [f.name for f in path.parent.iterdir()] == ["a.bin"]


def test_writer_raising_partway_keeps_the_previous_artifact(tmp_path):
    path = tmp_path / "report.json"
    path.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write("half of the new")
            raise RuntimeError("writer failed")
    assert path.read_text() == "old\n"
    assert [f.name for f in tmp_path.iterdir()] == ["report.json"]
