import pytest

from asrlab import config as C
from asrlab import models as M
from asrlab import tensor as T
from asrlab.atomic import atomic_write


def test_atomic_write_creates_parents_and_replaces(tmp_path):
    path = tmp_path / "a" / "b" / "out.txt"
    with atomic_write(path) as fh:
        fh.write("first")
    with atomic_write(path) as fh:
        fh.write("second")
    assert path.read_text() == "second"
    assert sorted(p.name for p in path.parent.iterdir()) == ["out.txt"]


def test_atomic_write_error_leaves_no_file(tmp_path):
    path = tmp_path / "out.txt"
    with pytest.raises(RuntimeError):
        with atomic_write(path) as fh:
            fh.write("partial")
            raise RuntimeError("midway")
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_save_failing_midway_keeps_old_file(tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    M.save_checkpoint(path, M.build_model(C.ctc_desk(vocab=20), seed=0))
    before = path.read_bytes()

    write_array = T.write_array
    calls = []

    def failing_write_array(fh, arr):
        calls.append(1)
        if len(calls) == 3:
            raise OSError("disk full")
        write_array(fh, arr)

    monkeypatch.setattr(T, "write_array", failing_write_array)
    with pytest.raises(OSError, match="disk full"):
        M.save_checkpoint(path, M.build_model(C.ctc_desk(vocab=20), seed=1))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
