import ast
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from asrlab import atomic
from asrlab import config as C
from asrlab import models as M
from asrlab import tensor as T
from asrlab.atomic import atomic_write
from asrlab.data import Manifest
from asrlab.decode import read_nbest
from asrlab.errors import DataError
from asrlab.lm import NGramLm
from asrlab.tokenizer import SubwordModel

PROC_FD = Path("/proc/self/fd")


def settled_descriptors() -> int:
    """The count of this process's open descriptors once the file that the
    last replace displaced has been closed."""
    join_reclaim()
    return len(os.listdir(PROC_FD))


def join_reclaim() -> None:
    if atomic._reclaim is not None:
        atomic._reclaim.join(timeout=30)
        assert not atomic._reclaim.is_alive()


def in_place_writes(source: str) -> list[int]:
    """Lines of the calls in source that write a file other than through
    atomic_write: the builtin open or any .open with a mode holding w, a, x
    or + (or a mode that is not a literal), and any .write_text or
    .write_bytes. A wave module's open is allowed on a handle that a
    ``with atomic_write(...) as handle`` of the same module bound."""
    tree = ast.parse(source)
    wave = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if alias.name == "wave"}
    handles = {item.optional_vars.id for node in ast.walk(tree) if isinstance(node, ast.With)
               for item in node.items if isinstance(item.optional_vars, ast.Name)
               and isinstance(item.context_expr, ast.Call) and isinstance(item.context_expr.func, ast.Name)
               and item.context_expr.func.id == "atomic_write"}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
            lines.append(node.lineno)
            continue
        if isinstance(func, ast.Attribute) and func.attr == "open" and isinstance(func.value, ast.Name) \
                and func.value.id in wave:
            if args and isinstance(args[0], ast.Name) and args[0].id in handles:
                continue
            mode_at = 1
        elif isinstance(func, ast.Name) and func.id == "open":
            mode_at = 1
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            mode_at = 0  # Path.open(mode)
        else:
            continue
        mode = next((kw.value for kw in node.keywords if kw.arg == "mode"),
                    args[mode_at] if len(args) > mode_at else None)
        if mode is None:
            continue  # the default mode reads
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or set(mode.value) & set("wax+"):
            lines.append(node.lineno)
    return sorted(lines)


def test_package_writes_files_only_through_atomic_write():
    package = Path(atomic.__file__).parent
    found = {path.name: in_place_writes(path.read_text()) for path in sorted(package.glob("*.py"))
             if path.name != "atomic.py"}
    assert len(found) > 10
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_in_place_writes_finds_every_plain_write():
    source = """
import wave
import wave as _wave
from pathlib import Path

def writes(path, mode):
    open(path, "w")
    open(path, mode="ab")
    open(path, "r+")
    Path(path).open("x")
    Path(path).write_text("t")
    path.write_bytes(b"")
    open(path, mode)
    wave.open(str(path), "wb")

def reads(path):
    open(path)
    open(path, "rb")
    Path(path).open()
    _wave.open(str(path), "rb")
    with atomic_write(path, "wb") as raw, _wave.open(raw, "wb") as fh:
        pass
"""
    assert in_place_writes(source) == list(range(7, 15))


def text_opens_without_encoding(source: str) -> list[int]:
    """Lines of the builtin open and atomic_write calls in source that open a
    file in text mode (the default mode, a mode without b, or a mode that is
    not a literal) and pass no encoding keyword."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("open", "atomic_write")):
            continue
        mode = next((kw.value for kw in node.keywords if kw.arg == "mode"),
                    node.args[1] if len(node.args) > 1 else None)
        binary = isinstance(mode, ast.Constant) and isinstance(mode.value, str) and "b" in mode.value
        if not binary and not any(kw.arg == "encoding" for kw in node.keywords):
            lines.append(node.lineno)
    return sorted(lines)


def test_package_opens_text_files_with_an_encoding():
    package = Path(atomic.__file__).parent
    found = {path.name: text_opens_without_encoding(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py")) if path.name != "atomic.py"}
    assert len(found) > 10
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_text_opens_without_encoding_finds_every_bare_text_open():
    source = """
def bare(path, mode):
    open(path)
    open(path, "r")
    open(path, mode="w")
    open(path, mode)
    atomic_write(path)
    atomic_write(path, newline="")

def fine(path):
    open(path, encoding="utf-8")
    open(path, "rb")
    open(path, mode="rb")
    atomic_write(path, "wb")
    atomic_write(path, newline="", encoding="utf-8")
    Path(path).open("rb")
    _wave.open(str(path), "rb")
"""
    assert text_opens_without_encoding(source) == list(range(3, 9))


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


@pytest.mark.skipif(not PROC_FD.is_dir(), reason="needs /proc/self/fd")
def test_replacing_a_file_leaks_no_descriptor(tmp_path):
    path = tmp_path / "out.bin"
    start = settled_descriptors()
    for i in range(50):
        with atomic_write(path, "wb") as fh:
            fh.write(bytes([i]) * 4096)
    assert settled_descriptors() == start
    assert path.read_bytes() == bytes([49]) * 4096


def test_the_replaced_file_is_closed_off_the_writing_thread(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"
    with atomic_write(path, encoding="utf-8") as fh:
        fh.write("old")
    old_inode = path.stat().st_ino
    closes = []
    close = os.close

    def recording_close(fd):
        closes.append((os.fstat(fd).st_ino, threading.current_thread() is threading.main_thread()))
        close(fd)

    monkeypatch.setattr(os, "close", recording_close)
    with atomic_write(path, encoding="utf-8") as fh:
        fh.write("new")
    join_reclaim()
    assert closes == [(old_inode, False)]
    assert not atomic._reclaim.daemon
    assert path.read_text(encoding="utf-8") == "new"


@pytest.mark.skipif(not PROC_FD.is_dir(), reason="needs /proc/self/fd")
def test_writers_on_many_threads_keep_one_close_in_flight(tmp_path):
    start = settled_descriptors()
    in_flight = []

    def writer(k):
        for i in range(25):
            with atomic_write(tmp_path / f"{k}.txt", encoding="utf-8") as fh:
                in_flight.append(sum(t.name == "atomic_write-reclaim" for t in threading.enumerate()))
                fh.write(f"{k} {i}")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(in_flight) == 100 and max(in_flight) <= 1
    assert settled_descriptors() == start
    assert sorted(p.read_text(encoding="utf-8") for p in tmp_path.iterdir()) == [f"{k} 24" for k in range(4)]


@pytest.mark.skipif(not PROC_FD.is_dir(), reason="needs /proc/self/fd")
def test_a_failed_replace_leaves_the_target_and_no_temp_file_or_descriptor(tmp_path):
    target = tmp_path / "out"
    target.mkdir()
    with atomic_write(target / "kept.txt", encoding="utf-8") as fh:
        fh.write("kept")
    start = settled_descriptors()
    with pytest.raises(OSError):
        with atomic_write(target, encoding="utf-8") as fh:
            fh.write("new")
    assert settled_descriptors() == start
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert [p.name for p in target.iterdir()] == ["kept.txt"]
    assert (target / "kept.txt").read_text(encoding="utf-8") == "kept"


def test_a_reader_holding_the_old_checkpoint_keeps_reading_it(tmp_path):
    path = tmp_path / "m.ckpt"
    M.save_checkpoint(path, M.build_model(C.ctc_desk(vocab=20), seed=0))
    old = path.read_bytes()
    new_model = M.build_model(C.ctc_desk(vocab=20), seed=1)
    with open(path, "rb") as held:
        M.save_checkpoint(path, new_model)
        assert held.read() == old
    loaded = M.load_checkpoint(path).tensors
    assert loaded.keys() == new_model.named_tensors().keys()
    for name, arr in new_model.named_tensors().items():
        assert np.array_equal(loaded[name], arr), name
    assert path.read_bytes() != old


@pytest.mark.parametrize("read", [M.load_checkpoint, Manifest.read, read_nbest, NGramLm.load, SubwordModel.load],
                         ids=["checkpoint", "manifest", "nbest", "lm", "tokenizer"])
def test_every_reader_raises_data_error_for_a_path_that_is_not_a_file(tmp_path, read):
    with pytest.raises(DataError, match="not a file"):
        read(tmp_path)
