import ast
from pathlib import Path

import pytest

from asrlab import atomic
from asrlab import config as C
from asrlab import models as M
from asrlab import tensor as T
from asrlab.atomic import atomic_write


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
