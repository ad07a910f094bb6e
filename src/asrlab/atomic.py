"""Atomic file writes: a reader sees the old file or the new one, never a torn one.

When a rename replaces a file, the kernel frees the old file's pages inside
the rename, and waits on their writeback; for a paper-shape checkpoint that
takes longer than writing the new one. So atomic_write holds the old file
open across the rename and closes it on a thread, where the last close frees
it while the writer goes on. At most one such close is in flight: the next
replace joins it first, so at most one replaced file waits to be freed. The
thread is not a daemon, so the interpreter waits for it at exit.
"""

import os
import threading
from contextlib import contextmanager
from pathlib import Path

_replace_lock = threading.Lock()
_reclaim = None  # the thread closing the file that the last replace displaced


@contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Yield a temp file beside path, opened with mode, that replaces path
    only if the block exits cleanly; the parent directory is created first."""
    global _reclaim
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        with _replace_lock:
            if _reclaim is not None:
                _reclaim.join()
            try:  # O_NONBLOCK: opening a FIFO must not wait for a writer
                old = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
            except OSError:  # no file yet, or no permission: the rename frees it
                old = None
            try:
                os.replace(tmp, path)
            except BaseException:
                if old is not None:
                    os.close(old)
                raise
            if old is not None:
                _reclaim = threading.Thread(target=os.close, args=(old,), name="atomic_write-reclaim")
                _reclaim.start()
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
