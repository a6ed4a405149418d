import contextlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import randcert
from randcert.bitstream import BitSequence


def bits_from_string(s: str) -> BitSequence:
    return BitSequence.from_bits(int(ch) for ch in s)


@pytest.fixture
def tmp_bits_file(tmp_path):
    def _write(name, content, binary=False):
        p = tmp_path / name
        if binary:
            p.write_bytes(content)
        else:
            p.write_text(content)
        return p

    return _write


def make_counts(level, mapping, total=None):
    """BlockCounts from {index: count}."""
    from randcert.blockstats import BlockCounts

    arr = np.zeros(1 << level, dtype=np.int64)
    for j, c in mapping.items():
        arr[j] = c
    return BlockCounts(level, arr, total if total is not None else int(arr.sum()))


def traced_peak(fn) -> int:
    """The peak of the memory that numpy and Python allocate while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def python_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports this checkout's randcert."""
    src = str(Path(randcert.__file__).parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_python(code: str, *args: str, cwd=None) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this checkout's randcert."""
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        check=True,
        cwd=cwd,
        env=python_env(),
    )


@contextlib.contextmanager
def endless_pipe(head: bytes, body: bytes):
    """The read end of a pipe that a child interpreter fills with head, then
    with body over and over, as stdin for another child; the writer is
    killed on exit."""
    program = f"import sys\nw = sys.stdout.buffer.write\nw({head!r})\nwhile True:\n    w({body!r} * 4096)"
    feeder = subprocess.Popen([sys.executable, "-c", program], stdout=subprocess.PIPE)
    try:
        yield feeder.stdout
    finally:
        feeder.kill()
        feeder.communicate()
