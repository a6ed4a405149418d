"""Every library name the traced benchmark wraps or calls must exist, so a
change that deletes or renames one fails here instead of breaking
`perfbench/run.py --trace 1`."""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402

# called by name from tracing.py rather than wrapped through TARGETS
DIRECT_CALLS = [
    ("bitstream", "stream_packed"),
    ("blockstats", "count_blocks_parallel"),
    ("specialfn", "log_gamma"),
    ("extract", "load_timetags_binary"),
    ("extract", "write_timetags_binary"),
    ("extract", "TimeTagSeries"),
]


@pytest.mark.parametrize(
    "modname, qual", [t[:2] for t in tracing.TARGETS], ids=lambda v: v
)
def test_target_resolves(modname, qual):
    mod = importlib.import_module(f"randcert.{modname}")
    owner, _, attr = qual.rpartition(".")
    found = getattr(mod, owner).__dict__.get(attr) if owner else getattr(mod, attr, None)
    assert callable(found), f"randcert.{modname}.{qual} is gone"


@pytest.mark.parametrize("modname, name", DIRECT_CALLS, ids=lambda v: v)
def test_direct_call_resolves(modname, name):
    mod = importlib.import_module(f"randcert.{modname}")
    assert callable(getattr(mod, name, None)), f"randcert.{modname}.{name} is gone"
