"""Every library name the traced benchmark wraps or calls must exist, and
every call it makes must still bind, so a change that deletes or renames
one, or drops a parameter it passes, fails here instead of breaking
`perfbench/run.py --trace 1`."""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402
from randcert.cli import EXIT_ERROR, main  # noqa: E402


def _perfbench_trees():
    """(file name, syntax tree, names bound by `from randcert import ...`) of
    each perfbench/*.py."""
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        mods = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "randcert"
            for alias in node.names
        }
        yield path.name, tree, mods


def _direct_names() -> list[tuple[str, str]]:
    """Every <module>.<name> attribute that perfbench/*.py reads off a module
    it imports with `from randcert import ...`."""
    names = set()
    for _, tree, mods in _perfbench_trees():
        names |= {
            (node.value.id, node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in mods
        }
    return sorted(names)


def _bound_calls() -> list[tuple[str, str, str, int, tuple[str, ...]]]:
    """Every call <module>.<name>(...) that perfbench/*.py makes on such a
    module: where it is, and its positional count and keyword names."""
    calls = []
    for fname, tree, mods in _perfbench_trees():
        calls += [
            (
                f"{fname}:{node.lineno}",
                node.func.value.id,
                node.func.attr,
                len(node.args),
                tuple(k.arg for k in node.keywords),
            )
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in mods
        ]
    return sorted(calls)


DIRECT_CALLS = _direct_names()
BOUND_CALLS = _bound_calls()


@pytest.mark.parametrize(
    "modname, qual", [t[:2] for t in tracing.TARGETS], ids=lambda v: v
)
def test_target_resolves(modname, qual):
    mod = importlib.import_module(f"randcert.{modname}")
    owner, _, attr = qual.rpartition(".")
    found = getattr(mod, owner).__dict__.get(attr) if owner else getattr(mod, attr, None)
    assert callable(found), f"randcert.{modname}.{qual} is gone"


def test_direct_names_found():
    # the walk sees the names that workloads.py and tracing.py call
    assert {("bitstream", "write_ascii"), ("simgen", "gen_bernoulli"), ("cli", "main")} <= set(
        DIRECT_CALLS
    )


@pytest.mark.parametrize("modname, name", DIRECT_CALLS, ids=lambda v: v)
def test_direct_call_resolves(modname, name):
    mod = importlib.import_module(f"randcert.{modname}")
    assert hasattr(mod, name), f"randcert.{modname}.{name} is gone"


def test_bound_calls_found():
    # the walk sees positional and keyword arguments, in tracing.py and workloads.py
    found = {call[1:] for call in BOUND_CALLS}
    assert {
        ("blockstats", "count_blocks_parallel", 2, ("workers",)),
        ("extract", "TimeTagSeries", 3, ()),
        ("simgen", "gen_bernoulli", 1, ()),
    } <= found


@pytest.mark.parametrize(
    "where, modname, name, positional, keywords",
    BOUND_CALLS,
    # the ids leave out the line, so an edit that moves a call keeps them
    ids=[f"{c[0].partition(':')[0]}-{c[1]}.{c[2]}" for c in BOUND_CALLS],
)
def test_direct_call_binds(where, modname, name, positional, keywords):
    target = getattr(importlib.import_module(f"randcert.{modname}"), name)
    try:
        inspect.signature(target).bind(*range(positional), **dict.fromkeys(keywords))
    except TypeError as exc:
        pytest.fail(f"{where}: randcert.{modname}.{name} no longer takes this call: {exc}")


# every reader and writer the CLI reaches, and the extraction steps it calls
# on each chunk, with a step that reaches it; the traced run replaces each on
# its module, so the CLI must look it up there when it calls it, not keep a
# reference taken at import
GENERATE = ["generate", "--n", "64", "--seed", "1", "--out", "{o}", "--kind"]
EXTRACT = ["extract", "{tags}", "--format", "text", "--kind", "timestamps", "--out", "{o}"]
REACHED = [
    ("bitstream", "stream_packed", ["analyze", "{packed}", "--format", "packed"]),
    ("bitstream", "stream_ascii", ["analyze", "{ascii}", "--format", "ascii"]),
    ("bitstream", "write_packed", GENERATE + ["markov"]),
    ("bitstream", "write_ascii", GENERATE + ["markov", "--out-format", "ascii"]),
    ("extract", "stream_timetags", EXTRACT),
    ("extract", "interarrivals", EXTRACT),
    ("extract", "timetags_to_bits", EXTRACT),
    ("extract", "write_timetags_text", GENERATE + ["detector", "--out-format", "timetags-text"]),
    ("extract", "write_timetags_binary", GENERATE + ["detector", "--out-format", "timetags-binary"]),
]


@pytest.mark.parametrize("modname, name, argv", REACHED, ids=[f"{m}.{n}" for m, n, _ in REACHED])
def test_cli_calls_function_replaced_on_its_module(tmp_path, monkeypatch, modname, name, argv):
    files = {"packed": tmp_path / "b.bin", "ascii": tmp_path / "b.txt", "tags": tmp_path / "t.txt"}
    files["packed"].write_bytes(bytes(range(64)))
    files["ascii"].write_text("0110" * 64 + "\n")
    files["tags"].write_text("100\n250\n400\n")
    argv = [a.format(o=tmp_path / "out", **files) for a in argv]
    mod = importlib.import_module(f"randcert.{modname}")
    orig, calls = getattr(mod, name), []

    def spy(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(mod, name, spy)
    assert main(argv) != EXIT_ERROR
    assert len(calls) == 1, f"{argv[0]} did not call the replaced randcert.{modname}.{name}"
