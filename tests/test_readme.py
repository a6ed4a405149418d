"""The README's Python example and CLI lines run as written, and the names
in its library overview exist."""

import importlib
import re
import shlex
from pathlib import Path

import randcert
from randcert.cli import EXIT_FAIL, EXIT_PASS, main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(lang: str, after: str) -> str:
    start = README.index(after)
    return re.search(rf"```{lang}\n(.*?)```", README[start:], re.S).group(1)


def test_python_example(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(_block("python", "## Library overview"), {})
    assert capsys.readouterr().out.strip() in ("True", "False")


def test_cli_lines(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    lines = [ln for ln in _block("", "## CLI").splitlines() if ln.startswith("randcert ")]
    assert len(lines) == 6
    for line in lines:
        assert main(shlex.split(line)[1:]) in (EXIT_PASS, EXIT_FAIL), line


def _resolves(obj, dotted: str) -> bool:
    for name in dotted.split("."):
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_library_overview_names_resolve():
    """Every identifier in backticks in the Library overview table is an
    attribute of its row's module, or of randcert."""
    table = README[README.index("## Library overview") : README.index("Example:")]
    rows = re.findall(r"^\| `(randcert\.\w+)` \| (.*) \|$", table, re.M)
    assert len(rows) == 8
    missing = [
        (module, name)
        for module, contents in rows
        for name in re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`", contents)
        if not any(_resolves(obj, name) for obj in (importlib.import_module(module), randcert))
    ]
    assert not missing
