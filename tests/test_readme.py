"""The README's Python example and CLI lines run as written."""

import re
import shlex
from pathlib import Path

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
