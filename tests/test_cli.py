import dataclasses
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from randcert import bitstream, blockstats, extract, simgen
from randcert.cli import EXIT_ERROR, EXIT_FAIL, EXIT_PASS, main

from conftest import bits_from_string, endless_pipe, python_env, run_python


@pytest.fixture(scope="module")
def unbiased_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("cli") / "unbiased.bin"
    seq = simgen.gen_bernoulli(simgen.GeneratorConfig("bernoulli", n=2**20, seed=42))
    bitstream.write_packed(seq, p)
    return p


@pytest.fixture(scope="module")
def markov_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("cli") / "markov.bin"
    seq = simgen.gen_markov(simgen.GeneratorConfig("markov", n=2**20, seed=7, stay_prob=0.55))
    bitstream.write_packed(seq, p)
    return p


class TestAnalyze:
    def test_unbiased_passes(self, unbiased_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["analyze", str(unbiased_file), "--format", "packed", "--json", str(out)])
        assert rc == EXIT_PASS
        report = json.loads(out.read_text())
        assert report["overall"] is True
        assert [lvl["i"] for lvl in report["borel"]["levels"]] == [1, 2, 3, 4]

    def test_biased_fails_with_exit_one(self, markov_file, capsys):
        rc = main(["analyze", str(markov_file), "--format", "packed"])
        assert rc == EXIT_FAIL
        assert "FAIL" in capsys.readouterr().out

    def test_level_beyond_imax_is_usage_error(self, unbiased_file, capsys):
        rc = main(["analyze", str(unbiased_file), "--format", "packed", "--max-level", "9"])
        assert rc == EXIT_ERROR
        assert "i_max=4" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["analyze", "/nonexistent", "--format", "ascii"]) == EXIT_ERROR

    def test_json_roundtrip(self, unbiased_file, tmp_path):
        out = tmp_path / "r.json"
        main(["analyze", str(unbiased_file), "--format", "packed", "--json", str(out)])
        report = json.loads(out.read_text())
        assert json.loads(json.dumps(report)) == report

    def test_csv_emission(self, unbiased_file, tmp_path):
        out = tmp_path / "r.csv"
        main(["analyze", str(unbiased_file), "--format", "packed", "--csv", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0] == "level,substring,deviation,borel_bound,bayes_rhs_for_level"
        # 2 + 4 + 8 + 16 substrings across levels 1..4
        assert len(lines) == 1 + 30

    def test_posterior_section(self, tmp_path, capsys):
        p = tmp_path / "small.txt"
        seq = simgen.gen_bernoulli(simgen.GeneratorConfig("bernoulli", n=4096, seed=9))
        bitstream.write_ascii(seq, p)
        out = tmp_path / "r.json"
        rc = main(
            ["analyze", str(p), "--format", "ascii", "--bayes-posterior", "--json", str(out)]
        )
        report = json.loads(out.read_text())
        assert len(report["posterior"]) == 3  # i_max(4096) = 3
        assert report["posterior"][0]["symmetric_posterior"] is not None
        assert rc in (EXIT_PASS, EXIT_FAIL)

    def test_posterior_stops_at_level_four(self, tmp_path, monkeypatch, capsys):
        p = tmp_path / "small.txt"
        bitstream.write_ascii(
            simgen.gen_bernoulli(simgen.GeneratorConfig("bernoulli", n=4096, seed=9)), p
        )
        monkeypatch.setattr(blockstats, "max_borel_level", lambda n: 5)
        out = tmp_path / "r.json"
        rc = main(
            ["analyze", str(p), "--format", "ascii", "--bayes-posterior", "--json", str(out)]
        )
        assert rc in (EXIT_PASS, EXIT_FAIL)
        report = json.loads(out.read_text())
        assert [level["level"] for level in report["posterior"]] == [1, 2, 3, 4]
        assert len(report["bayes_bound"]["levels"]) == 5

    @pytest.mark.parametrize("extra", [[], ["--bayes-posterior"]])
    def test_counts_each_level_once(self, tmp_path, monkeypatch, capsys, extra):
        p = tmp_path / "small.txt"
        bitstream.write_ascii(
            simgen.gen_bernoulli(simgen.GeneratorConfig("bernoulli", n=4096, seed=9)), p
        )
        calls = []
        orig = blockstats._count_packed

        def spy(data, nbits, levels):
            calls.append(tuple(levels))
            return orig(data, nbits, levels)

        # replace the counting kernel wherever a randcert module binds it
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "randcert" and getattr(mod, "_count_packed", None) is orig:
                monkeypatch.setattr(mod, "_count_packed", spy)
        out = tmp_path / "r.json"
        rc = main(["analyze", str(p), "--format", "ascii", "--json", str(out)] + extra)
        assert rc in (EXIT_PASS, EXIT_FAIL)
        assert calls == [(1, 2, 3)]  # one walk for every level; i_max(4096) = 3


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{f}", "--format", "packed", "--max-level", "0"],
        ["bounds", "1048576", "--levels", "0"],
        ["posterior", "{f}", "--format", "packed", "--level", "0"],
        ["posterior", "{f}", "--format", "packed", "--level", "-1"],
    ],
)
def test_level_outside_range_is_usage_error(unbiased_file, capsys, argv):
    assert main([a.format(f=unbiased_file) for a in argv]) == EXIT_ERROR
    assert "i_max=4" in capsys.readouterr().err


class TestBounds:
    def test_published_columns(self, capsys, tmp_path):
        out = tmp_path / "b.json"
        rc = main(["bounds", str(2**32), "--json", str(out)])
        assert rc == EXIT_PASS
        data = json.loads(out.read_text())
        assert data["bounds"][0]["borel_bound"] == pytest.approx(8.6314e-5, rel=1e-4)
        expected = [3.62956e-5, 6.08097e-5, 7.82572e-5, 9.11726e-5, 1.01069e-4]
        got = [row["bayes_rhs"] for row in data["bounds"]]
        assert got == pytest.approx(expected, rel=1e-5)

    def test_small_n(self, capsys):
        assert main(["bounds", "16", "--levels", "1"]) == EXIT_PASS
        assert "0.5" in capsys.readouterr().out

    def test_level_exceeding_imax(self, capsys):
        assert main(["bounds", "16", "--levels", "3"]) == EXIT_ERROR
        assert "i_max=2" in capsys.readouterr().err

    def test_2_to_400_gives_eight_finite_rows(self, capsys):
        # the right sides no longer cancel to 0 in floats from n = 2^54 up
        assert main(["bounds", str(2**400)]) == EXIT_PASS
        rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
        assert [int(r[0]) for r in rows] == list(range(1, 9))
        assert all(0 < float(v) < math.inf for r in rows for v in r[1:])


@pytest.mark.parametrize(
    "argv, error",
    [
        (["bounds", str(10**400)], "bound needs n < 2^1024 - 2^970, where floats end, got n="),
        (["bounds", str(2**1023)], "bound needs n <= 1340780792994259672743259815885511300172"),
        (["bounds", str(2**512 - 1)], "bound needs n <= 1340780792994259672743259815885511300172"),
        (["bounds", str(2**512)], "bound needs n <= 1340780792994259672743259815885511300172"),
        (
            ["extract", "{tags}", "--format", "text", "--kind", "timestamps",
             "--divisor", str(10**30), "--out", "{out}"],
            f"divisor {10**30} exceeds 2^63 - 1",
        ),
    ],
    ids=[
        "bounds-beyond-float", "bounds-2^1023", "bounds-2^512-1", "bounds-2^512",
        "extract-huge-divisor",
    ],
)
def test_out_of_range_number_is_usage_error(tmp_path, capsys, argv, error):
    tags = tmp_path / "t.txt"
    tags.write_text("100\n250\n400\n")
    argv = [a.format(tags=tags, out=tmp_path / "o") for a in argv]
    assert main(argv) == EXIT_ERROR
    out, err = capsys.readouterr()
    assert err.startswith(f"error: {error}") and err.count("\n") == 1
    assert out == "" and not (tmp_path / "o").exists()


class TestExtract:
    def test_published_listing(self, tmp_path, capsys):
        src = tmp_path / "tags.txt"
        src.write_text("592 342 ps\n595 634 ps\n593 645 ps\n")
        out = tmp_path / "bits.txt"
        rc = main(
            [
                "extract",
                str(src),
                "--format",
                "text",
                "--kind",
                "interarrivals",
                "--out",
                str(out),
                "--out-format",
                "ascii",
            ]
        )
        assert rc == EXIT_PASS
        assert out.read_text().strip() == "001"

    def test_timestamps_are_differenced(self, tmp_path, capsys):
        src = tmp_path / "tags.txt"
        src.write_text("100\n250\n400\n")
        out = tmp_path / "bits.txt"
        rc = main(
            [
                "extract",
                str(src),
                "--format",
                "text",
                "--kind",
                "timestamps",
                "--out",
                str(out),
                "--out-format",
                "ascii",
            ]
        )
        assert rc == EXIT_PASS
        assert out.read_text().strip() == "00"
        assert "n = 2" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "kind, text",
        [("timestamps", "100\n"), ("timestamps", ""), ("interarrivals", "")],
        ids=["one-timestamp", "no-timestamps", "no-interarrivals"],
    )
    def test_empty_input(self, tmp_path, kind, text):
        src = tmp_path / "tags.txt"
        src.write_text(text)
        out = tmp_path / "o"
        rc = main(["extract", str(src), "--format", "text", "--kind", kind, "--out", str(out)])
        assert rc == EXIT_ERROR
        assert not out.exists()

    def test_plain_and_grouped_tags_give_same_bits(self, tmp_path):
        tags = [0, 592342, 1187976, 1781621, 999999999999, 1000000000007]
        plain, grouped = tmp_path / "plain.txt", tmp_path / "grouped.txt"
        plain.write_text("".join(f"{t}\n" for t in tags))
        grouped.write_text("".join(f"{t:,} ps\n".replace(",", " ") for t in tags))
        outs = []
        for src in (plain, grouped):
            out = tmp_path / f"{src.stem}.bits"
            argv = ["extract", str(src), "--format", "text", "--kind", "timestamps"]
            assert main(argv + ["--out", str(out)]) == EXIT_PASS
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "fmt, data, error, pipe",
        [
            ("text", b"1\n9223372036854775808\n", "line 2: time value exceeds", False),
            (
                "binary",
                np.array([1, 2, 3], dtype="<u8").tobytes() + b"\x01\x02\x03",
                "file size 27 bytes",
                False,
            ),
            ("text", b"100\n200\n\xd9\xa3\xd9\xa3\xd9\xa3\n", "line 3: no number found", False),
            ("text", "100\n2\u00b2\n".encode(), "line 2: no number found", False),
            ("text", b"100\n\xff\n", "line 2: no number found", False),
            ("binary", b"\xff" * 8 + b"\x01\x02\x03", "time value exceeds", False),
            ("binary", b"\xff" * 8 + b"\x01\x02\x03", "time value exceeds", True),
        ],
        ids=[
            "text-beyond-int64",
            "binary-truncated",
            "text-arabic-indic-three",
            "text-superscript-two",
            "text-non-utf8-byte",
            "binary-truncated-beyond-int64",
            "binary-truncated-beyond-int64-pipe",
        ],
    )
    def test_bad_input_is_usage_error(self, tmp_path, capsys, fmt, data, error, pipe):
        src = tmp_path / "tags"
        src.write_bytes(data)
        if pipe:  # a pipe has no size; the fault first in the input is reported, as from a file
            r, w = os.pipe()
            os.write(w, data)
            os.close(w)
            src = f"/dev/fd/{r}"
        out = tmp_path / "o"
        argv = ["extract", str(src), "--format", fmt, "--kind", "timestamps", "--out", str(out)]
        try:
            rc = main(argv)
        finally:
            if pipe:
                os.close(r)
        assert rc == EXIT_ERROR
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"error: {error}")

    @pytest.mark.parametrize("existing", [None, b"old bits"], ids=["new", "existing"])
    def test_fault_after_written_chunks_leaves_out_as_it_was(
        self, tmp_path, monkeypatch, capsys, existing
    ):
        # 64-byte reads: the bits of many chunks are written before line 201 is read
        src = tmp_path / "tags.txt"
        src.write_text("".join(f"{100 * k}\n" for k in range(200)) + "x\n")
        out = tmp_path / "bits"
        if existing is not None:
            out.write_bytes(existing)
        monkeypatch.setattr(extract, "_READ", 64)
        argv = ["extract", str(src), "--format", "text", "--kind", "timestamps", "--out", str(out)]
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err == "error: line 201: no number found in 'x'\n"
        assert (out.read_bytes() if out.exists() else None) == existing
        assert len(list(tmp_path.iterdir())) == 1 + (existing is not None)  # no temporary file


class TestOutput:
    def test_regular_out_keeps_its_mode_and_symlink(self, tmp_path):
        target, link = tmp_path / "target.bin", tmp_path / "link.bin"
        target.write_bytes(b"old")
        target.chmod(0o640)
        link.symlink_to(target)
        argv = ["generate", "--kind", "markov", "--n", "64", "--seed", "1", "--out", str(link)]
        assert main(argv) == EXIT_PASS
        assert link.is_symlink() and target.stat().st_size == 8
        assert target.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.bin", "target.bin"]

    @pytest.mark.parametrize("out", ["", "missing/", "missing/../x"])
    def test_out_that_cannot_be_opened_is_reported_as_opening_it(
        self, tmp_path, monkeypatch, capsys, out
    ):
        monkeypatch.chdir(tmp_path)
        argv = ["generate", "--kind", "markov", "--n", "64", "--seed", "1", "--out", out]
        assert main(argv) == EXIT_ERROR
        with pytest.raises(OSError) as exc:
            open(out, "wb")
        assert capsys.readouterr().err == f"error: {exc.value}\n"
        assert list(tmp_path.iterdir()) == []

    def test_fifo_out_is_written_in_place(self, tmp_path):
        regular, fifo = tmp_path / "regular.txt", tmp_path / "fifo"
        argv = ["generate", "--kind", "detector", "--n", "5000", "--seed", "2"]
        argv += ["--out-format", "timetags-text", "--out"]
        assert main(argv + [str(regular)]) == EXIT_PASS
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()))
        reader.start()
        try:
            assert main(argv + [str(fifo)]) == EXIT_PASS
        finally:
            reader.join(timeout=60)
        assert not reader.is_alive()
        assert got == [regular.read_bytes()]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fifo", "regular.txt"]


def _cli(*argv: str, **kwargs) -> subprocess.CompletedProcess:
    """randcert in a child process, its stdout and stderr captured as bytes."""
    command = [sys.executable, "-m", "randcert.cli", *argv]
    return subprocess.run(command, capture_output=True, env=python_env(), **kwargs)


@pytest.mark.parametrize("stdout", ["-", "/dev/stdout"], ids=["dash", "dev-stdout"])
def test_pipeline_through_stdout_matches_files(tmp_path, stdout):
    """generate | extract | analyze through standard output and /dev/stdin:
    each stdout holds only the data, the summaries go to stderr, and the
    report is the one the same steps give through files. 2^17 + 1 binary
    tags take two 1 MiB reads."""
    n = (1 << 17) + 1
    tags, bits, report = tmp_path / "tags.bin", tmp_path / "bits.bin", tmp_path / "report.json"
    gen = ["generate", "--kind", "detector", "--n", str(n), "--seed", "3", "--dead-time", "50"]
    gen += ["--afterpulse-prob", "0.05", "--out-format", "timetags-binary", "--out"]
    ext = ["--format", "binary", "--kind", "timestamps", "--out"]
    assert main(gen + [str(tags)]) == EXIT_PASS
    assert main(["extract", str(tags), *ext, str(bits)]) == EXIT_PASS
    verdict = main(["analyze", str(bits), "--format", "packed", "--json", str(report)])

    piped_tags = _cli(*gen, stdout, cwd=tmp_path, check=True)
    assert len(piped_tags.stdout) == 8 * n
    assert piped_tags.stdout == tags.read_bytes()
    assert piped_tags.stderr == f"wrote {stdout} (detector, n = {n}, seed = 3)\n".encode()
    piped_bits = _cli(
        "extract", "/dev/stdin", *ext, stdout, input=piped_tags.stdout, cwd=tmp_path, check=True
    )
    assert piped_bits.stdout == bits.read_bytes()
    assert piped_bits.stderr.startswith(f"extracted n = {n - 1} bits, ".encode())
    analyzed = _cli(
        "analyze", "/dev/stdin", "--format", "packed", "--json", "-", input=piped_bits.stdout
    )
    assert analyzed.returncode == verdict
    got, want = json.loads(analyzed.stdout), json.loads(report.read_text())
    assert got["input"].pop("path") == "/dev/stdin"
    assert want["input"].pop("path") == str(bits)
    assert got == want
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bits.bin", "report.json", "tags.bin"]


@pytest.mark.parametrize(
    "stdout",
    ["-", "/dev/stdout", "/dev/fd/1", "/proc/self/fd/1"],
    ids=["dash", "dev-stdout", "dev-fd-1", "proc-self-fd-1"],
)
def test_stdout_appended_to_a_file_keeps_its_bytes(tmp_path, stdout):
    """With stdout appended to a regular file, as by `>> log`, generate and
    extract add their data after the bytes it held: standard output, by any
    of its names, is written through its own descriptor, never reopened,
    truncated or replaced, and no file named after --out is made."""
    tags, bits, log = tmp_path / "tags.txt", tmp_path / "bits.bin", tmp_path / "log"
    gen = ["generate", "--kind", "detector", "--n", "1000", "--seed", "5"]
    gen += ["--out-format", "timetags-text", "--out"]
    ext = ["extract", str(tags), "--format", "text", "--kind", "timestamps", "--out"]
    assert main(gen + [str(tags)]) == EXIT_PASS
    assert main(ext + [str(bits)]) == EXIT_PASS
    log.write_bytes(b"HEADER\n")
    for argv in (gen, ext):
        with open(log, "ab") as fh:
            command = [sys.executable, "-m", "randcert.cli", *argv, stdout]
            subprocess.run(
                command, stdout=fh, stderr=subprocess.PIPE, cwd=tmp_path, env=python_env(), check=True
            )
    assert log.read_bytes() == b"HEADER\n" + tags.read_bytes() + bits.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bits.bin", "log", "tags.txt"]


def test_sigterm_leaves_no_temporary_file(tmp_path):
    """A run ended by SIGTERM exits with the status the signal gives, 143,
    and, as on any error, leaves no temporary file and an existing --out as
    it was. The input never ends and has no fault, so only SIGTERM ends the run."""
    out = tmp_path / "x"
    out.write_bytes(b"old bits")
    command = [sys.executable, "-m", "randcert.cli", "extract", "/dev/stdin", "--format", "text"]
    command += ["--kind", "timestamps", "--out", str(out)]
    with endless_pipe(b"10\n", b"30\n") as stdin:
        run = subprocess.Popen(command, stdin=stdin, stderr=subprocess.PIPE, env=python_env())
        try:
            deadline = time.monotonic() + 30
            while not list(tmp_path.glob(".x.*")):  # the handler is set before the file is made
                assert run.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            run.terminate()
            assert run.wait(timeout=10) == 128 + 15
            assert run.stderr.read() == b""
        finally:
            run.kill()
            run.communicate()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["x"]
    assert out.read_bytes() == b"old bits"


_TEXT = ["--format", "text", "--kind", "timestamps"]
_OUT = ["--out", "{tmp}/x"]


@pytest.mark.parametrize(
    "head, body, argv, error",
    [
        (b"", b"30\n", _TEXT + _OUT + ["--divisor", "0"], "divisor must be a positive integer, got 0"),
        (
            b"",
            b"30\n",
            _TEXT + ["--out", "{tmp}/missing/x"],
            "[Errno 2] No such file or directory: '{tmp}/missing/x'",
        ),
        (b"10\n5\n", b"30\n", _TEXT + _OUT, "timestamps decrease at index 1 (10 -> 5)"),
        (
            np.array([10, 5], dtype="<u8").tobytes(),
            np.array([30], dtype="<u8").tobytes(),
            ["--format", "binary", "--kind", "timestamps", *_OUT],
            "timestamps decrease at index 1 (10 -> 5)",
        ),
        (
            b"",
            b"\xff" * 8,
            ["--format", "binary", "--kind", "interarrivals", *_OUT],
            "time value exceeds signed 64-bit range",
        ),
    ],
    ids=["divisor-0", "out-in-missing-directory", "text-decrease", "binary-decrease", "binary-beyond-int64"],
)
def test_extract_refuses_before_reading_an_endless_pipe(tmp_path, head, body, argv, error):
    """--divisor and --out are checked before the input is read, and the
    first fault in the input is reported as soon as it is read, so each of
    these faults ends a run whose input never ends, with exit code 2 and no
    output file."""
    argv = [a.format(tmp=tmp_path) for a in argv]
    with endless_pipe(head, body) as stdin:
        run = _cli("extract", "/dev/stdin", *argv, stdin=stdin, timeout=15)
    assert run.returncode == EXIT_ERROR
    assert run.stderr.decode() == f"error: {error.format(tmp=tmp_path)}\n"
    assert list(tmp_path.iterdir()) == []


class TestGenerate:
    def test_deterministic_output(self, tmp_path):
        args = [
            "generate",
            "--kind",
            "markov",
            "--n",
            "4096",
            "--seed",
            "11",
            "--stay-prob",
            "0.6",
            "--out-format",
            "packed",
        ]
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        assert main(args + ["--out", str(a)]) == EXIT_PASS
        assert main(args + ["--out", str(b)]) == EXIT_PASS
        assert a.read_bytes() == b.read_bytes()

    def test_detector_timetags(self, tmp_path):
        out = tmp_path / "tags.txt"
        rc = main(
            [
                "generate",
                "--kind",
                "detector",
                "--n",
                "100",
                "--seed",
                "2",
                "--out",
                str(out),
                "--out-format",
                "timetags-text",
            ]
        )
        assert rc == EXIT_PASS
        assert len(out.read_text().splitlines()) == 100

    def test_negative_afterpulse_delay_is_usage_error(self, tmp_path, capsys):
        argv = ["generate", "--kind", "detector", "--n", "1000", "--seed", "1"]
        argv += ["--afterpulse-prob", "0.5", "--afterpulse-delay", "-5"]
        out = tmp_path / "x"
        assert main(argv + ["--out", str(out)]) == EXIT_ERROR
        assert not out.exists()

    def test_infinite_dead_time_is_usage_error(self, tmp_path, capsys):
        # refused by the config; the event loop would never record a second event
        out = tmp_path / "x.txt"
        argv = ["generate", "--kind", "detector", "--n", "10", "--seed", "1", "--dead-time", "inf"]
        assert main(argv + ["--out", str(out), "--out-format", "timetags-text"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == "error: dead_time must be finite and non-negative, got inf\n"
        assert not out.exists()

    def test_unbounded_dead_time_walk_is_usage_error(self, tmp_path):
        # at a dead time of 10^9 mean interarrivals, 10^6 events drop about
        # 5 * 10^14 arrivals, which the event loop would walk for years
        out = tmp_path / "x"
        argv = ["--kind", "detector", "--n", "1000000", "--dead-time", "1e12", "--seed", "1"]
        run = _cli("generate", *argv, "--out", str(out), timeout=5)
        assert run.returncode == EXIT_ERROR
        assert run.stderr.decode() == (
            "error: n=1000000 at dead_time=1000000000000.0 and mean_interarrival=1000.0 "
            "drops about 5e+14 arrivals, more than the 1073741824 allowed\n"
        )
        assert not out.exists()

    def test_refused_allocation_is_usage_error(self, tmp_path, capsys):
        # the text of 10^15 time tags takes at least 2 PB, more than a disk has free
        out = tmp_path / "x.txt"
        argv = ["generate", "--kind", "detector", "--n", "1000000000000000", "--seed", "1"]
        assert main(argv + ["--out", str(out), "--out-format", "timetags-text"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: --n 1000000000000000 needs at least 2000000000000000 bytes")
        assert not out.exists()

    @pytest.mark.parametrize(
        "fmt, n, least",
        [("packed", 801, 101), ("ascii", 100, 101)],
    )
    def test_output_larger_than_free_space_is_refused(
        self, tmp_path, capsys, monkeypatch, fmt, n, least
    ):
        free = least - 1
        monkeypatch.setattr(shutil, "disk_usage", lambda path: SimpleNamespace(free=free))
        out = tmp_path / "x"
        argv = ["generate", "--kind", "bernoulli", "--n", str(n), "--seed", "1"]
        argv += ["--out-format", fmt, "--out", str(out)]
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: --n {n} needs at least {least} bytes of {fmt} output, "
            f"more than the {free} bytes free beside --out\n"
        )
        assert not out.exists()
        argv[argv.index("--n") + 1] = str(n - 1)  # one byte less fits
        assert main(argv) == EXIT_PASS
        assert out.stat().st_size == least - 1
        # a device is written in place, with no room check
        argv[argv.index("--out") + 1] = os.devnull
        argv[argv.index("--n") + 1] = str(n)
        assert main(argv) == EXIT_PASS

    @pytest.mark.parametrize("seed", [-1, 2**128, 2**128 - 2**64])
    def test_seed_outside_philox_keys_is_usage_error(self, tmp_path, capsys, seed):
        # the detector's coin stream is keyed seed + 2^64, and Philox keys stay below 2^128
        out = tmp_path / "x.bin"
        argv = ["generate", "--kind", "bernoulli", "--n", "8", "--seed", str(seed)]
        assert main(argv + ["--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == f"error: seed must be in [0, 2^128 - 2^64), got {seed}\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["bernoulli", "markov", "detector"])
    def test_largest_seed_generates(self, tmp_path, kind):
        out = tmp_path / "x.bin"
        argv = ["generate", "--kind", kind, "--n", "64", "--seed", str(2**128 - 2**64 - 1)]
        assert main(argv + ["--out", str(out)]) == EXIT_PASS
        assert out.stat().st_size == 8  # 64 bits, or the detector's 63 from 64 tags

    def test_bits_generator_cannot_emit_timetags(self, tmp_path):
        rc = main(
            [
                "generate",
                "--kind",
                "bernoulli",
                "--n",
                "8",
                "--seed",
                "1",
                "--out",
                str(tmp_path / "x"),
                "--out-format",
                "timetags-text",
            ]
        )
        assert rc == EXIT_ERROR


    def test_detector_times_past_int64_are_usage_error(self, tmp_path, capsys):
        # at this mean the first time is already past 2^63; no cast warning may show
        out = tmp_path / "x.txt"
        argv = ["generate", "--kind", "detector", "--n", "10", "--seed", "1", "--mean", "1e300"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == "error: n=10 events at mean_interarrival=1e+300 pass 2^63\n"
        assert not out.exists()


# small outputs of every generator and format, after-pulsing on; the digests
# pin the bytes each --out-format has written since before the writers were
# picked by one function
GENERATOR_ARGS = {
    "bernoulli": ["--theta", "0.4"],
    "markov": ["--stay-prob", "0.6"],
    "detector": ["--dead-time", "50", "--afterpulse-prob", "0.2", "--afterpulse-delay", "75"],
}


def _generate(tmp_path, kind, fmt):
    out = tmp_path / f"{kind}.{fmt}"
    argv = ["generate", "--kind", kind, "--n", "1001", "--seed", "5", *GENERATOR_ARGS[kind]]
    return main(argv + ["--out-format", fmt, "--out", str(out)]), out


@pytest.mark.parametrize(
    "kind, fmt, digest",
    [
        ("bernoulli", "ascii", "67e9811c271e7608e2a77e5235578947fb43c53a888707788df7cadaab94caf7"),
        ("bernoulli", "packed", "c3c005c0fda34355e13670e66fb9a849040d6d888d6ecae420c184a2c94e4952"),
        ("bernoulli", "timetags-text", None),
        ("bernoulli", "timetags-binary", None),
        ("markov", "ascii", "1d06388555aec925260e3316fd2a83aa4c9f1442b67fb497051dde36a0f3480c"),
        ("markov", "packed", "5d2d04111daf42e77e9c6116a00e62474a68df3525b54a5a8348833ae288729e"),
        ("markov", "timetags-text", None),
        ("markov", "timetags-binary", None),
        ("detector", "ascii", "60ee6f46c2342ad1bca37259504f5c4c5d34485f9149fb94bf02202752839ae4"),
        ("detector", "packed", "1e84014738968f7dcf4a8c3f1b80733c11f61b6e9c24cb52268b27b12498c2ee"),
        (
            "detector",
            "timetags-text",
            "be65a23f5475e79fa33fd76615a159e27cc3b4a41aaf0cffe3c75c8ced16a006",
        ),
        (
            "detector",
            "timetags-binary",
            "c34b2f5c113a405fc7665d4552a2a40f13867aec120bc9477366add6d9c6ced4",
        ),
    ],
)
def test_generate_output_pinned(tmp_path, capsys, kind, fmt, digest):
    rc, out = _generate(tmp_path, kind, fmt)
    if digest is None:  # a bits generator refuses to write time tags
        assert rc == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {kind} generator emits bits, not time tags\n"
        assert not out.exists()
    else:
        assert rc == EXIT_PASS
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("src_fmt", ["text", "binary"])
@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("ascii", "20486cd211965411429cbb455a54bd4867026c3a8c3629133b4f713027e8146e"),
        ("packed", "feb4c096244529f4ddc7990a35b5b4163fc8622b76753295a1266cc3a13c452f"),
    ],
)
def test_extract_output_pinned(tmp_path, capsys, src_fmt, fmt, digest):
    rc, tags = _generate(tmp_path, "detector", f"timetags-{src_fmt}")
    assert rc == EXIT_PASS
    out = tmp_path / "bits"
    argv = ["extract", str(tags), "--format", src_fmt, "--kind", "timestamps", "--divisor", "3"]
    assert main(argv + ["--out-format", fmt, "--out", str(out)]) == EXIT_PASS
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert capsys.readouterr().out.endswith("extracted n = 1000 bits, ones fraction = 0.618000\n")


@pytest.mark.parametrize(
    "kind, fmt", [("bernoulli", "packed"), ("markov", "packed"), ("detector", "timetags-binary")]
)
def test_generate_defaults_are_the_generator_config_defaults(tmp_path, capsys, kind, fmt):
    """generate without its generator options gives the bytes of
    GeneratorConfig(kind, n, seed), and so does each option given at the
    default that GeneratorConfig holds."""
    cfg = simgen.GeneratorConfig(kind, 4096, 9)
    want = tmp_path / "want"
    if kind == simgen.DETECTOR:
        extract.write_timetags_binary(simgen.gen_detector(cfg)[0], want)
    else:
        gen = simgen.gen_bernoulli if kind == simgen.BERNOULLI else simgen.gen_markov
        bitstream.write_packed(gen(cfg), want)
    defaults = []
    for f in dataclasses.fields(simgen.GeneratorConfig):
        if f.default is not dataclasses.MISSING:
            option = "--mean" if f.name == "mean_interarrival" else "--" + f.name.replace("_", "-")
            defaults += [option, repr(f.default)]
    assert len(defaults) == 2 * 6
    out = tmp_path / "out"
    argv = ["generate", "--kind", kind, "--n", "4096", "--seed", "9", "--out-format", fmt]
    for given in ([], defaults):
        assert main(argv + ["--out", str(out), *given]) == EXIT_PASS
        assert out.read_bytes() == want.read_bytes()


class TestInputContract:
    @pytest.mark.parametrize("command", [["analyze"], ["posterior", "--level", "1"]])
    def test_bits_with_ascii_input_is_usage_error(self, tmp_path, capsys, command):
        # an ASCII file states its own length
        p = tmp_path / "four.txt"
        p.write_text("1011\n")
        argv = [command[0], str(p), "--format", "ascii", "--bits", "3", *command[1:]]
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err == "error: --bits applies to packed input only\n"

    @pytest.mark.parametrize("command", [["analyze"], ["posterior", "--level", "1"]])
    @pytest.mark.parametrize("data", [b"", b"\xab\xcd"], ids=["empty", "two-bytes"])
    def test_negative_bits_is_usage_error(self, tmp_path, capsys, command, data):
        p = tmp_path / "p.bin"
        p.write_bytes(data)
        argv = [command[0], str(p), "--format", "packed", "--bits", "-5", *command[1:]]
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err == "error: requested n=-5 is negative\n"

    @pytest.mark.parametrize(
        "command", [["analyze", "--max-level", "9"], ["posterior", "--level", "9"]]
    )
    def test_bad_character_wins_over_bad_level(self, tmp_path, capsys, command):
        # the file is read to its end before n, and so the level's range, is known
        p = tmp_path / "bad.txt"
        p.write_text("0110" * 100 + "2")
        assert main([command[0], str(p), "--format", "ascii", *command[1:]]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: invalid character b'2' at byte offset 400")

    @pytest.mark.parametrize(
        "argv, option",
        [
            (
                ["extract", "{t}", "--format", "text", "--kind", "timestamps", "--out", "{o}"],
                "--unit",
            ),
            (["analyze", "{f}", "--format", "packed", "--json", "{o}"], "--max-blocks"),
        ],
    )
    def test_removed_options_are_unknown(self, unbiased_file, tmp_path, capsys, argv, option):
        tags, out = tmp_path / "tags.txt", tmp_path / "o"
        tags.write_text("100\n250\n400\n")
        argv = [a.format(f=unbiased_file, t=tags, o=out) for a in argv]
        assert main(argv) == EXIT_PASS
        out.unlink()
        assert main(argv + [option, "2"]) == EXIT_ERROR
        assert capsys.readouterr().err.endswith(f"unrecognized arguments: {option} 2\n")
        assert not out.exists()


class TestPosterior:
    def test_symmetric_model_wins_on_unbiased_data(self, unbiased_file, tmp_path, capsys):
        out = tmp_path / "p.json"
        rc = main(
            [
                "posterior",
                str(unbiased_file),
                "--format",
                "packed",
                "--level",
                "2",
                "--json",
                str(out),
            ]
        )
        assert rc == EXIT_PASS
        data = json.loads(out.read_text())
        assert data["best_model"] == "0.0.0.0"
        assert data["symmetric_posterior"] > 0.9

    def test_level_four_requires_block_cap(self, unbiased_file, capsys):
        rc = main(["posterior", str(unbiased_file), "--format", "packed", "--level", "4"])
        assert rc == EXIT_ERROR
        assert "--max-blocks" in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["3", "16"])
    def test_level_four_model_space_too_large(self, unbiased_file, capsys, cap):
        argv = ["posterior", str(unbiased_file), "--format", "packed", "--level", "4"]
        assert main(argv + ["--max-blocks", cap]) == EXIT_ERROR
        assert "refusing to enumerate" in capsys.readouterr().err

    def test_level_four_with_cap(self, tmp_path, capsys):
        p = tmp_path / "bits.bin"
        seq = simgen.gen_bernoulli(simgen.GeneratorConfig("bernoulli", n=2**17, seed=13))
        bitstream.write_packed(seq, p)
        rc = main(
            [
                "posterior",
                str(p),
                "--format",
                "packed",
                "--level",
                "4",
                "--max-blocks",
                "2",
            ]
        )
        assert "32768 models" in capsys.readouterr().out
        assert rc in (EXIT_PASS, EXIT_FAIL)


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "{f}", "--format", "packed", "--bayes-posterior"],
        ["bounds", "1048576"],
        ["posterior", "{f}", "--format", "packed", "--level", "2"],
    ],
    ids=["analyze", "bounds", "posterior"],
)
def test_json_to_stdout_is_the_only_stdout(unbiased_file, tmp_path, capsys, argv):
    argv = [a.format(f=unbiased_file) for a in argv]
    code = main(argv + ["--json", str(tmp_path / "r.json")])
    summary = capsys.readouterr().out
    assert main(argv + ["--json", "-"]) == code
    out, err = capsys.readouterr()
    assert json.loads(out) == json.loads((tmp_path / "r.json").read_text())
    assert err == summary  # the text summary moves to stderr, unchanged


def test_usage_error_exit_code():
    assert main(["analyze"]) == EXIT_ERROR
    assert main([]) == EXIT_ERROR


# Run main in a fresh interpreter; print its exit code and the randcert, numpy,
# scipy and concurrent.futures modules it loaded, as the last line of stdout.
_LOADED = """import json, sys
from randcert.cli import main
code = main(sys.argv[1:])
watched = ("randcert", "numpy", "scipy", "concurrent")
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] in watched)]))
"""


def _loaded(argv, cwd=None):
    code, modules = json.loads(run_python(_LOADED, *argv, cwd=cwd).stdout.splitlines()[-1])
    return code, set(modules)


def test_cli_import_leaves_slow_modules_unloaded():
    # numpy is most of a start's import time: help and usage errors start
    # without it, and without any library module; scipy and concurrent.futures
    # are imported by the one function that needs each
    for argv, expected in [(["--help"], EXIT_PASS), (["analyze", "--help"], EXIT_PASS), (["analyze"], EXIT_ERROR)]:
        code, modules = _loaded(argv)
        assert code == expected
        assert modules == {"randcert", "randcert.cli", "randcert.errors"}, argv


_COUNTING = {"bitstream", "blockstats", "borel", "bayes", "partitions", "specialfn"}
_LOADS = [
    (["analyze", "b.bin", "--format", "packed"], _COUNTING),
    (["analyze", "b.bin", "--format", "packed", "--bayes-posterior"], _COUNTING),
    (["posterior", "b.bin", "--format", "packed", "--level", "2"], _COUNTING),
    (["bounds", "1048576"], _COUNTING),
    (["generate", "--kind", "bernoulli", "--n", "64", "--seed", "1", "--out", "g.bin"],
     {"bitstream", "extract", "simgen"}),
    (["generate", "--kind", "detector", "--n", "64", "--seed", "1", "--out", "g.txt",
      "--out-format", "timetags-text"], {"bitstream", "extract", "simgen"}),
    (["extract", "t.txt", "--format", "text", "--kind", "timestamps", "--out", "e.bin"],
     {"bitstream", "extract"}),
]


@pytest.mark.parametrize(
    "argv, library",
    _LOADS,
    ids=["analyze", "analyze-posterior", "posterior", "bounds", "generate-bits", "generate-tags", "extract"],
)
def test_command_loads_only_its_modules(tmp_path, argv, library):
    bitstream.write_packed(bits_from_string("0110" * 64), tmp_path / "b.bin")
    (tmp_path / "t.txt").write_text("100\n250\n400\n")
    code, modules = _loaded(argv, cwd=tmp_path)
    assert code in (EXIT_PASS, EXIT_FAIL)
    assert {m for m in modules if m.startswith("randcert")} == {
        "randcert", "randcert.cli", "randcert.errors", *(f"randcert.{m}" for m in library)
    }
    assert "numpy" in modules
    assert ("numpy.random" in modules) == (argv[0] == "generate")
    assert not {m for m in modules if m.split(".")[0] in ("scipy", "concurrent")}
