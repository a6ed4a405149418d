"""The benchmark's three CLI workloads.

Each workload makes its inputs from the seed with randcert's own Philox
generators, lists the CLI steps it runs (each in a fresh `randcert`
process when untraced), and checks every step's exit code and output
fields. Block counts at levels 1, 2 and 4 are recomputed here from a byte
histogram, independently of randcert, and compared with the reports.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from randcert import bitstream, simgen

CERTIFY = "certify-bernoulli-2e27"
POSTERIOR = "posterior-markov-2e20"
DETECTOR = "timetags-detector-2e20"

# Models the CLI enumerates at levels 3 (all B_8) and 4 (capped at 2 blocks).
MODELS_L3 = 4140
MODELS_L4 = 32768


@dataclass(frozen=True)
class Step:
    """One CLI invocation and what a correct run of it looks like."""

    name: str
    args: list[str]
    exit_code: int
    outputs: tuple[Path, ...]  # digested, must match across repetitions
    check: Callable[[str], list[str]]  # stdout -> problems found


@dataclass
class Workload:
    name: str
    inputs: dict  # sizes and parameters; "bits" is the numerator of mbit_s
    source: Path  # the input file the steps read first
    steps: list[Step]
    prepare: Callable[[], None]  # writes the seeded inputs
    reference: Callable[[], list[str]]  # deeper one-off check of a finished repetition


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _field_table(width: int) -> np.ndarray:
    """(256, 2^width) table: how often each width-bit value occurs in a byte."""
    table = np.zeros((256, 1 << width), dtype=np.int64)
    for b in range(256):
        for shift in range(8 - width, -1, -width):
            table[b, (b >> shift) & ((1 << width) - 1)] += 1
    return table


_TABLES = {w: _field_table(w) for w in (1, 2, 4)}


def byte_counts(data: bytes) -> dict[int, np.ndarray]:
    """Block counts at levels 1, 2 and 4 of a sequence whose length is a
    multiple of 8 bits, from the histogram of its bytes."""
    hist = np.bincount(np.frombuffer(data, dtype=np.uint8), minlength=256)
    return {w: hist @ t for w, t in _TABLES.items()}


def check_step(step: Step, code: int, stdout: str, digests: dict) -> list[str]:
    """Problems with one finished step: exit code, checked fields, and an
    output digest that must equal the first repetition's."""
    if code != step.exit_code:
        return [f"{step.name}: exit {code}, expected {step.exit_code}: {stdout[-300:]!r}"]
    try:
        problems = step.check(stdout)
        first = digests.setdefault(step.name, digest(step.outputs))
        if digest(step.outputs) != first:
            problems.append("output digest differs from the first repetition")
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    return [f"{step.name}: {p}" for p in problems]


def _load(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _counts_match(borel: dict, n: int, ref: dict[int, np.ndarray]) -> list[str]:
    """Recover each level's counts from the reported deviations."""
    problems = []
    for level, expected in ref.items():
        dev = np.asarray(borel["levels"][level - 1]["deviations"])
        total = n // level
        got = np.rint((dev + 2.0**-level) * total).astype(np.int64)
        if not np.array_equal(got, expected):
            problems.append(f"level-{level} counts differ from the byte-histogram reference")
    return problems


def _verdicts(section: dict, want: dict[int, bool], label: str) -> list[str]:
    got = {lv["i"]: lv["passes"] for lv in section["levels"]}
    return [
        f"{label} level {i}: passes={got.get(i)}, expected {ok}"
        for i, ok in want.items()
        if got.get(i) != ok
    ]


def certify(work: Path, seed: int, smoke: bool) -> Workload:
    """`analyze` on packed Bernoulli(1/2) bits; every level passes."""
    n = 1 << 16 if smoke else 1 << 27
    src, report, table = work / "bernoulli.bin", work / "certify.json", work / "certify.csv"
    ref: dict[int, np.ndarray] = {}

    def prepare():
        seq = simgen.gen_bernoulli(simgen.GeneratorConfig("bernoulli", n, seed))
        bitstream.write_packed(seq, src)
        ref.update(byte_counts(seq.data))

    def check(stdout: str) -> list[str]:
        r = _load(report)
        problems = [] if r["input"]["n"] == n else [f"n = {r['input']['n']}, expected {n}"]
        levels = {i: True for i in range(1, 5)}
        problems += _verdicts(r["borel"], levels, "borel")
        problems += _verdicts(r["bayes_bound"], levels, "bound")
        problems += _counts_match(r["borel"], n, ref)
        rows = table.read_text().count("\n")
        if rows != 1 + 2 + 4 + 8 + 16:
            problems.append(f"CSV has {rows} lines")
        return problems

    step = Step(
        "analyze",
        ["analyze", str(src), "--format", "packed", "--json", str(report), "--csv", str(table)],
        0,
        (report, table),
        check,
    )
    inputs = {"bits": n, "packed_bytes": n // 8, "unpacked_bytes": n}
    return Workload(CERTIFY, inputs, src, [step], prepare, lambda: [])


def posterior(work: Path, seed: int, smoke: bool) -> Workload:
    """`analyze --bayes-posterior` on ASCII Markov bits; Borel fails at
    level 2 and the level-2 posterior picks the 00/11 vs 01/10 model."""
    n = 1 << 16 if smoke else 1 << 20
    # at 2^16 bits stay_prob 0.52 is inside the Borel bound, so the smoke
    # size uses a stronger chain to keep the same verdicts
    stay = 0.6 if smoke else 0.52
    src, report = work / "markov.txt", work / "posterior.json"
    ref: dict[int, np.ndarray] = {}

    def prepare():
        seq = simgen.gen_markov(simgen.GeneratorConfig("markov", n, seed, stay_prob=stay))
        bitstream.write_ascii(seq, src)
        ref.update(byte_counts(seq.data))

    def check(stdout: str) -> list[str]:
        r = _load(report)
        problems = [] if r["input"]["n"] == n else [f"n = {r['input']['n']}, expected {n}"]
        problems += _verdicts(r["borel"], {2: False}, "borel")
        problems += _counts_match(r["borel"], n, ref)
        post = r["posterior"]
        if [p["level"] for p in post] != [1, 2, 3, 4]:
            return problems + ["posterior levels are not 1..4"]
        if post[1]["best_model"] != "0.1.1.0":
            problems.append(f"level-2 best model {post[1]['best_model']}, expected 0.1.1.0")
        if (len(post[2]["models"]), len(post[3]["models"])) != (MODELS_L3, MODELS_L4):
            problems.append("posterior model counts at levels 3/4 are wrong")
        return problems

    step = Step(
        "analyze",
        ["analyze", str(src), "--format", "ascii", "--bayes-posterior", "--json", str(report)],
        1,
        (report,),
        check,
    )
    inputs = {"bits": n, "ascii_bytes": n + 1, "stay_prob": stay}
    return Workload(POSTERIOR, inputs, src, [step], prepare, lambda: [])


def detector(work: Path, seed: int, smoke: bool) -> Workload:
    """generate -> extract -> analyze over detector time tags; after-pulsing
    at an odd delay biases the parity bits, so level 1 fails."""
    tags = (1 << 12) + 1 if smoke else (1 << 20) + 1
    n = tags - 1
    # 4096 bits cannot resolve the 0.5245 ones fraction of the full
    # workload, so the smoke size injects more after-pulses
    ap_prob, ones_range = (0.4, (0.58, 0.72)) if smoke else (0.05, (0.52, 0.53))
    tag_file, bits_file, report = work / "tags.txt", work / "bits.bin", work / "detector.json"

    def ones_ok(fraction: float) -> list[str]:
        lo, hi = ones_range
        return [] if lo <= fraction <= hi else [f"ones fraction {fraction} outside {ones_range}"]

    def check_generate(stdout: str) -> list[str]:
        lines = tag_file.read_bytes().count(b"\n")
        return [] if lines == tags else [f"{lines} time tags written, expected {tags}"]

    def check_extract(stdout: str) -> list[str]:
        problems = [] if f"extracted n = {n} bits" in stdout else [f"extract said {stdout!r}"]
        if bits_file.stat().st_size != (n + 7) // 8:
            problems.append(f"{bits_file.name} has {bits_file.stat().st_size} bytes")
        return problems + ones_ok(float(stdout.rsplit("=", 1)[1]))

    def check_analyze(stdout: str) -> list[str]:
        r = _load(report)
        problems = [] if r["input"]["n"] == n else [f"n = {r['input']['n']}, expected {n}"]
        problems += _verdicts(r["borel"], {1: False}, "borel")
        return problems + ones_ok(0.5 + r["borel"]["levels"][0]["deviations"][1])

    def reference() -> list[str]:
        """Re-extract the parity bits from the written tags with numpy."""
        values = parse_tags(tag_file)
        gaps = np.diff(values)
        if (gaps < 0).any():
            return ["time tags decrease"]
        bits = np.packbits((gaps & 1).astype(np.uint8)).tobytes()
        return [] if bits == bits_file.read_bytes() else ["extracted bits differ from reference parity"]

    steps = [
        Step(
            "generate",
            ["generate", "--kind", "detector", "--n", str(tags), "--seed", str(seed),
             "--dead-time", "50", "--afterpulse-prob", str(ap_prob), "--afterpulse-delay", "75",
             "--out-format", "timetags-text", "--out", str(tag_file)],
            0,
            (tag_file,),
            check_generate,
        ),
        Step(
            "extract",
            ["extract", str(tag_file), "--format", "text", "--kind", "timestamps",
             "--out", str(bits_file)],
            0,
            (bits_file,),
            check_extract,
        ),
        Step(
            "analyze",
            ["analyze", str(bits_file), "--format", "packed", "--json", str(report)],
            1,
            (report,),
            check_analyze,
        ),
    ]
    inputs = {"time_tags": tags, "bits": n, "afterpulse_prob": ap_prob}
    return Workload(DETECTOR, inputs, tag_file, steps, lambda: None, reference)


def parse_tags(path: Path) -> np.ndarray:
    return np.array(path.read_bytes().split(), dtype=np.int64)


WORKLOADS = {CERTIFY: certify, POSTERIOR: posterior, DETECTOR: detector}
