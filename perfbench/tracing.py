"""The traced in-process run that gives the per-layer metrics.

Spans are recorded from outside the library: every public randcert
function that the workloads reach is replaced, for the length of the run,
by a wrapper that records a span (name, start, end, parent, the shared
per-workload trace id, and a few attributes such as the block level)
around the original. All three workloads run in this process through
`randcert.cli.main`, so each layer metric is read from the spans of the
workload whose wall time it should move. A layer function that the
workload no longer reaches counts as 0 s there, and the run says so. Only
stream_packed, count_blocks_parallel, log_gamma and load_timetags_binary,
which no workload runs, are timed by direct calls, under their own trace
id. Spans stay in memory and are written out at the end.
Peak memory comes from a separate `tracemalloc` pass, so its overhead
lands in no time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads as wls
from randcert import bayes, bitstream, blockstats, borel, cli, extract, partitions, simgen, specialfn

MiB = 1 << 20

# (module, function or Class.method, span attributes from the call's arguments)
TARGETS = (
    ("bitstream", "load_packed", None),
    ("bitstream", "load_ascii", None),
    ("bitstream", "write_packed", None),
    ("bitstream", "BitSequence.to_bit_array", None),
    ("blockstats", "count_blocks", lambda seq, i: {"level": i}),
    ("blockstats", "count_blocks_parallel", lambda seq, i, workers=None: {"level": i}),
    ("borel", "borel_test", None),
    ("borel", "evaluate_level", None),
    ("bayes", "bayes_bound_test", None),
    ("bayes", "posterior", lambda counts, models: {"level": counts.level, "models": len(models)}),
    ("bayes", "PosteriorTable.to_json_dict", None),
    ("partitions", "enumerate_partitions", lambda n, max_blocks=None: {"level": n.bit_length() - 1}),
    ("extract", "write_timetags_text", None),
    ("extract", "load_timetags_text", None),
    ("extract", "load_timetags_binary", None),
    ("extract", "interarrivals", None),
    ("extract", "timetags_to_bits", None),
    ("simgen", "gen_bernoulli", None),
    ("simgen", "gen_markov", None),
    ("simgen", "gen_detector", None),
    ("cli", "main", lambda argv=None: {"step": argv[0]}),
    ("cli", "_emit_json", None),
)
# returns a lazy iterator: the wrapper drains it inside the span
LAZY = {"partitions.enumerate_partitions"}

DIRECT = "direct"  # trace id of direct calls and of the set-up they need


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.trace = ""
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        rec = {"id": len(self.spans), "trace": self.trace, "name": name,
               "parent": self._open[-1] if self._open else None, **attrs}
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, **(attrs(*args, **kwargs) if attrs else {})) as rec:
                out = fn(*args, **kwargs)
                if name in LAZY:
                    out = list(out)
                    rec["models"] = len(out)
                    out = iter(out)
                return out

        return traced

    def select(self, trace: str, name: str, **attrs) -> list[dict]:
        return [
            s for s in self.spans
            if s["trace"] == trace and s["name"] == name
            and all(s.get(k) == v for k, v in attrs.items())
        ]

    def self_time(self, span: dict) -> float:
        children = sum(_dur(s) for s in self.spans if s["parent"] == span["id"])
        return _dur(span) - children


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Replace every target, wherever a randcert module binds it."""
    mods = [m for k, m in sys.modules.items() if k == "randcert" or k.startswith("randcert.")]
    patched = []
    try:
        for modname, qual, attrs in TARGETS:
            mod = importlib.import_module(f"randcert.{modname}")
            name = f"{modname}.{qual}"
            owner, _, attr = qual.rpartition(".")
            if owner:
                cls = getattr(mod, owner)
                orig = cls.__dict__[attr]
                patched.append((cls, attr, orig))
                setattr(cls, attr, tracer.wrap(name, orig, attrs))
                continue
            orig = getattr(mod, attr)
            wrapper = tracer.wrap(name, orig, attrs)
            for m in mods:
                for k in [k for k, v in vars(m).items() if v is orig]:
                    patched.append((m, k, orig))
                    setattr(m, k, wrapper)
        yield
    finally:
        for owner, attr, orig in reversed(patched):
            setattr(owner, attr, orig)


def _peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / MiB
    finally:
        tracemalloc.stop()


def _import_times(child_env: dict, reps: int) -> list[float]:
    code = "import time; t = time.perf_counter(); import randcert.cli; print(time.perf_counter() - t)"
    out = []
    for _ in range(reps):
        res = subprocess.run([sys.executable, "-c", code], env=child_env, capture_output=True,
                             text=True, timeout=120, check=True)
        out.append(float(res.stdout))
    return out


class Layers:
    """Per-layer metric values, each read from the spans of one workload."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.values: dict[str, tuple[float, str]] = {}
        self.absent: list[str] = []

    def put(self, name: str, value: float, unit: str):
        self.values[name] = (float(value), unit)

    def spans(self, trace: str, name: str, **attrs) -> list[dict]:
        """Spans of `name` on the workload's path; none is noted."""
        found = self.tracer.select(trace, name, **attrs)
        if not found:
            self.absent.append(f"{name}{''.join(f' {k}={v}' for k, v in attrs.items())} on {trace}")
        return found

    def seconds(self, trace, name, agg=statistics.median, key=_dur, **attrs) -> float:
        """`agg` over the spans' `key`, or 0 s when the path has none."""
        found = self.spans(trace, name, **attrs)
        return agg(key(s) for s in found) if found else 0.0


def _per_s(count: float, seconds: float) -> float:
    return count / seconds if seconds else 0.0


@dataclass
class Suite:
    metrics: dict
    attempted: int
    failed: int
    problems: list
    notes: list
    spans: list
    totals: dict  # workload -> sum of its cli.main spans, in seconds
    made: dict  # workload -> prepared Workload
    digests: dict  # workload -> step -> output digest


def traced(work: Path, seed: int, smoke: bool, child_env: dict, nproc: int) -> Suite:
    """Run every workload in this process under the tracer, then derive the metrics."""
    tracer = Tracer()
    lay = Layers(tracer)
    made = {name: make(work, seed, smoke) for name, make in wls.WORKLOADS.items()}
    attempted, failed, problems, totals, digests = 0, 0, [], {}, {}
    with installed(tracer):
        for name, wl in made.items():
            tracer.trace = name
            wl.prepare()
            digests[name] = {}
            for k, step in enumerate(wl.steps):
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                    code = cli.main(step.args)
                found = wls.check_step(step, code, buf.getvalue(), digests[name])
                if k == len(wl.steps) - 1:
                    found += wl.reference()
                attempted += 1
                failed += bool(found)
                problems += found
            totals[name] = sum(_dur(s) for s in tracer.select(name, "cli.main"))
        problems += _layer_metrics(lay, made, nproc)
    _memory_metrics(lay, made, seed)
    lay.put("cli.import_s", statistics.median(_import_times(child_env, 3)), "s")
    notes = [f"no span on the workload's path, counted as 0 s: {a}" for a in lay.absent]
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in lay.values.items()}
    return Suite(metrics, attempted, failed, problems, notes, tracer.spans, totals, made, digests)


def _layer_metrics(lay: Layers, made: dict, nproc: int) -> list[str]:
    tr, problems = lay.tracer, []
    cw, dw = made[wls.CERTIFY], made[wls.DETECTOR]
    c, p, d = wls.CERTIFY, wls.POSTERIOR, wls.DETECTOR
    tr.trace = DIRECT  # the direct calls below stay out of the workloads' traces

    # certify: loading and counting 2^27 packed bits
    lay.put("bitstream.load_packed_s", lay.seconds(c, "bitstream.load_packed"), "s")
    lay.put("bitstream.to_bit_array_s", lay.seconds(c, "bitstream.BitSequence.to_bit_array"), "s")
    seq = bitstream.load_packed(cw.source)
    lay.put("bitstream.to_bit_array_mib", seq.n / MiB, "MiB")  # computed: 1 byte per bit
    with tr.span("bitstream.stream_packed") as rec:
        rec["bits"] = sum(chunk.n for chunk in bitstream.stream_packed(cw.source, 1 << 23))
    if rec["bits"] != seq.n:
        problems.append(f"stream_packed yielded {rec['bits']} bits, expected {seq.n}")
    lay.put("bitstream.stream_packed_s", _dur(rec), "s")
    per_level = []
    for level in range(1, 5):
        t = lay.seconds(c, "blockstats.count_blocks", level=level)
        per_level.append(t)
        lay.put(f"blockstats.count_blocks_s.L{level}", t, "s")
    lay.put("blockstats.mbit_s", _per_s(4 * seq.n / 1e6, sum(per_level)), "Mbit/s")
    reference = wls.byte_counts(seq.data)
    parallel = 0.0
    for level in range(1, 5):
        counts = blockstats.count_blocks_parallel(seq, level, workers=nproc)
        parallel += _dur(tr.select(DIRECT, "blockstats.count_blocks_parallel", level=level)[-1])
        if level in reference and not np.array_equal(counts.counts, reference[level]):
            problems.append(f"count_blocks_parallel differs from the reference at level {level}")
    lay.put("blockstats.count_blocks_parallel_s", parallel, "s")
    del seq
    lay.put("borel.borel_test_s", lay.seconds(c, "borel.borel_test"), "s")
    lay.put("bayes.bayes_bound_test_s", lay.seconds(c, "bayes.bayes_bound_test"), "s")
    lay.put("bayes.bound_self_s", lay.seconds(c, "bayes.bayes_bound_test", key=tr.self_time), "s")
    lay.put("borel.evaluate_level_s", lay.seconds(c, "borel.evaluate_level", agg=sum), "s")

    # posterior: ASCII parsing, enumeration, posterior and the JSON report
    lay.put("bitstream.load_ascii_s", lay.seconds(p, "bitstream.load_ascii"), "s")
    models, post_time = 0, 0.0
    for level, want in ((3, wls.MODELS_L3), (4, wls.MODELS_L4)):
        enum = lay.spans(p, "partitions.enumerate_partitions", level=level)
        lay.put(f"partitions.enumerate_s.L{level}", sum(_dur(s) for s in enum), "s")
        enumerated = sum(s["models"] for s in enum)
        lay.put(f"partitions.models.L{level}", enumerated, "count")
        if enum and enumerated != want:
            problems.append(f"level {level} enumerated {enumerated} models, expected {want}")
        post = lay.spans(p, "bayes.posterior", level=level)
        lay.put(f"bayes.posterior_s.L{level}", sum(_dur(s) for s in post), "s")
        models += sum(s["models"] for s in post)
        post_time += sum(_dur(s) for s in post)
    lay.put("bayes.posterior_models_per_s", _per_s(models, post_time), "1/s")
    xs = np.geomspace(0.5, 1e9, 20000).tolist()
    with tr.span("specialfn.log_gamma", calls=len(xs)) as rec:
        for x in xs:
            specialfn.log_gamma(x)
    lay.put("specialfn.log_gamma_s", _dur(rec), "s")
    lay.put("cli.report_json_s",
            lay.seconds(p, "bayes.PosteriorTable.to_json_dict", agg=sum)
            + lay.seconds(p, "cli._emit_json", agg=sum), "s")

    # detector: simulation, time-tag text I/O and parity extraction
    tags_n = dw.inputs["time_tags"]
    gen = lay.seconds(d, "simgen.gen_detector")
    lay.put("simgen.gen_detector_s", gen, "s")
    lay.put("simgen.events_per_s", _per_s(tags_n, gen), "1/s")
    lay.put("extract.write_timetags_text_s", lay.seconds(d, "extract.write_timetags_text"), "s")
    load = lay.seconds(d, "extract.load_timetags_text")
    lay.put("extract.load_timetags_text_s", load, "s")
    lay.put("extract.tags_per_s", _per_s(tags_n, load), "1/s")
    lay.put("extract.interarrivals_s", lay.seconds(d, "extract.interarrivals"), "s")
    lay.put("extract.timetags_to_bits_s", lay.seconds(d, "extract.timetags_to_bits"), "s")
    lay.put("bitstream.write_packed_s", lay.seconds(d, "bitstream.write_packed"), "s")
    values = wls.parse_tags(dw.source)
    binary = dw.source.with_suffix(".u64")
    extract.write_timetags_binary(extract.TimeTagSeries(values, "unit", extract.TIMESTAMPS), binary)
    loaded = extract.load_timetags_binary(binary, extract.TIMESTAMPS)
    lay.put("extract.load_timetags_binary_s",
            _dur(tr.select(DIRECT, "extract.load_timetags_binary")[-1]), "s")
    if not np.array_equal(loaded.values, values):
        problems.append("binary time tags do not round-trip")
    for step in ("generate", "extract", "analyze"):
        lay.put(f"cli.step_s.{step}", lay.seconds(d, "cli.main", step=step), "s")

    # input preparation and what no layer accounts for
    lay.put("simgen.gen_bernoulli_s", lay.seconds(c, "simgen.gen_bernoulli"), "s")
    lay.put("simgen.gen_markov_s", lay.seconds(p, "simgen.gen_markov"), "s")
    mains = [s for s in tr.spans if s["name"] == "cli.main"]
    lay.put("cli.residual_s", sum(tr.self_time(s) for s in mains), "s")
    return problems


def _memory_metrics(lay: Layers, made: dict, seed: int):
    """Peaks of Python-visible allocations, numpy buffers included."""
    cw, pw = made[wls.CERTIFY], made[wls.POSTERIOR]
    seq = bitstream.load_packed(cw.source)
    peak = max(_peak_mib(lambda: blockstats.count_blocks(seq, level)) for level in range(1, 5))
    lay.put("blockstats.count_blocks_peak_mib", peak, "MiB")
    del seq
    mseq = bitstream.load_ascii(pw.source)
    counts = blockstats.count_blocks(mseq, 4)
    models = list(partitions.enumerate_partitions(16, 2))
    lay.put("bayes.posterior_peak_mib", _peak_mib(lambda: bayes.posterior(counts, models)), "MiB")
    cfg = simgen.GeneratorConfig("markov", pw.inputs["bits"], seed, stay_prob=pw.inputs["stay_prob"])
    lay.put("simgen.gen_markov_peak_mib", _peak_mib(lambda: simgen.gen_markov(cfg)), "MiB")


def write_spans(path: Path, spans: list[dict]):
    with open(path, "w") as fh:
        json.dump(spans, fh)

