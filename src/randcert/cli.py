"""Command-line front end.

Exit codes are the machine contract: 0 = all requested criteria pass,
1 = at least one criterion fails, 2 = usage or data error.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from .errors import RandcertError

# Each command imports the library modules it runs, so `randcert --help`, a
# usage error and each command start without the modules (and numpy) that
# they do not need.

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2

# Level 5 has B_32 partition models, and even the 2-block cap leaves 2^31 of
# them, beyond what enumerate_partitions will walk; it stays bound-only.
POSTERIOR_MAX_LEVEL = 4
# analyze scores level 4 over its 32,768 models of at most two blocks: a cap of
# 1 leaves one model, 3 passes the 2^20 models enumerate_partitions will walk.
ANALYZE_LEVEL4_MAX_BLOCKS = 2


def _count_input(args, levels: int | None):
    """n and block counts at levels 1..check_levels(n, levels) of the input,
    from the one streamed pass that analyze and posterior share."""
    from . import blockstats

    if args.format == "ascii" and args.bits is not None:
        raise ValueError("--bits applies to packed input only")  # the file states its length
    return blockstats.stream_level_counts(args.input, args.format, args.bits, levels)


def _write(chunks, path: str, fmt: str, n: int | None = None) -> None:
    """Write a stream of chunks in an output format, each chunk as it is made.
    The output is opened before the first chunk is made, so a fault in --out
    is reported before one in the input."""
    # looked up when called, so a writer replaced on its module is the one that runs
    if fmt.startswith("timetags-"):
        from . import extract as module
    else:
        from . import bitstream as module
    with _output(path, fmt, n) as target:
        getattr(module, "write_" + fmt.replace("-", "_"))(chunks, target)


def _stdout(path: str) -> bool:
    """Whether --out is standard output: `-`, or any name of the file that
    descriptor 1 is open on, such as /dev/stdout, /dev/fd/1 or a file that
    stdout is redirected to."""
    if path == "-":
        return True
    try:
        return os.path.samestat(os.stat(path), os.fstat(1))
    except OSError:  # no such file, or no descriptor 1
        return False


def _in_place(path: str) -> bool:
    """Whether --out is written where it is, with no temporary file: standard
    output, an existing FIFO, device or other non-regular file, or a path
    with no file name, which opening refuses."""
    if _stdout(path):
        return True
    return not os.path.basename(path) or (os.path.exists(path) and not os.path.isfile(path))


@contextlib.contextmanager
def _output(path: str, fmt: str, n: int | None):
    """What the writer opens for --out, an output of n bits or time tags
    (None: not known before writing). Standard output is a copy of its
    descriptor, which the writer's open() closes, so `>>` appends and nothing
    truncates it. A regular --out is refused if the output's smallest size
    (for time-tag text, a digit and a newline per tag) exceeds the free space
    beside it; else it gets a temporary file beside it, moved onto it on
    success and removed on any error or SIGTERM, so a failed run leaves no
    partial output and an existing --out untouched."""
    if _in_place(path):
        if _stdout(path):
            path = os.dup(1)
        yield path
        return
    import shutil
    import signal
    import threading

    real = os.path.realpath(path) if os.path.islink(path) else path  # as opening it would write
    if n is not None:
        least = {"packed": (n + 7) // 8, "ascii": n + 1, "timetags-text": 2 * n, "timetags-binary": 8 * n}
        with contextlib.suppress(OSError):  # a missing directory is reported when tmp is made
            free = shutil.disk_usage(os.path.dirname(real) or ".").free
            if least[fmt] > free:
                raise ValueError(
                    f"--n {n} needs at least {least[fmt]} bytes of {fmt} output, "
                    f"more than the {free} bytes free beside --out"
                )
    try:
        mode = os.stat(real).st_mode & 0o7777
    except FileNotFoundError:
        mode = None
    tmp = os.path.join(os.path.dirname(real), f".{os.path.basename(real)}.{os.urandom(6).hex()}")
    # SIGTERM unwinds as SystemExit(143), removing tmp; only the main thread sets handlers
    main = threading.current_thread() is threading.main_thread()
    if main:
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        try:
            # mode 0o666 less the umask, as open(path, "wb") creates a file
            os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
        except OSError as exc:  # reported against --out, as opening it would be
            raise type(exc)(exc.errno, exc.strerror, path) from None
        try:
            yield tmp
            if mode is not None:
                os.chmod(tmp, mode)
            os.replace(tmp, real)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)
            raise
    finally:
        if main:
            signal.signal(signal.SIGTERM, previous)


def _summary(args):
    """Where a command prints its text summary: stderr when stdout may carry
    the command's output, the JSON report of --json - or the data of an --out
    written in place, such as standard output, so that stdout holds only that."""
    if getattr(args, "json", None) == "-" or ("out" in args and _in_place(args.out)):
        return sys.stderr
    return sys.stdout


def _emit_json(obj, path: str | None) -> None:
    import json

    if path is None:
        return
    if path == "-":
        json.dump(obj, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            json.dump(obj, fh, indent=2)


def cmd_analyze(args) -> int:
    from . import bayes, blockstats, borel

    n, counts = _count_input(args, args.max_level)
    borel_reports = borel.borel_test(n, counts=counts)
    bound_reports = bayes.bayes_bound_test(n, counts=counts)

    report = {
        "input": {"path": args.input, "format": args.format, "n": n},
        "borel": borel.reports_to_json_dict(n, borel_reports),
        "bayes_bound": borel.reports_to_json_dict(n, bound_reports),
    }
    if args.bayes_posterior:
        from . import partitions

        posterior_levels = []
        for c in counts[:POSTERIOR_MAX_LEVEL]:
            cap = ANALYZE_LEVEL4_MAX_BLOCKS if (1 << c.level) > 8 else None
            models = list(partitions.enumerate_partitions(1 << c.level, cap))
            posterior_levels.append(bayes.posterior(c, models).to_json_dict())
        report["posterior"] = posterior_levels

    overall = report["borel"]["overall"] and report["bayes_bound"]["overall"]
    report["overall"] = overall
    _emit_json(report, args.json)
    if args.csv:
        import csv

        rhs_by_level = {r.level: r.rhs for r in bound_reports}
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["level", "substring", "deviation", "borel_bound", "bayes_rhs_for_level"])
            for level, bits, dev, bound in borel.reports_to_csv_rows(borel_reports):
                w.writerow([level, bits, repr(dev), repr(bound), repr(rhs_by_level[level])])

    out = _summary(args)
    print(f"n = {n}, levels 1..{len(counts)} (i_max = {blockstats.max_borel_level(n)})", file=out)
    for r in borel_reports:
        print(
            f"  borel level {r.level}: max |dev| = {r.max_abs_deviation:.6g} "
            f"{'<' if r.passes else '>='} bound {r.bound:.6g} -> "
            f"{'pass' if r.passes else 'FAIL'}",
            file=out,
        )
    for r in bound_reports:
        print(
            f"  bayes level {r.level}: lhs = {r.lhs:.6g} "
            f"{'<' if r.passes else '>='} rhs {r.rhs:.6g} -> "
            f"{'pass' if r.passes else 'FAIL'}",
            file=out,
        )
    print(f"overall: {'pass' if overall else 'FAIL'}", file=out)
    return EXIT_PASS if overall else EXIT_FAIL


def cmd_bounds(args) -> int:
    from . import bayes, blockstats, borel

    n = args.n
    levels = blockstats.check_levels(n, args.levels)
    bb = borel.borel_bound(n)
    rows = [
        {"i": i, "borel_bound": bb, "bayes_rhs": bayes.bayes_bound_rhs(n, i)}
        for i in range(1, levels + 1)
    ]
    _emit_json({"n": n, "bounds": rows}, args.json)
    out = _summary(args)
    print(f"n = {n}, i_max = {blockstats.max_borel_level(n)}", file=out)
    print(f"{'level':>5}  {'borel_bound':>14}  {'bayes_rhs':>14}", file=out)
    for row in rows:
        print(f"{row['i']:>5}  {row['borel_bound']:>14.6g}  {row['bayes_rhs']:>14.6g}", file=out)
    return EXIT_PASS


def cmd_extract(args) -> int:
    from . import extract

    extract.check_divisor(args.divisor)  # before --out and the input are opened
    n = ones = 0

    def bits():
        nonlocal n, ones
        for series in extract.stream_timetags(args.input, args.format, args.kind):
            if series.kind == extract.TIMESTAMPS:
                series = extract.interarrivals(series)
            if len(series) == 0:
                raise RandcertError("no time tags in input")
            seq = extract.timetags_to_bits(series, args.divisor)
            n += seq.n
            ones += int.from_bytes(seq.data, "big").bit_count()  # pad bits are 0
            yield seq

    _write(bits(), args.out, args.out_format)
    print(f"extracted n = {n} bits, ones fraction = {ones / n:.6f}", file=_summary(args))
    return EXIT_PASS


def cmd_generate(args) -> int:
    import dataclasses

    from . import simgen

    fields = dataclasses.fields(simgen.GeneratorConfig)
    cfg = simgen.GeneratorConfig(**{f.name: getattr(args, f.name) for f in fields if f.name in args})
    timetags = args.out_format.startswith("timetags-")
    if cfg.kind == simgen.DETECTOR:
        pieces = simgen.stream_detector(cfg)
        out = (tags if timetags else bits for tags, bits in pieces)
    elif timetags:
        raise ValueError(f"{cfg.kind} generator emits bits, not time tags")
    else:
        out = (simgen.stream_bernoulli if cfg.kind == simgen.BERNOULLI else simgen.stream_markov)(cfg)
    _write(out, args.out, args.out_format, cfg.n)
    print(f"wrote {args.out} ({cfg.kind}, n = {cfg.n}, seed = {cfg.seed})", file=_summary(args))
    return EXIT_PASS


def cmd_posterior(args) -> int:
    from . import bayes, partitions

    _, per_level = _count_input(args, args.level)
    counts = per_level[-1]  # levels 1..i share one walk; level i is scored
    i = counts.level
    if (1 << i) > 8 and args.max_blocks is None:
        raise ValueError(
            f"full enumeration at level {i} has B_{1 << i} models; pass --max-blocks "
            f"(e.g. 2) to restrict the model space"
        )
    models = list(partitions.enumerate_partitions(1 << i, args.max_blocks))
    table = bayes.posterior(counts, models)
    _emit_json(table.to_json_dict(), args.json)
    best, out = table.models[table.best_index], _summary(args)
    print(f"level {i}: {len(models)} models", file=out)
    print(f"  best model: {best.rgs_string()} (posterior {table.posteriors[table.best_index]:.6g})", file=out)
    if table.symmetric_posterior is not None:
        print(f"  symmetric-model posterior: {table.symmetric_posterior:.6g}", file=out)
    return EXIT_PASS if best.is_symmetric else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="randcert", description="Randomness certification toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def add_input(sp):
        sp.add_argument("input", help="input file path")
        sp.add_argument("--format", choices=["ascii", "packed"], required=True)
        sp.add_argument("--bits", type=int, default=None, help="bit count, packed input only")

    sp = sub.add_parser("analyze", help="run Borel and Bayesian-bound tests")
    add_input(sp)
    sp.add_argument("--max-level", type=int, default=None)
    sp.add_argument("--bayes-posterior", action="store_true", help="also compute posteriors")
    sp.add_argument("--json", default=None, help="write JSON report here ('-' for stdout)")
    sp.add_argument("--csv", default=None, help="write per-substring CSV here")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("bounds", help="print bound values for a given n")
    sp.add_argument("n", type=int)
    sp.add_argument("--levels", type=int, default=None)
    sp.add_argument("--json", default=None)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("extract", help="time-tag parity extraction")
    sp.add_argument("input")
    sp.add_argument("--format", choices=["text", "binary"], required=True)
    sp.add_argument("--kind", choices=["timestamps", "interarrivals"], required=True)
    sp.add_argument("--divisor", type=int, default=1)
    sp.add_argument("--out", required=True)
    sp.add_argument("--out-format", choices=["ascii", "packed"], default="packed")
    sp.set_defaults(func=cmd_extract)

    sp = sub.add_parser("generate", help="synthetic generator output")
    sp.add_argument("--kind", choices=["bernoulli", "markov", "detector"], required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    # absent unless given, so that GeneratorConfig supplies the defaults
    sp.add_argument("--theta", type=float, default=argparse.SUPPRESS)
    sp.add_argument("--stay-prob", type=float, default=argparse.SUPPRESS)
    sp.add_argument("--mean", type=float, default=argparse.SUPPRESS, dest="mean_interarrival", metavar="MEAN")
    sp.add_argument("--dead-time", type=float, default=argparse.SUPPRESS)
    sp.add_argument("--afterpulse-prob", type=float, default=argparse.SUPPRESS)
    sp.add_argument("--afterpulse-delay", type=float, default=argparse.SUPPRESS)
    sp.add_argument("--out", required=True)
    sp.add_argument(
        "--out-format",
        choices=["ascii", "packed", "timetags-text", "timetags-binary"],
        default="packed",
    )
    sp.set_defaults(func=cmd_generate)

    sp = sub.add_parser("posterior", help="posterior over partition models at one level")
    add_input(sp)
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--max-blocks", type=int, default=None)
    sp.add_argument("--json", default=None)
    sp.set_defaults(func=cmd_posterior)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code else EXIT_PASS
    try:
        return args.func(args)
    except (RandcertError, ValueError, OSError, IndexError, MemoryError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
