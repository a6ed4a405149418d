"""randcert benchmark: three CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify-bernoulli-2e27 --seed 7 --seconds 20 --trace 0

With --trace 0 the workload's CLI steps run, each in a fresh `randcert`
process started by launcher.py, in a closed loop with one client (one step at a time), at least
three times and then while another repetition is expected to end within
--seconds; the end-to-end metrics are printed.
With --trace 1 the traced in-process suite runs once and the per-layer
metrics are printed, together with one untraced repetition of the chosen
workload for the tracing overhead. --smoke shrinks every input. The last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics. Inputs, outputs, spans and the full result go to
.perfbench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MIN_REPS = 3
SETUP_REPS = 9
STEP_TIMEOUT_S = 150
MiB = 1 << 20


class Launcher:
    """The small process that starts every `randcert` step (see launcher.py),
    so that no step's peak RSS carries this process's own."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("launcher.py"))],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                     env=env)
        self.self_rss_mib = 0.0

    def run(self, args: list[str], log: Path) -> tuple[float, float, int]:
        """Wall seconds, peak RSS (MiB) and exit code of one `randcert` process."""
        req = {"args": args, "log": str(log), "timeout": STEP_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"launcher ended with exit code {self.proc.wait()}")
        reply = json.loads(line)
        self.self_rss_mib = max(self.self_rss_mib, reply["self_rss_mib"])
        return reply["wall_s"], reply["rss_mib"], reply["exit"]

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def repetition(wl, launcher: Launcher, digests: dict, reference: bool) -> dict:
    """One pass over the workload's steps, every step checked."""
    from workloads import check_step

    rep = {"wall_s": 0.0, "rss_mib": 0.0, "failed": 0, "steps": [], "problems": []}
    for k, step in enumerate(wl.steps):
        log = wl.source.parent / f"{step.name}.out"
        wall, rss, code = launcher.run(step.args, log)
        problems = check_step(step, code, log.read_text(), digests)
        if rss <= launcher.self_rss_mib:
            problems.append(f"{step.name}: peak RSS {rss:.1f} MiB is not above the launcher's "
                            f"own {launcher.self_rss_mib:.1f} MiB, so it may be the launcher's")
        if reference and k == len(wl.steps) - 1:
            problems += wl.reference()
        rep["wall_s"] += wall
        rep["rss_mib"] = max(rep["rss_mib"], rss)
        rep["failed"] += bool(problems)
        rep["problems"] += problems
        rep["steps"].append({"step": step.name, "wall_s": wall, "rss_mib": rss, "exit": code})
    return rep


def untraced(wl, seconds: float, launcher: Launcher, setup_reps: int) -> dict:
    wl.prepare()
    log = wl.source.parent / "help.out"
    launcher.run(["--help"], log)  # writes the bytecode caches a user's install would have
    # set-up samples go between the first repetitions rather than in one
    # block, so that a slow spell of the machine does not land on one metric
    setup, reps, digests = [], [], {}
    deadline = time.perf_counter() + seconds
    last = 0.0
    while len(reps) < MIN_REPS or time.perf_counter() + last < deadline:
        start = time.perf_counter()
        if len(setup) < setup_reps:
            setup.append(launcher.run(["--help"], log)[0])
        reps.append(repetition(wl, launcher, digests, reference=not reps))
        last = time.perf_counter() - start
    while len(setup) < setup_reps:
        setup.append(launcher.run(["--help"], log)[0])
    walls = [r["wall_s"] for r in reps]
    wall = statistics.median(walls)
    q1, _, q3 = statistics.quantiles(walls, n=4)
    failed = sum(r["failed"] for r in reps)
    attempted = len(reps) * len(wl.steps)
    metrics = {
        "wall_s": {"value": wall, "unit": "s"},
        "mbit_s": {"value": wl.inputs["bits"] / wall / 1e6, "unit": "Mbit/s"},
        "peak_rss_mib": {"value": statistics.median(r["rss_mib"] for r in reps), "unit": "MiB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }
    notes = [
        f"wall_s over {len(reps)} repetitions: median {wall:.4f} s, q1 {q1:.4f} s, q3 {q3:.4f} s",
        f"fail_ratio = {failed}/{attempted} = {failed / attempted:.4g}",
        f"setup_s = median of {len(setup)} `randcert --help` runs: "
        + ", ".join(f"{s:.4f}" for s in setup),
        "peak_rss_mib per repetition: " + ", ".join(f"{r['rss_mib']:.2f}" for r in reps)
        + f"; the launcher's own peak RSS: {launcher.self_rss_mib:.2f} MiB",
    ]
    return {"inputs": {wl.name: wl.inputs}, "metrics": metrics, "attempted": attempted,
            "failed": failed, "notes": notes,
            "problems": [p for r in reps for p in r["problems"]], "samples": reps}


def traced(name: str, seed: int, smoke: bool, run_dir: Path, env: dict, nproc: int,
           launcher: Launcher) -> dict:
    import tracing

    suite = tracing.traced(run_dir, seed, smoke, env, nproc)
    wl = suite.made[name]
    rep = repetition(wl, launcher, suite.digests[name], reference=False)
    import_s = suite.metrics["cli.import_s"]["value"]
    inproc = suite.totals[name]
    starts = len(wl.steps)
    without_starts = rep["wall_s"] - starts * import_s
    notes = suite.notes + [
        f"tracing overhead on {name}: traced in-process total {inproc:.4f} s (its cli.main "
        f"spans) beside untraced wall {rep['wall_s']:.4f} s, which includes {starts} process "
        f"start(s) importing randcert in about {import_s:.3f} s each; traced minus untraced "
        f"without those imports = {inproc - without_starts:+.4f} s",
    ]
    tracing.write_spans(WORK / f"{name}-spans.json", suite.spans)
    return {"inputs": {n: w.inputs for n, w in suite.made.items()},
            "metrics": suite.metrics, "attempted": suite.attempted + len(wl.steps),
            "failed": suite.failed + rep["failed"], "notes": notes,
            "problems": suite.problems + rep["problems"], "samples": [rep]}


def _llc_bytes() -> int | None:
    try:
        res = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True)
        return int(res.stdout) or None
    except (OSError, ValueError):
        return None


def environment(inputs: dict, nproc: int) -> tuple[dict, str]:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = res.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "randcert").rglob("*.py")):
        src.update(path.read_bytes())
    llc = _llc_bytes()
    env = {
        "git_sha": sha,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "llc_bytes": llc,
        "mem_total_bytes": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE"),
        "inputs": inputs,
    }
    # to_bit_array holds one byte per bit
    unpacked = max(i["bits"] for i in inputs.values())
    if llc and unpacked < 4 * llc:
        note = (f"the largest unpacked array ({unpacked / MiB:.0f} MiB) is below 4 x LLC "
                f"({4 * llc / MiB:.0f} MiB), so it may stay cache resident: byte counts are "
                f"labelled computed and no bandwidth ratio is reported")
    else:
        note = "byte counts are labelled computed; no bandwidth ratio is reported"
    return env, note


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=7, help="input seed, taken modulo 2^63")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for a quick check")
    args = ap.parse_args(argv)

    if not (SRC / "randcert" / "__init__.py").is_file():
        print(f"perfbench: no randcert source at {SRC / 'randcert'}", file=sys.stderr)
        return 2
    child_env = dict(os.environ, PYTHONPATH=str(SRC))
    # started before numpy, scipy and randcert are imported here
    launcher = Launcher(child_env)
    try:
        return measure(args, child_env, launcher)
    finally:
        launcher.close()


def measure(args, child_env: dict, launcher: Launcher) -> int:
    sys.path.insert(0, str(SRC))
    import randcert
    import workloads as wls

    if Path(randcert.__file__).resolve().parent != (SRC / "randcert").resolve():
        print(f"perfbench: randcert imported from {randcert.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in wls.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wls.WORKLOADS)}", file=sys.stderr)
        return 2

    seed = args.seed % (1 << 63)
    nproc = len(os.sched_getaffinity(0))
    run_dir = WORK / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if args.trace:
            result = traced(args.workload, seed, args.smoke, run_dir, child_env, nproc, launcher)
        else:
            wl = wls.WORKLOADS[args.workload](run_dir, seed, args.smoke)
            result = untraced(wl, args.seconds, launcher, 2 if args.smoke else SETUP_REPS)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    env, note = environment(result["inputs"], nproc)

    print(f"perfbench randcert: workload {args.workload}, seed {seed}, trace {args.trace}"
          f"{', smoke' if args.smoke else ''}")
    print("env: " + json.dumps(env))
    print("note: " + note)
    for line in result["notes"]:
        print("note: " + line)
    for name, m in result["metrics"].items():
        print(f"  {name:<38} {m['value']:>16.6g} {m['unit']}")
    for problem in result["problems"]:
        print("problem: " + problem)
    with open(WORK / f"{args.workload}-trace{args.trace}.json", "w") as fh:
        json.dump({"args": vars(args), "env": env, **result}, fh, indent=1)
    print(json.dumps({
        "correct": not result["problems"] and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
