"""burnlab benchmark: one workload per invocation, run from the repository root.

    python3 bench/run.py --workload ball --seed 7 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 7 --seconds 25   # every workload

Steps, all inside the checkout (scratch files go to .bench_work/):

1. Generate the input presentation with `burnlab build` (not timed) and check
   it against its reference.  Run the workload's seeded commands that have a
   reference once at the reference seed (not timed) and check them too.
2. Run passes of the workload (worker.py, one process per pass) while the
   next pass still fits in --seconds; at least MIN_PASSES untraced, or one
   traced (its layer counts repeat exactly).  Each pass's wall time,
   CPU time and peak RSS are measured from outside the worker.  Every
   artifact of every pass is checked (checks.py).
3. setup_s: before each untraced pass, start PROBES_PER_PASS fresh processes
   running setup_probe.py; after the last pass, start more until --seconds
   is used up (at least SETUP_PROBES in all).  The metric is the fastest
   set-up time they report: on a shared host the speed of the CPU switches
   every few seconds and noise only adds time, so the minimum of many short
   probes repeats from run to run far better than their median does.

With --trace 0 the metrics are the end-to-end ones (medians over passes).
With --trace 1 the first pass runs untraced and the rest traced; the metrics
are the per-layer ones (medians over traced passes) plus the tracing
overhead.  Every metric is printed as "name value unit"; the last line is one
JSON object.  The exit code is nonzero if any command or output check
failed.  The run's files stay in .bench_work/<sizes>-<workload>/ until the
next run of the same workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import checks
import workloads
from tracer import LAYER_METRICS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference"

SETUP_PROBES = 25
# an untraced median over two passes spans twice the host time of one, which
# matters for the workloads whose pass takes about half of --seconds
MIN_PASSES = 2
PROBES_PER_PASS = 5
# a worker still running this long after the run started is killed, so the
# benchmark always exits well inside 180 s
HARD_LIMIT_S = 150.0

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# deterministic for a fixed seed and 0 on most workloads, so they carry no
# relative bound; printed in both modes and reported with the layers
SHARES = (
    ("unknown_share", "ratio"),
    ("failed_share", "ratio"),
)
PER_LAYER = LAYER_METRICS + (
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "ratio"),
) + SHARES


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("BURNLAB_CONFIG", None)
    # cache bytecode as an installed package would; the input build (untimed)
    # writes it before anything is measured
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: list[str], log: Path, deadline: float) -> tuple[float, float, float, int]:
    """Run argv to completion; (wall s, user+sys s, peak RSS MB, exit code)."""
    with open(log, "w") as fh:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        killer = threading.Timer(max(1.0, deadline - start), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
            proc.returncode)


def host_loop_ms() -> float:
    """Milliseconds for a fixed pure-Python loop (best of 3): how fast the
    host runs Python right now, printed next to each pass."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        x = 0
        for i in range(200_000):
            x += i * i
        best = min(best, perf_counter() - start)
    return best * 1000.0


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"  # a plain checkout; do not let git search parent directories
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                             capture_output=True, text=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def loadavg() -> str:
    try:
        return " ".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        return "unknown"


class Run:
    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.work = WORK / ("%s-%s" % (args.sizes, args.workload))
        self.deadline = perf_counter() + HARD_LIMIT_S
        self.attempted = 0
        self.failures: list[str] = []
        self.presentation = self.work / "input" / "presentation.json"

    def reference(self, *parts: str) -> Path:
        return REFERENCE.joinpath(self.args.sizes, *parts)

    def fail(self, what: str) -> None:
        self.failures.append(what)
        print("FAIL %s" % what)

    def cli(self, argv, log: Path) -> bool:
        """Run one burnlab command untimed; False (and a failure) if it fails."""
        self.attempted += 1
        rc = spawn([sys.executable, "-m", "burnlab.cli"] + list(argv), log, self.deadline)[3]
        if rc != 0:
            self.fail("%s exited %d (see %s)" % (argv[0], rc, log))
        return rc == 0

    def prepare(self) -> None:
        """Build the input and check it; run the reference-seed commands."""
        a = self.args
        if not self.cli(workloads.input_command(a.sizes, str(self.presentation.parent)),
                        self.work / "input.log"):
            return
        for problem in checks.problems(self.presentation,
                                       self.reference("input", "presentation.json"), a.seed):
            self.fail("input: %s" % problem)
        if a.seed == workloads.REFERENCE_SEED:
            return  # the passes themselves run at the reference seed
        ref_dir = self.work / "reference-seed"
        for cmd in workloads.reference_seed_commands(a.workload, a.sizes,
                                                     str(self.presentation), str(ref_dir)):
            if not self.cli(cmd.argv, self.work / ("reference-seed-%s.log" % cmd.name)):
                continue
            for art in cmd.artifacts:
                for problem in checks.problems(ref_dir / art, self.reference(a.workload, art),
                                               workloads.REFERENCE_SEED):
                    self.fail("%s at seed %d: %s"
                              % (cmd.name, workloads.REFERENCE_SEED, problem))

    def setup_times(self, count: int) -> list[float]:
        argv = [sys.executable, str(BENCH / "setup_probe.py")]
        for path, ranks in workloads.setup_inputs(self.args.workload, self.args.sizes,
                                                  str(self.presentation),
                                                  str(REFERENCE / self.args.sizes)):
            argv += [path, ",".join(str(r) for r in ranks)]
        log = self.work / "setup.log"
        times = []
        for _ in range(count):
            self.attempted += 1
            rc = spawn(argv, log, self.deadline)[3]
            try:
                times.append(float(log.read_text().split()[-1]))
            except (OSError, ValueError, IndexError):
                rc = rc or -1
            if rc != 0:
                self.fail("setup probe exited %d (see %s)" % (rc, log))
                break
        return times

    def run_pass(self, index: int, trace: bool) -> dict:
        a = self.args
        pass_dir = self.work / ("pass%d" % index)
        pass_dir.mkdir(parents=True)
        result_path = pass_dir / "result.json"
        argv = [sys.executable, str(BENCH / "worker.py"), "--workload", a.workload,
                "--seed", str(a.seed), "--sizes", a.sizes,
                "--presentation", str(self.presentation), "--pass-dir", str(pass_dir),
                "--result", str(result_path)] + (["--trace"] if trace else [])
        host_ms = host_loop_ms()
        wall, cpu, rss, rc = spawn(argv, pass_dir / "log.txt", self.deadline)
        cmds = workloads.commands(a.workload, a.sizes, a.seed, str(self.presentation),
                                  str(pass_dir))
        self.attempted += len(cmds)
        try:
            result = json.loads(result_path.read_text())
        except (OSError, json.JSONDecodeError):
            result = {"failures": ["worker exited %d" % rc] * len(cmds)}
        for cmd, reason in zip(cmds, result["failures"]):
            problems = [reason] if reason else []
            for art in cmd.artifacts:
                problems += checks.problems(pass_dir / art,
                                            self.reference(a.workload, art), a.seed)
            if problems:
                self.fail("pass %d %s: %s (log %s)"
                          % (index, cmd.name, "; ".join(problems), pass_dir / "log.txt"))
        layers = result.get("layers")
        if layers and layers["oracle.replay_failed"]:
            self.fail("pass %d: %d of %d replayed witnesses failed"
                      % (index, layers["oracle.replay_failed"], layers["oracle.replay_sampled"]))
        unknown = total = 0
        for cmd in cmds:
            for art in cmd.artifacts:
                u, t = checks.answers(pass_dir / art)
                unknown, total = unknown + u, total + t
        print("pass %d%s: wall %.4f s, cpu %.4f s, peak rss %.1f MB, unknown %d/%d, "
              "host loop %.1f ms" % (index, " traced" if trace else "", wall, cpu, rss,
                                     unknown, total, host_ms))
        return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "host_loop_ms": host_ms,
                "loop_s": result.get("loop_s"), "layers": layers,
                "unknown_share": unknown / total if total else 0.0}

    def passes(self) -> tuple[list[dict], list[dict], list[float]]:
        """(untraced passes, traced passes, set-up times), run while the next
        pass fits."""
        start = perf_counter()
        plain, traced, setup = [], [], []
        while True:
            trace = bool(self.args.trace) and bool(plain)
            if not self.args.trace:
                setup += self.setup_times(PROBES_PER_PASS)
            (traced if trace else plain).append(
                self.run_pass(len(plain) + len(traced) + 1, trace))
            if self.failures:
                break
            done = traced if self.args.trace else plain
            typical = median([p["wall_s"] for p in done])
            if len(done) >= (1 if self.args.trace else MIN_PASSES) \
                    and perf_counter() - start + typical > self.args.seconds:
                break
        if not self.args.trace:
            while not self.failures and (len(setup) < SETUP_PROBES
                                         or perf_counter() - start < self.args.seconds):
                setup += self.setup_times(1)
        return plain, traced, setup


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",),
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measure passes for about this long (at least one pass)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sizes", choices=sorted(workloads.SIZES), default="bench",
                    help="workload sizes; tiny is for the self-test")
    args = ap.parse_args()

    if not (SRC / "burnlab" / "__init__.py").is_file():
        print("error: no burnlab sources at %s; run from a repository checkout" % SRC,
              file=sys.stderr)
        return 2

    if args.workload == "all":
        codes = []
        for name in workloads.WORKLOADS:
            argv = ["--workload", name, "--seed", str(args.seed), "--seconds",
                    str(args.seconds), "--trace", str(args.trace), "--sizes", args.sizes]
            sys.stdout.flush()
            codes.append(subprocess.run([sys.executable, __file__] + argv).returncode)
        return max(codes)

    run = Run(args)
    shutil.rmtree(run.work, ignore_errors=True)
    run.work.mkdir(parents=True)
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "sizes": args.sizes, "nproc": os.cpu_count(),
           "python": platform.python_version(), "commit": git_commit(),
           "loadavg_start": loadavg()}
    print("# " + " ".join("%s=%s" % kv for kv in env.items()))

    run.prepare()
    plain, traced, setup = run.passes() if not run.failures else ([], [], [])
    env["loadavg_end"] = loadavg()

    failed = len(run.failures)
    attempted = max(run.attempted, 1)
    shares = {
        "unknown_share": median([p["unknown_share"] for p in plain + traced]),
        "failed_share": failed / attempted,
    }
    if args.trace:
        layers = [p["layers"] for p in traced if p["layers"]]
        values = {name: median([l[name] for l in layers]) for name, _ in LAYER_METRICS}
        base = median([p["loop_s"] for p in plain if p["loop_s"] is not None])
        over = median([p["loop_s"] for p in traced if p["loop_s"] is not None]) - base
        values["trace.overhead_s"] = over
        values["trace.overhead_share"] = over / base if base else 0.0
        values.update(shares)
        spec = PER_LAYER
    else:
        values = {
            "wall_s": median([p["wall_s"] for p in plain]),
            "cpu_s": median([p["cpu_s"] for p in plain]),
            "setup_s": min(setup, default=0.0),
            "peak_rss_mb": median([p["peak_rss_mb"] for p in plain]),
        }
        values.update(shares)
        spec = END_TO_END + SHARES
    for name, unit in spec:
        print("%s %s %s" % (name, repr(values[name]), unit))
    print("# loadavg_end=%s passes=%d traced=%d setup_probes=%d setup_median=%r"
          % (env["loadavg_end"], len(plain), len(traced), len(setup), median(setup)))

    emitted = PER_LAYER if args.trace else END_TO_END
    record = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in emitted},
    }
    summary = dict(env, failures=run.failures, passes=plain + traced, setup_s=setup)
    (run.work / "result.json").write_text(
        json.dumps(dict(summary, result=record), indent=1) + "\n")
    for index in range(1, len(plain) + len(traced)):
        # keep the spans of the last traced pass only
        (run.work / ("pass%d" % index) / "spans.jsonl").unlink(missing_ok=True)
    print(json.dumps(record))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
