"""Run one pass of a workload in this process and write a result file.

    python3 bench/worker.py --workload ball --seed 7 --sizes bench \\
        --presentation IN.json --pass-dir DIR --result OUT.json [--trace]

The commands go through `burnlab.cli.main` one after another.  A command
fails on a nonzero exit code or an uncaught exception (its traceback goes to
stderr).  With --trace the layers are wrapped (see tracer.py), every yes
witness is replayed after the pass, and the spans are written to
DIR/spans.jsonl.  `run.py` starts this process and measures its wall time,
CPU time and peak RSS from the outside.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from time import perf_counter

import workloads


def run_command(main, argv) -> str:
    """Return "" on success, else a short failure reason."""
    try:
        rc = main(list(argv))
    except SystemExit as exc:  # argparse rejects bad arguments this way
        rc = exc.code
    except Exception:  # the CLI must never raise; record it as a failure
        traceback.print_exc()
        return "traceback"
    return "" if rc == 0 else "exit code %s" % rc


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--sizes", required=True, choices=sorted(workloads.SIZES))
    ap.add_argument("--presentation", required=True)
    ap.add_argument("--pass-dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    from burnlab import cli

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    failures = []
    cmds = workloads.commands(args.workload, args.sizes, args.seed,
                              args.presentation, args.pass_dir)
    start = perf_counter()
    for cmd in cmds:
        if tracer is None:
            reason = run_command(cli.main, cmd.argv)
        else:
            tracer.start_trace()
            reason = tracer.run_span("cli." + cmd.name, run_command, cli.main, cmd.argv)
        failures.append(reason)
    loop_s = perf_counter() - start

    result = {"loop_s": loop_s, "failures": failures}
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics()
        sampled, failed = tracer.replay()
        layers["oracle.replay_sampled"] = sampled
        layers["oracle.replay_failed"] = failed
        result["layers"] = layers
        result["spans"] = tracer.write_spans("%s/spans.jsonl" % args.pass_dir)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
