"""The benchmark's workloads: the CLI command sequences each pass runs.

Every workload is a closed loop: one process runs its commands one after
another through `burnlab.cli.main`, each starting only when the previous one
has returned.  The input presentation for `ball`, `density` and `rwalk` is
generated before timing starts (`build --max-rank <input_rank>`) and passed in
as a file.

Two size tables exist.  `bench` is what the benchmark measures; its sizes are
chosen so one pass takes seconds on a 2-core host and a run of many passes
stays inside the benchmark's time limit (growth to radius 4, density to n=6
and 100 000 walk trials take 14 to 45 s each).  `tiny` is for the harness
self-test.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("build", "ball", "density", "rwalk")

SIZES = {
    "bench": {
        "input_rank": 2,
        "builds": ((3, 3), (4, 5)),  # (max rank, k), each followed by structure
        "ball_rank": 2,
        "growth_n": 3,
        "law_radius": 3,
        "law_trials": 2000,
        "density_rank": 1,
        "density_n": 5,
        "rwalk_rank": 2,
        "rwalk_trials": 50_000,
    },
    "tiny": {
        "input_rank": 1,
        "builds": ((1, 3), (1, 5)),
        "ball_rank": 1,
        "growth_n": 2,
        "law_radius": 2,
        "law_trials": 50,
        "density_rank": 1,
        "density_n": 2,
        "rwalk_rank": 1,
        "rwalk_trials": 50,
    },
}

WALK_STEPS = 30
LAW = "x1^3"
# seed at which the lawprob reference counts were recorded
REFERENCE_SEED = 7


@dataclass(frozen=True)
class Command:
    name: str  # CLI subcommand
    argv: tuple[str, ...]
    artifacts: tuple[str, ...]  # files it writes, relative to the pass directory


def input_command(sizes: str, out_dir: str) -> tuple[str, ...]:
    return ("build", "--max-rank", str(SIZES[sizes]["input_rank"]), "--out-dir", out_dir)


def setup_inputs(workload: str, sizes: str, presentation: str,
                 reference: str) -> list[tuple[str, tuple[int, ...]]]:
    """(presentation file, ranks) pairs a command of this workload loads and
    builds relator systems for before its first oracle query.  `build` loads
    no input; its `structure` commands load the presentations the builds
    write, taken here from the references under `reference`."""
    size = SIZES[sizes]
    if workload == "build":
        return [("%s/build/rank%d-k%d/presentation.json" % (reference, max_rank, k),
                 tuple(range(max_rank + 1)))
                for max_rank, k in size["builds"]]
    rank = size["%s_rank" % workload]
    return [(presentation, (rank,))]


def commands(workload: str, sizes: str, seed: int, presentation: str,
             pass_dir: str) -> list[Command]:
    size = SIZES[sizes]

    def cmd(name, out, artifacts, *args):
        argv = (name,) + tuple(str(a) for a in args) + ("--out-dir", "%s/%s" % (pass_dir, out))
        return Command(name, argv, tuple("%s/%s" % (out, a) for a in artifacts))

    if workload == "build":
        out = []
        for max_rank, k in size["builds"]:
            d = "rank%d-k%d" % (max_rank, k)
            out.append(cmd("build", d, ("presentation.json", "build-report.txt"),
                           "--max-rank", max_rank, "--k", k, "--workers", 2))
            out.append(cmd("structure", d, ("structure.json",),
                           "--presentation", "%s/%s/presentation.json" % (pass_dir, d)))
        return out
    if workload == "ball":
        r = size["ball_rank"]
        return [
            cmd("growth", "growth", ("growth-G-rank%d.csv" % r,),
                "--presentation", presentation, "--rank", r, "--n-max", size["growth_n"]),
            cmd("lawprob", "lawprob", ("lawprob.json",),
                "--presentation", presentation, "--law", LAW, "--mode", "ball",
                "--rank", r, "--radius", size["law_radius"],
                "--trials", size["law_trials"], "--seed", seed),
        ]
    if workload == "density":
        r = size["density_rank"]
        # JSON carries ball_flag and hg_flag, which the CSV leaves out
        return [cmd("density", "density", ("density-rank%d.json" % r,),
                    "--presentation", presentation, "--rank", r, "--n-min", 0,
                    "--n-max", size["density_n"], "--method", "union",
                    "--format", "json")]
    if workload == "rwalk":
        return [cmd("rwalk", "rwalk", ("rwalk.json",),
                    "--presentation", presentation, "--rank", size["rwalk_rank"],
                    "--steps", WALK_STEPS, "--trials", size["rwalk_trials"],
                    "--seed", seed)]
    raise ValueError("unknown workload %r" % workload)


def reference_seed_commands(workload: str, sizes: str, presentation: str,
                            out_dir: str) -> list[Command]:
    """The workload's seeded commands that have a reference, at the seed the
    reference was recorded with.  A run makes them once, untimed, so their
    decided counts are compared with the reference whatever seed it uses."""
    return [c for c in commands(workload, sizes, REFERENCE_SEED, presentation, out_dir)
            if c.name == "lawprob"]
