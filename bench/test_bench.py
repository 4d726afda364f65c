"""Self-test of the benchmark harness at tiny sizes.

    python3 -m pytest bench

Runs every workload through run.py with `--sizes tiny` in both modes and
checks that exactly the metrics BENCHMARK.json names are emitted, that the
output checks reject doctored artifacts, and that the benchmark refuses to
run without the burnlab sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = BENCH / "reference" / "tiny"


def run_bench(workload: str, trace: int, cwd: Path = ROOT,
              seed: int = 7) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--sizes", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_emitted(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    printed = {line.split()[0] for line in lines[:-1] if not line.startswith("#")}
    assert {m["name"] for m in spec} <= printed
    assert {"unknown_share", "failed_share"} <= printed
    if trace:
        assert result["metrics"]["oracle.replay_failed"]["value"] == 0


def _doctor(tmp_path: Path, rel: str, old: str, new: str) -> Path:
    text = (TINY / rel).read_text()
    assert old in text
    out = tmp_path / Path(rel).name
    out.write_text(text.replace(old, new, 1))
    return out


def test_references_pass_their_own_check():
    for ref in TINY.rglob("*"):
        if ref.is_file():
            assert checks.problems(ref, ref, workloads.REFERENCE_SEED) == [], ref


def test_check_rejects_doctored_growth(tmp_path):
    rel = "ball/growth/growth-G-rank1.csv"
    doctored = _doctor(tmp_path, rel, "2,35,exact", "2,34,exact")
    assert checks.problems(doctored, TINY / rel, 7)


def test_check_rejects_changed_decision(tmp_path):
    rel = "build/rank1-k3/build-report.txt"
    doctored = _doctor(tmp_path, rel, "admitted\n", "rejected\n")
    assert checks.problems(doctored, TINY / rel, 7)


def test_check_rejects_broken_tally(tmp_path):
    rel = "ball/lawprob/lawprob.json"
    doc = json.loads((TINY / rel).read_text())
    doc["rows"][0]["holds"] += 1
    doctored = tmp_path / "lawprob.json"
    doctored.write_text(json.dumps(doc))
    assert checks.problems(doctored, TINY / rel, 8)


def test_check_rejects_doctored_density(tmp_path):
    rel = "density/density/density-rank1.json"
    doctored = _doctor(tmp_path, rel, '"hg_count": 17', '"hg_count": 16')
    assert checks.problems(doctored, TINY / rel, 7)
    # a decided row may not fall back to unknown
    doctored = _doctor(tmp_path, rel, '"hg_flag": "exact"', '"hg_flag": "upper"')
    assert checks.problems(doctored, TINY / rel, 7)
    assert checks.answers(doctored) == (1, 3)


def _lawprob(tmp_path: Path, holds: int, fails: int, unknown: int) -> Path:
    ref = BENCH / "reference" / "bench" / "ball" / "lawprob" / "lawprob.json"
    doc = json.loads(ref.read_text())
    trials = holds + fails + unknown
    doc["rows"][0].update(holds=holds, fails=fails, unknown=unknown, trials=trials,
                          p_lo=str(Fraction(holds, trials)),
                          p_hi=str(Fraction(holds + unknown, trials)))
    path = tmp_path / "lawprob.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("seed", [workloads.REFERENCE_SEED, 8])
def test_lawprob_decisions_checked_at_every_seed(tmp_path, seed):
    ref = BENCH / "reference" / "bench" / "ball" / "lawprob" / "lawprob.json"
    # the reference counts are 676 holds, 733 fails, 591 unknown of 2000
    assert checks.problems(_lawprob(tmp_path, 700, 750, 550), ref, seed) == []
    # yes answers turned into no, or every answer left unknown
    assert checks.problems(_lawprob(tmp_path, 400, 1009, 591), ref, seed)
    assert checks.problems(_lawprob(tmp_path, 0, 0, 2000), ref, seed)


def test_check_rejects_walk_far_from_one_third(tmp_path):
    walk = {"trials": 100000, "holds": 40000, "fails": 60000, "unknown": 0,
            "p_lo": "2/5", "p_hi": "2/5"}
    path = tmp_path / "rwalk.json"
    path.write_text(json.dumps(walk))
    assert checks.problems(path, tmp_path / "none", 7)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("rwalk", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("rel,old,new,seed", [
    ("ball/growth/growth-G-rank1.csv", "2,35,exact", "2,34,exact", 7),
    # at another seed the run checks lawprob at the reference seed on its own
    ("ball/lawprob/lawprob.json", '"holds": 5', '"holds": 6', 8),
])
def test_failed_check_fails_the_run(tmp_path, rel, old, new, seed):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    ref = tmp_path / "bench" / "reference" / "tiny" / rel
    assert old in ref.read_text()
    ref.write_text(ref.read_text().replace(old, new, 1))
    proc = run_bench("ball", 0, cwd=tmp_path, seed=seed)
    assert proc.returncode != 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"] and result["failed"] >= 1


def test_replay_catches_a_bad_witness():
    sys.path.insert(0, str(ROOT / "src"))
    from burnlab.oracle import OracleBudget
    from burnlab.presentation import GradedPresentation, SmallCancellationParams
    from burnlab.words import Alphabet, Word
    from tracer import Tracer

    pres, _ = GradedPresentation.build(Alphabet(1), SmallCancellationParams(
        k=3, allow_small_k=True), 1, OracleBudget())
    tracer = Tracer()
    tracer.install()
    try:
        verdict = pres.oracle(1).equal(Word.parse("b.s1.s1.s1.B"), Word(()))
    finally:
        tracer.uninstall()
    assert verdict.is_yes
    assert tracer.replay() == (1, 0)
    verdict.witness["steps"].pop()
    assert tracer.replay() == (1, 1)


def test_all_runs_every_workload():
    proc = run_bench("all", 0)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(workloads.WORKLOADS)
    assert all(r["correct"] for r in results)
    assert [line.split()[0] for line in proc.stdout.splitlines()
            if line.startswith("wall_s")] == ["wall_s"] * len(workloads.WORKLOADS)
