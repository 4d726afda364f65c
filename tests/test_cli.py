"""End-to-end command line runs, in process via cli.main."""

import json
import shutil
from pathlib import Path

import pytest

from burnlab import cli
from burnlab.presentation import GradedPresentation

DIAGRAM_DIR = Path(__file__).parent / "data" / "diagrams"

DENSITY_RANK0_GOLDEN = (
    "n,ball,hg_count,ratio_lo,ratio_hi,bound\n"
    "0,1,1,1,1,1\n"
    "1,7,5,5/7,5/7,6\n"
    "2,37,17,17/37,17/37,29\n"
    "3,187,61,61/187,61/187,112\n"
    "4,937,193,193/937,193/937,405\n")


@pytest.fixture(autouse=True)
def no_ambient_config(monkeypatch):
    monkeypatch.delenv(cli.CONFIG_ENV, raising=False)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared presentation artifacts: rank 0 and rank 1 at m=1, k=3."""
    ws = tmp_path_factory.mktemp("cli-ws")
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(cli.CONFIG_ENV, raising=False)
        assert cli.main(["build", "--max-rank", "0",
                         "--out-dir", str(ws / "r0")]) == 0
        assert cli.main(["build", "--max-rank", "1",
                         "--out-dir", str(ws / "r1")]) == 0
    return ws


def presentation_path(workspace, rank):
    return str(workspace / ("r%d" % rank) / "presentation.json")


class TestBuild:
    def test_writes_presentation_and_report(self, workspace):
        pres = GradedPresentation.from_json(
            Path(presentation_path(workspace, 1)).read_text())
        assert pres.max_rank == 1
        assert [p.format() for p in pres.periods(1)] == ["s1"]
        report = (workspace / "r1" / "build-report.txt").read_text()
        assert "rank 1: admitted 1, rejected 5, unknown 0" in report
        assert "caveat" in report  # k=3 runs under the waived epsilon*k bound
        assert "conjugate-duplicate" in report

    def test_worker_count_does_not_change_bytes(self, workspace, tmp_path):
        assert cli.main(["build", "--max-rank", "1", "--workers", "4",
                         "--out-dir", str(tmp_path)]) == 0
        a = (tmp_path / "presentation.json").read_bytes()
        b = Path(presentation_path(workspace, 1)).read_bytes()
        assert a == b

    def test_parameter_gate_stops_the_run(self, tmp_path, capsys):
        rc = cli.main(["build", "--max-rank", "0", "--k", "4",
                       "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "C-K-ODD" in capsys.readouterr().err
        assert not (tmp_path / "presentation.json").exists()


class TestGrowth:
    def test_single_row_table(self, workspace, tmp_path):
        rc = cli.main(["growth", "--rank", "0", "--n-max", "0",
                       "--presentation", presentation_path(workspace, 0),
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        out = (tmp_path / "growth-G-rank0.csv").read_text()
        assert out == "radius,count,flag\n0,1,exact\n"

    def test_json_format(self, workspace, tmp_path):
        rc = cli.main(["growth", "--rank", "1", "--n-max", "2",
                       "--subgroup", "H", "--format", "json",
                       "--presentation", presentation_path(workspace, 1),
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        data = json.loads((tmp_path / "growth-H-rank1.json").read_text())
        assert data["series"] == "gamma_H"
        assert [row["count"] for row in data["rows"]] == [1, 5, 17]

    def test_missing_presentation(self, tmp_path, capsys):
        rc = cli.main(["growth", "--rank", "0", "--n-max", "1",
                       "--presentation", str(tmp_path / "nope.json"),
                       "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "cannot read presentation" in capsys.readouterr().err


class TestDensity:
    def test_rank0_golden(self, workspace, tmp_path):
        rc = cli.main(["density", "--rank", "0", "--n-max", "4",
                       "--presentation", presentation_path(workspace, 0),
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "density-rank0.csv").read_text() == DENSITY_RANK0_GOLDEN

    def test_reruns_and_workers_are_byte_identical(self, workspace, tmp_path):
        outs = []
        for sub, workers in (("a", "1"), ("b", "1"), ("c", "4")):
            rc = cli.main(["density", "--rank", "1", "--n-max", "3",
                           "--method", "union", "--workers", workers,
                           "--presentation", presentation_path(workspace, 1),
                           "--out-dir", str(tmp_path / sub)])
            assert rc == 0
            outs.append((tmp_path / sub / "density-rank1.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_bad_range(self, workspace, tmp_path, capsys):
        rc = cli.main(["density", "--rank", "0", "--n-max", "1", "--n-min", "3",
                       "--presentation", presentation_path(workspace, 0),
                       "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "--n-min" in capsys.readouterr().err


class TestLawprob:
    def test_exhaustive_sweep_rows(self, workspace, tmp_path):
        rc = cli.main(["lawprob", "--law", "x1^3", "--mode", "exhaustive",
                       "--rank", "1", "--radius", "2", "--radius-min", "1",
                       "--presentation", presentation_path(workspace, 1),
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        data = json.loads((tmp_path / "lawprob.json").read_text())
        assert data["law"] == "x1^3" and data["mode"] == "exhaustive"
        assert [r["n"] for r in data["rows"]] == [1, 2]
        row = data["rows"][1]
        assert set(row) == {"n", "trials", "holds", "fails", "unknown",
                            "ci_lo", "ci_hi", "p_lo", "p_hi", "exact"}
        assert row["p_lo"] == row["p_hi"] == "3/35" and row["exact"]
        assert data["diagnostics"]["n_values"] == [1, 2]

    def test_sampling_needs_seed_and_trials(self, workspace, tmp_path, capsys):
        base = ["lawprob", "--law", "x1^3", "--mode", "ball", "--rank", "1",
                "--radius", "2",
                "--presentation", presentation_path(workspace, 1),
                "--out-dir", str(tmp_path)]
        assert cli.main(base + ["--trials", "5"]) == 2
        assert "--seed" in capsys.readouterr().err
        assert cli.main(base + ["--seed", "3"]) == 2
        assert "--trials" in capsys.readouterr().err
        assert cli.main(base + ["--trials", "5", "--seed", "3"]) == 0

    def test_walk_mode_deterministic(self, workspace, tmp_path):
        cmd = ["lawprob", "--law", "[x1,x2]", "--mode", "walk", "--rank", "1",
               "--radius", "4", "--trials", "25", "--seed", "11",
               "--presentation", presentation_path(workspace, 1)]
        assert cli.main(cmd + ["--out-dir", str(tmp_path / "a")]) == 0
        assert cli.main(cmd + ["--out-dir", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "lawprob.json").read_bytes() == \
            (tmp_path / "b" / "lawprob.json").read_bytes()

    def test_over_cap_exponent_exits_2(self, workspace, tmp_path, capsys):
        rc = cli.main(["lawprob", "--law", "x1^99999", "--mode", "exhaustive",
                       "--rank", "1", "--radius", "1",
                       "--presentation", presentation_path(workspace, 1),
                       "--out-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "law exponent exceeds 10000" in err


class TestRwalk:
    def test_runs_and_is_deterministic(self, workspace, tmp_path):
        cmd = ["rwalk", "--rank", "1", "--steps", "6", "--trials", "50",
               "--seed", "3",
               "--presentation", presentation_path(workspace, 1)]
        assert cli.main(cmd + ["--out-dir", str(tmp_path / "a")]) == 0
        assert cli.main(cmd + ["--out-dir", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "rwalk.json").read_bytes()
        assert a == (tmp_path / "b" / "rwalk.json").read_bytes()
        data = json.loads(a)
        assert data["trials"] == 50 and data["unknown"] == 0

    def test_seed_required(self, workspace, tmp_path, capsys):
        rc = cli.main(["rwalk", "--rank", "1", "--steps", "4", "--trials", "5",
                       "--presentation", presentation_path(workspace, 1),
                       "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "--seed" in capsys.readouterr().err


class TestDiagramCheck:
    def test_directory_sweep(self, workspace, tmp_path):
        d = tmp_path / "diagrams"
        d.mkdir()
        for name in ("c01-cell-s1cubed", "c03-empty-square"):
            shutil.copy(DIAGRAM_DIR / ("%s.json" % name), d)
        rc = cli.main(["diagram-check", str(d),
                       "--presentation", presentation_path(workspace, 1),
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        report = (tmp_path / "diagram-report.csv").read_text()
        lines = report.strip().split("\n")
        assert lines[0].startswith("name,valid,r,euler")
        assert lines[1].startswith("c01-cell-s1cubed,True,1,2,pass,fail,pass")
        assert lines[2].startswith("c03-empty-square,True,0,2,pass,pass,pass")

    def test_expected_mismatch_exits_1(self, workspace, tmp_path, capsys):
        exp = tmp_path / "expected.json"
        exp.write_text(json.dumps({"c03-empty-square": {
            "ok": True, "A": {"A1": "pass", "A2": "fail", "A3": "pass"}}}))
        rc = cli.main(["diagram-check",
                       str(DIAGRAM_DIR / "c03-empty-square.json"),
                       "--expected", str(exp),
                       "--presentation", presentation_path(workspace, 1),
                       "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "diverged" in capsys.readouterr().err

    def test_expected_match_exits_0(self, workspace, tmp_path):
        exp = tmp_path / "expected.json"
        exp.write_text(json.dumps({"c03-empty-square": {
            "ok": True, "A": {"A1": "pass", "A2": "pass", "A3": "pass"}}}))
        rc = cli.main(["diagram-check",
                       str(DIAGRAM_DIR / "c03-empty-square.json"),
                       "--expected", str(exp),
                       "--presentation", presentation_path(workspace, 1),
                       "--out-dir", str(tmp_path)])
        assert rc == 0


class TestStructure:
    def test_clean_presentation_passes(self, workspace, tmp_path):
        rc = cli.main(["structure",
                       "--presentation", presentation_path(workspace, 1),
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        data = json.loads((tmp_path / "structure.json").read_text())
        assert data["ok"] and data["failures"] == []

    def test_duplicate_period_fails_the_audit(self, workspace, tmp_path, capsys):
        doc = json.loads(Path(presentation_path(workspace, 1)).read_text())
        doc["ranks"].append({"rank": 2, "periods": ["a.s1", "a.s1"],
                             "approximate": False})
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = cli.main(["structure", "--presentation", str(bad),
                       "--out-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "structure audit failed" in err
        data = json.loads((tmp_path / "structure.json").read_text())
        assert not data["ok"]
        assert any(f["check"] == "P3" for f in data["failures"])

    @pytest.mark.parametrize("path, value, message", [
        (("alphabet", "m"), "x", "field alphabet.m must be an integer"),
        (("params", "alpha"), "1/0", "field params.alpha must be an exact rational"),
        (("ranks", 0, "periods"), 5, "field ranks[0].periods must be a list of strings"),
        (("ranks",), "x", "field ranks must be a list"),
        (("params", "k"), 3.5, "field params.k must be an integer, got 3.5"),
    ])
    def test_malformed_presentation_exits_2(self, workspace, tmp_path, capsys,
                                            path, value, message):
        doc = json.loads(Path(presentation_path(workspace, 1)).read_text())
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = cli.main(["structure", "--presentation", str(bad),
                       "--out-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err


class TestConfig:
    def test_file_env_and_flags_precedence(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"m": 2, "params": {"k": 5}}))
        monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))

        assert cli.main(["build", "--max-rank", "0",
                         "--out-dir", str(tmp_path / "env")]) == 0
        pres = GradedPresentation.from_json(
            (tmp_path / "env" / "presentation.json").read_text())
        assert pres.alphabet.m == 2 and pres.params.k == 5

        assert cli.main(["build", "--max-rank", "0", "--m", "1", "--k", "3",
                         "--allow-small-k",
                         "--out-dir", str(tmp_path / "flag")]) == 0
        pres = GradedPresentation.from_json(
            (tmp_path / "flag" / "presentation.json").read_text())
        assert pres.alphabet.m == 1 and pres.params.k == 3

    def test_unknown_config_field(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        rc = cli.main(["build", "--max-rank", "0", "--config", str(cfg),
                       "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "unknown config fields: bogus" in capsys.readouterr().err

    def test_invalid_config_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{broken")
        rc = cli.main(["build", "--max-rank", "0", "--config", str(cfg),
                       "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err
