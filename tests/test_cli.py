"""End-to-end command line runs, in process via cli.main."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from burnlab import cli
from burnlab.errors import BurnlabError
from burnlab.oracle import OracleBudget
from burnlab.presentation import GradedPresentation, SmallCancellationParams
from burnlab.words import MAX_ALPHABET_M

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

    def test_alphabet_past_its_bound_exits_2(self, tmp_path, capsys):
        rc = cli.main(["build", "--max-rank", "0", "--m", str(10 ** 30),
                       "--out-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "m exceeds MAX_ALPHABET_M = 500000" in err


    def test_alphabet_one_past_its_bound_exits_2(self, tmp_path, capsys):
        rc = cli.main(["build", "--max-rank", "0", "--m", str(MAX_ALPHABET_M + 1),
                       "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "m exceeds MAX_ALPHABET_M = %d" % MAX_ALPHABET_M in capsys.readouterr().err


class TestImports:
    @staticmethod
    def run_fresh(code: str) -> str:
        """Stripped stdout of `code` run in a new interpreter."""
        src = str(Path(cli.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                              capture_output=True, text=True).stdout.strip()

    def test_cli_leaves_the_diagram_module_unimported(self):
        # only diagram-check needs it, and it imports it itself
        code = "import sys, burnlab.cli; print('burnlab.diagrams' in sys.modules)"
        assert self.run_fresh(code) == "False"

    def test_cli_start_up_generates_no_code(self):
        # records derive from burnlab.records.Record: no module of the CLI
        # path may import the dataclass machinery and its inspect import
        code = ("import sys, burnlab.cli, burnlab.presentation; print(sorted(m for m in "
                "('dataclasses', 'inspect', 'burnlab.diagrams') if m in sys.modules))")
        assert self.run_fresh(code) == "[]"


class TestExitCodes:
    """Exceptions outside the input, state and invariant taxonomy exit 3 with
    one line naming their type, never a traceback or the invariant code 1."""

    @pytest.mark.parametrize("exc, line", [
        (RuntimeError("boom\nsecond line"), "internal error: RuntimeError: boom second line\n"),
        (BurnlabError("cyclic trace assembly mismatch"),
         "internal error: BurnlabError: cyclic trace assembly mismatch\n"),
    ])
    def test_other_exceptions_exit_3_in_one_line(self, tmp_path, monkeypatch, capsys,
                                                 exc, line):
        def fail(cfg, args):
            raise exc
        monkeypatch.setattr(cli, "cmd_build", fail)
        rc = cli.main(["build", "--max-rank", "0", "--out-dir", str(tmp_path)])
        assert rc == 3
        assert capsys.readouterr().err == line


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

    def test_deeply_nested_law_exits_2(self, workspace, tmp_path, capsys):
        # 1,000 levels once overflowed the parser's recursion with exit 1
        rc = cli.main(["lawprob", "--law", "(" * 1000 + "x1^3" + ")" * 1000,
                       "--mode", "exhaustive", "--rank", "1", "--radius", "1",
                       "--presentation", presentation_path(workspace, 1),
                       "--out-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "law nests deeper than 100" in err


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

    @pytest.mark.parametrize("doc, message", [
        ({"c01-cell-s1cubed": 5}, "field c01-cell-s1cubed must be an object"),
        (["c01-cell-s1cubed"], "expected file must be an object"),
        ({"c01-cell-s1cubed": {"ok": 1}},
         "field c01-cell-s1cubed.ok must be true or false"),
        ({"c01-cell-s1cubed": {"ok": True, "A": 5}},
         "field c01-cell-s1cubed.A must be an object"),
        ({"c01-cell-s1cubed": {"ok": True, "A": ["pass"]}},
         "field c01-cell-s1cubed.A must be an object"),
    ])
    def test_malformed_expected_exits_2_naming_it(self, workspace, tmp_path, capsys,
                                                  doc, message):
        exp = tmp_path / "expected.json"
        exp.write_text(json.dumps(doc))
        rc = cli.main(["diagram-check",
                       str(DIAGRAM_DIR / "c01-cell-s1cubed.json"),
                       "--expected", str(exp),
                       "--presentation", presentation_path(workspace, 1),
                       "--out-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err

    def test_expected_name_without_diagram_exits_2_naming_it(self, workspace, tmp_path,
                                                             capsys):
        exp = tmp_path / "expected.json"
        exp.write_text(json.dumps({"c01-typo": {"ok": False},
                                   "c01-cell-s1cubed": {"ok": True},
                                   "c99-missing": {"ok": True}}))
        rc = cli.main(["diagram-check",
                       str(DIAGRAM_DIR / "c01-cell-s1cubed.json"),
                       "--expected", str(exp),
                       "--presentation", presentation_path(workspace, 1),
                       "--out-dir", str(tmp_path)])
        assert rc == 2
        out, err = capsys.readouterr()
        assert "all expected verdicts reproduced" not in out
        assert err.count("\n") == 1 and "no checked diagram: c01-typo, c99-missing" in err

    @pytest.mark.parametrize("doc, message", [
        ({"faces": 5}, "field faces must be a list, got 5"),
        ([], "document root must be an object, got []"),
        ({"vertices": 3, "edges": [], "faces": []},
         "field vertices must be a list of strings, got 3"),
        ({"topology": "disk", "vertices": ["v"], "faces": [], "contours": [],
          "edges": [{"id": "e", "from": "v", "to": "v", "label": "s" + "9" * 5000,
                     "inverse_id": "e"}]},
         "field edges[0].label: generator index in 's99999999999999999'... has more than "
         "18 digits"),
    ])
    def test_malformed_diagram_exits_2_naming_its_field(self, workspace, tmp_path, capsys,
                                                        doc, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = cli.main(["diagram-check", str(bad),
                       "--presentation", presentation_path(workspace, 1),
                       "--out-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "malformed diagram: " + message in err


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
        (("alphabet", "m"), 10 ** 30, "m exceeds MAX_ALPHABET_M = 500000"),
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

    @pytest.mark.parametrize("command", [["structure"], ["growth", "--rank", "1", "--n-max", "1"]])
    def test_overlong_generator_index_exits_2(self, workspace, tmp_path, capsys, command):
        doc = json.loads(Path(presentation_path(workspace, 1)).read_text())
        doc["ranks"][0]["periods"] = ["S" + "9" * 5000]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        rc = cli.main(command + ["--presentation", str(bad), "--out-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "generator index in 'S99999999999999999'... has more than 18 digits" in err

    def test_relator_past_the_letter_cap_exits_2(self, tmp_path, capsys):
        # the length is compared before the relator word is built: s1^k at
        # this k would not fit in memory
        k = 4611686018427387905
        assert cli.main(["build", "--max-rank", "1", "--k", str(k),
                         "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        rc = cli.main(["structure", "--out-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "relator x1.0 expands past 10000 letters" in err


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

    @pytest.mark.parametrize("text", ['{"seed": %s}' % ("9" * 5000), "[" * 100_000],
                             ids=["5000-digit-integer", "deep-nesting"])
    @pytest.mark.parametrize("loader", ["config", "expected", "diagram"])
    def test_unparseable_json_exits_2(self, workspace, tmp_path, capsys, text, loader):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        diagram = str(bad if loader == "diagram" else DIAGRAM_DIR / "c01-cell-s1cubed.json")
        argv = ["diagram-check", diagram, "--presentation", presentation_path(workspace, 1),
                "--out-dir", str(tmp_path)]
        if loader != "diagram":
            argv += ["--" + loader, str(bad)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert ("malformed diagram JSON" if loader == "diagram" else "not valid JSON") in err

    @pytest.mark.parametrize("doc, field", [
        ({"budget": {"max_relator_applications": "x"}},
         "budget.max_relator_applications must be an integer"),
        ({"budget": {"time_cap": 1}}, "unknown budget field 'time_cap'"),
        ({"budget": {"max_conjugator_length": 3}},
         "unknown budget field 'max_conjugator_length'"),
        ({"budget": {"max_ball_radius": 2.5}}, "budget.max_ball_radius must be an integer"),
        ({"m": True}, "field m must be an integer"),
        ({"seed": "7"}, "field seed must be an integer"),
        ({"out_dir": 5}, "field out_dir must be a string"),
        ({"params": {"alpha": "1e-100000000"}}, "field params.alpha must be an exact rational"),
    ])
    def test_mistyped_field_exits_2_naming_it(self, tmp_path, monkeypatch, capsys,
                                              doc, field):
        # no --out-dir flag, which would win over the file's out_dir
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        rc = cli.main(["build", "--max-rank", "0", "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and field in err

    def test_null_fields_keep_their_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": None, "budget": {
            "max_relator_applications": None, "max_ball_radius": 3.0}}))
        args = cli.build_parser().parse_args(
            ["build", "--max-rank", "0", "--config", str(cfg)])
        loaded = cli.load_config(args)
        assert loaded.seed is None
        assert loaded.budget == OracleBudget(max_ball_radius=3)

    def test_defaults_are_the_parameter_defaults(self):
        loaded = cli.load_config(cli.build_parser().parse_args(["build", "--max-rank", "0"]))
        assert loaded.params == SmallCancellationParams(allow_small_k=True)
        assert (loaded.m, loaded.budget, loaded.seed) == (1, OracleBudget(), None)

    def test_budget_surface_names_one_field_set(self, capsys):
        fields = set(OracleBudget._fields)
        group = next(g for g in cli._common_parser()._action_groups
                     if g.title == "oracle budget")
        assert set(cli._BUDGET_FIELDS) == fields
        assert {a.dest for a in group._group_actions} == fields
        for flag in ("--time-cap", "--max-conjugator-length"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["build", "--max-rank", "1", flag, "1"])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "unrecognized arguments: %s 1" % flag in err and "Traceback" not in err


GOLDEN_DIR = Path(__file__).parent / "data" / "golden"
BENCH_REFERENCE = Path(__file__).parent.parent / "bench" / "reference" / "bench"
BENCH_INPUT = str(BENCH_REFERENCE / "input" / "presentation.json")


class TestGoldenSamplingArtifacts:
    """The sampling commands' artifacts, byte for byte: the walk artifacts as
    recorded before walks drew from precomputed thresholds and tallies queried
    each distinct word once, and the bench ball lawprob with no unknown."""

    @pytest.mark.parametrize("golden, argv", [
        ("rwalk-rank1-seed5.json",
         ["rwalk", "--rank", "1", "--steps", "30", "--trials", "2000"]),
        ("lawprob-walk-rank1-seed5.json",
         ["lawprob", "--law", "[x1,x2]", "--mode", "walk", "--rank", "1",
          "--radius", "4", "--radius-min", "3", "--trials", "60"]),
    ])
    def test_bytes_match_recorded(self, workspace, tmp_path, golden, argv):
        out = tmp_path / "out.json"
        assert cli.main(argv + ["--seed", "5", "--out", str(out),
                                "--presentation", presentation_path(workspace, 1)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / golden).read_bytes()

    def test_ball_lawprob_bytes_match_recorded(self, tmp_path):
        # the bench `ball` workload's lawprob at its reference seed
        out = tmp_path / "out.json"
        assert cli.main(["lawprob", "--presentation", BENCH_INPUT, "--law", "x1^3",
                         "--mode", "ball", "--rank", "2", "--radius", "3",
                         "--trials", "2000", "--seed", "7", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / "lawprob-ball-rank2-seed7.json").read_bytes()


class TestBenchReferenceBytes:
    """The benchmark's unseeded artifacts, replayed through the command line
    and compared byte for byte with the files it checks them against."""

    @pytest.mark.parametrize("reference, commands", [
        ("build/rank3-k3", [["build", "--max-rank", "3"], ["structure"]]),
        ("build/rank4-k5", [["build", "--max-rank", "4", "--k", "5"], ["structure"]]),
        ("ball/growth", [["growth", "--presentation", BENCH_INPUT, "--rank", "2",
                          "--n-max", "3"]]),
        ("density/density", [["density", "--presentation", BENCH_INPUT, "--rank", "1",
                              "--n-max", "5", "--method", "union", "--format", "json"]]),
    ])
    def test_bytes_match_reference(self, tmp_path, reference, commands):
        for argv in commands:
            assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 0
        expected = sorted((BENCH_REFERENCE / reference).iterdir())
        assert expected
        for path in expected:
            assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name


class TestGoldenBuildBytes:
    """`build --max-rank 4` at k=3, byte for byte, as recorded when every
    candidate's simplicity check searched its whole cyclic component; 84 of
    its rejections are `period-power`, the hit that search now stops at."""

    def test_rank4_k3_bytes_match_recorded(self, tmp_path):
        assert cli.main(["build", "--max-rank", "4", "--out-dir", str(tmp_path)]) == 0
        expected = [GOLDEN_DIR / "build-rank4-k3" / name
                    for name in ("build-report.txt", "presentation.json")]
        for path in expected:
            assert (tmp_path / path.name).read_bytes() == path.read_bytes(), path.name

    def test_rank4_k3_structure_bytes_match_recorded(self, tmp_path):
        # the audit of the recorded presentation, as recorded when P3 made
        # one `RankOracle.conjugate` query per pair of periods
        golden = GOLDEN_DIR / "build-rank4-k3"
        assert cli.main(["structure", "--presentation", str(golden / "presentation.json"),
                         "--out-dir", str(tmp_path)]) == 0
        assert ((tmp_path / "structure.json").read_bytes()
                == (golden / "structure.json").read_bytes())
