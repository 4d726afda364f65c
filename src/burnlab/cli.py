"""Batch command line: build graded presentations, then run the report
suites (growth, density, law probability, quotient walks, diagram checks,
structure audits) into files on disk.

Configuration comes from a JSON file (--config, else $BURNLAB_CONFIG); any
flag given on the command line wins over the file.  The cancellation
parameters are re-validated on every load, so a bad config dies with the
violated constraint named.  Sampling commands refuse to run without a seed.
Artifacts produced with the same config and seed are byte-identical.
Evaluation is sequential: --workers is accepted for compatibility and has no
effect (a thread pool was measured slower, the work being pure Python under
the GIL).

Exit codes: 0 success, 1 invariant violation, 2 input or state error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from .cayley import density_HG, density_rows_to_csv, density_rows_to_json, growth
from .diagrams import Diagram, check_condition_A, validate_diagram
from .errors import InputError, InvariantViolation, StateError
from .oracle import OracleBudget
from .presentation import GradedPresentation, SmallCancellationParams
from .probability import (
    GroupLaw,
    StepDistribution,
    law_probability_sweep,
    quotient_return_probability,
)
from .words import Alphabet, Word

CONFIG_ENV = "BURNLAB_CONFIG"

_PARAM_KEYS = ("k", "alpha", "beta", "gamma", "epsilon", "zeta", "h",
               "allow_small_k")
_BUDGET_KEYS = ("max_ball_radius", "max_relator_applications",
                "max_conjugator_length", "time_cap")

# desk-scale defaults: k=3 needs the epsilon*k bound waived, which the params
# gate records as a caveat rather than hiding
_DEFAULTS = {
    "m": 1,
    "params": {"k": 3, "alpha": "1/100", "beta": "1/200", "gamma": "1/300",
               "epsilon": "1/1000", "zeta": "1/2000", "h": 12,
               "allow_small_k": True},
    "budget": {},
    "seed": None,
    "out_dir": ".",
    "format": "csv",
}


@dataclass(frozen=True)
class SessionConfig:
    m: int
    params: SmallCancellationParams
    budget: OracleBudget
    seed: Optional[int]
    out_dir: Path
    fmt: str  # "csv" | "json"

    @property
    def alphabet(self) -> Alphabet:
        return Alphabet(self.m)


def load_config(args: argparse.Namespace) -> SessionConfig:
    data = json.loads(json.dumps(_DEFAULTS))
    path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV)
    if path:
        try:
            raw = Path(path).read_text()
        except OSError as exc:
            raise InputError("cannot read config %s: %s" % (path, exc))
        try:
            loaded = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise InputError("config %s is not valid JSON: %s" % (path, exc))
        if not isinstance(loaded, dict):
            raise InputError("config root must be a JSON object")
        extra = set(loaded) - {"m", "seed", "out_dir", "format", "params", "budget"}
        if extra:
            raise InputError("unknown config fields: %s" % ", ".join(sorted(extra)))
        for key in ("m", "seed", "out_dir", "format"):
            if key in loaded:
                data[key] = loaded[key]
        for block, allowed in (("params", _PARAM_KEYS), ("budget", _BUDGET_KEYS)):
            sub = loaded.get(block, {})
            if not isinstance(sub, dict):
                raise InputError("config %s must be an object" % block)
            for key in sub:
                if key not in allowed:
                    raise InputError("unknown %s field %r" % (block, key))
            data[block].update(sub)

    # flags win over the file
    if getattr(args, "m", None) is not None:
        data["m"] = args.m
    for key in _PARAM_KEYS:
        value = getattr(args, "param_" + key, None)
        if value is not None:
            data["params"][key] = value
    for key in _BUDGET_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            data["budget"][key] = value
    for key, attr in (("seed", "seed"), ("out_dir", "out_dir"), ("format", "format")):
        value = getattr(args, attr, None)
        if value is not None:
            data[key] = value

    if not isinstance(data["m"], int) or data["m"] < 0:
        raise InputError("m must be a non-negative integer")
    if data["format"] not in ("csv", "json"):
        raise InputError("format must be csv or json")
    if data["seed"] is not None and not isinstance(data["seed"], int):
        raise InputError("seed must be an integer")
    params = SmallCancellationParams.from_dict(data["params"])
    budget = OracleBudget(**{k: data["budget"][k] for k in _BUDGET_KEYS
                             if k in data["budget"]})
    return SessionConfig(m=data["m"], params=params, budget=budget,
                         seed=data["seed"], out_dir=Path(data["out_dir"]),
                         fmt=data["format"])


def _write_artifact(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print("wrote %s" % path)


def _out_path(cfg: SessionConfig, args: argparse.Namespace, default: str) -> Path:
    return Path(args.out) if getattr(args, "out", None) else cfg.out_dir / default


def _load_presentation(cfg: SessionConfig, args: argparse.Namespace) -> GradedPresentation:
    path = Path(args.presentation) if args.presentation \
        else cfg.out_dir / "presentation.json"
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputError("cannot read presentation %s: %s" % (path, exc))
    return GradedPresentation.from_json(text)


def _require_seed(cfg: SessionConfig, what: str) -> int:
    if cfg.seed is None:
        raise InputError("%s samples; provide --seed or a config seed" % what)
    return cfg.seed


# subcommands --------------------------------------------------------------

def cmd_build(cfg: SessionConfig, args: argparse.Namespace) -> int:
    if args.max_rank < 0:
        raise InputError("--max-rank must be >= 0")
    pres, reports = GradedPresentation.build(
        cfg.alphabet, cfg.params, args.max_rank, cfg.budget)
    _write_artifact(_out_path(cfg, args, "presentation.json"), pres.to_json() + "\n")

    lines = ["build report",
             "m=%d k=%d max_rank=%d" % (cfg.m, cfg.params.k, args.max_rank)]
    lines.extend("caveat: %s" % c for c in cfg.params.caveats)
    for rep in reports:
        tally = {"admitted": 0, "rejected": 0, "unknown": 0}
        for rec in rep.records:
            tally[rec.outcome] += 1
        head = ("rank %d: admitted %d, rejected %d, unknown %d%s"
                % (rep.rank, tally["admitted"], tally["rejected"],
                   tally["unknown"], " (approximate)" if rep.approximate else ""))
        lines.append(head)
        print(head)
        for rec in rep.records:
            lines.append(("  %-14s %-9s %s"
                          % (rec.word, rec.outcome, rec.reason or "")).rstrip())
    report_path = Path(args.report) if args.report else cfg.out_dir / "build-report.txt"
    _write_artifact(report_path, "\n".join(lines) + "\n")
    return 0


def cmd_growth(cfg: SessionConfig, args: argparse.Namespace) -> int:
    pres = _load_presentation(cfg, args)
    table = growth(pres, args.rank, args.n_max, cfg.budget, subgroup=args.subgroup)
    for radius, count, flag in table.rows:
        print("radius %d: %d (%s)" % (radius, count, flag))
    text = table.to_csv() if cfg.fmt == "csv" else table.to_json()
    name = "growth-%s-rank%d.%s" % (args.subgroup, args.rank, cfg.fmt)
    _write_artifact(_out_path(cfg, args, name), text)
    return 0


def cmd_density(cfg: SessionConfig, args: argparse.Namespace) -> int:
    pres = _load_presentation(cfg, args)
    if args.n_min < 0 or args.n_max < args.n_min:
        raise InputError("need 0 <= --n-min <= --n-max")
    rows = [density_HG(pres, args.rank, n, cfg.budget, method=args.method)
            for n in range(args.n_min, args.n_max + 1)]
    for r in rows:
        print("n=%d: ball %d, H^G in [%d, %d], ratio [%s, %s], bound %d"
              % (r.n, r.ball, r.hg_lo, r.hg_hi, r.ratio_lo, r.ratio_hi,
                 r.sigma_bound))
    text_out = density_rows_to_csv(rows) if cfg.fmt == "csv" \
        else density_rows_to_json(rows)
    _write_artifact(_out_path(cfg, args, "density-rank%d.%s" % (args.rank, cfg.fmt)),
                    text_out)
    return 0


def cmd_lawprob(cfg: SessionConfig, args: argparse.Namespace) -> int:
    pres = _load_presentation(cfg, args)
    law = GroupLaw.parse(args.law)
    sampled = args.mode in ("ball", "walk")
    seed = _require_seed(cfg, "mode %s" % args.mode) if sampled else cfg.seed
    if sampled and args.trials < 1:
        raise InputError("mode %s needs --trials >= 1" % args.mode)
    n_lo = args.radius if args.radius_min is None else args.radius_min
    if n_lo < 0 or n_lo > args.radius:
        raise InputError("need 0 <= --radius-min <= --radius")
    nu = None
    if args.mode == "walk":
        nu = StepDistribution.lazy_uniform(
            [Word((l,)) for l in pres.alphabet.letters()])
    rows, diag = law_probability_sweep(
        pres, law, args.rank, args.mode, list(range(n_lo, args.radius + 1)),
        trials=args.trials, seed=seed, budget=cfg.budget, nu=nu)
    payload_rows = []
    for r in rows:
        ci_lo = r.wilson_lo if sampled else float(r.p_lo)
        ci_hi = r.wilson_hi if sampled else float(r.p_hi)
        payload_rows.append({
            "n": r.n, "trials": r.trials, "holds": r.holds, "fails": r.fails,
            "unknown": r.unknown, "ci_lo": ci_lo, "ci_hi": ci_hi,
            "p_lo": str(r.p_lo), "p_hi": str(r.p_hi), "exact": r.exact,
        })
        print("n=%d: holds %d/%d, unknown %d, ci [%.6f, %.6f]"
              % (r.n, r.holds, r.trials, r.unknown, ci_lo, ci_hi))
    payload = {"law": law.text or args.law, "mode": args.mode,
               "rank": args.rank, "rows": payload_rows, "diagnostics": diag}
    _write_artifact(_out_path(cfg, args, "lawprob.json"),
                    json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_rwalk(cfg: SessionConfig, args: argparse.Namespace) -> int:
    pres = _load_presentation(cfg, args)
    seed = _require_seed(cfg, "rwalk")
    if args.trials < 1 or args.steps < 0:
        raise InputError("need --trials >= 1 and --steps >= 0")
    est = quotient_return_probability(pres, args.rank, args.steps, args.trials,
                                      seed, budget=cfg.budget)
    print("steps %d: returned %d/%d, unknown %d, ci [%.6f, %.6f]"
          % (args.steps, est.holds, est.trials, est.unknown,
             est.wilson_lo, est.wilson_hi))
    payload = {"steps": args.steps, "trials": est.trials, "holds": est.holds,
               "fails": est.fails, "unknown": est.unknown,
               "p_lo": str(est.p_lo), "p_hi": str(est.p_hi),
               "ci_lo": est.wilson_lo, "ci_hi": est.wilson_hi}
    _write_artifact(_out_path(cfg, args, "rwalk.json"),
                    json.dumps(payload, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_diagram_check(cfg: SessionConfig, args: argparse.Namespace) -> int:
    pres = _load_presentation(cfg, args)
    paths: list[Path] = []
    for entry in args.diagrams:
        p = Path(entry)
        if p.is_dir():
            paths.extend(sorted(p.glob("*.json")))
        else:
            paths.append(p)
    if not paths:
        raise InputError("no diagram files given")
    expected = {}
    if args.expected:
        try:
            expected = json.loads(Path(args.expected).read_text())
        except OSError as exc:
            raise InputError("cannot read expected file: %s" % exc)
        except json.JSONDecodeError as exc:
            raise InputError("expected file is not valid JSON: %s" % exc)

    rows = []
    mismatches = []
    for p in paths:
        try:
            text = p.read_text()
        except OSError as exc:
            raise InputError("cannot read diagram %s: %s" % (p, exc))
        diag = Diagram.from_json(text)
        rep = validate_diagram(diag, pres)
        row = {"name": p.stem, "valid": rep.ok, "r": rep.r_delta,
               "euler": rep.euler_reported if rep.ok else None,
               "errors": list(rep.errors), "warnings": list(rep.warnings),
               "A1": None, "A2": None, "A3": None}
        if rep.ok:
            row.update(check_condition_A(diag, pres, rep, budget=cfg.budget).summary)
            print("%s: valid r=%d A1=%s A2=%s A3=%s"
                  % (p.stem, rep.r_delta, row["A1"], row["A2"], row["A3"]))
        else:
            print("%s: INVALID (%s)" % (p.stem, "; ".join(rep.errors)))
        rows.append(row)
        if p.stem in expected:
            exp = expected[p.stem]
            got_a = {key: row[key] for key in ("A1", "A2", "A3")}
            if bool(exp.get("ok")) != rep.ok or \
                    (rep.ok and exp.get("A") is not None and exp["A"] != got_a):
                mismatches.append(p.stem)

    if cfg.fmt == "json":
        text_out = json.dumps(rows, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["name", "valid", "r", "euler", "A1", "A2", "A3",
                         "errors", "warnings"])
        for row in rows:
            writer.writerow([row["name"], row["valid"], row["r"],
                             "" if row["euler"] is None else row["euler"],
                             row["A1"] or "", row["A2"] or "", row["A3"] or "",
                             "; ".join(row["errors"]), "; ".join(row["warnings"])])
        text_out = buf.getvalue()
    _write_artifact(_out_path(cfg, args, "diagram-report.%s" % cfg.fmt), text_out)

    if mismatches:
        raise InvariantViolation("diagram verdicts diverged from expectations: %s"
                                 % ", ".join(mismatches))
    if expected:
        print("checked %d diagram(s), all expected verdicts reproduced" % len(rows))
    else:
        print("checked %d diagram(s)" % len(rows))
    return 0


def cmd_structure(cfg: SessionConfig, args: argparse.Namespace) -> int:
    pres = _load_presentation(cfg, args)
    rep = pres.verify_structure(cfg.budget)
    payload = {
        "ok": rep.ok,
        "failures": [{"check": c, "rank": r, "detail": d}
                     for c, r, d in rep.failures],
        "approximate_ranks": list(rep.approximate_ranks),
    }
    _write_artifact(_out_path(cfg, args, "structure.json"),
                    json.dumps(payload, sort_keys=True, indent=2) + "\n")
    if rep.approximate_ranks:
        print("approximate ranks: %s" % list(rep.approximate_ranks))
    if not rep.ok:
        for c, r, d in rep.failures:
            print("FAIL %s rank %d: %s" % (c, r, d))
        raise InvariantViolation("structure audit failed %d check(s)"
                                 % len(rep.failures))
    print("structure ok through rank %d" % pres.max_rank)
    return 0


# parser -------------------------------------------------------------------

def _common_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    g = common.add_argument_group("session")
    g.add_argument("--config", help="JSON config file (default $%s)" % CONFIG_ENV)
    g.add_argument("--m", type=int, help="number of s-generators")
    g.add_argument("--seed", type=int, help="RNG seed; required for sampling")
    g.add_argument("--out-dir", help="artifact directory (default .)")
    g.add_argument("--format", choices=("csv", "json"), help="artifact format")
    g.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility; evaluation is sequential")
    p = common.add_argument_group("cancellation parameters")
    p.add_argument("--k", dest="param_k", type=int, help="relator exponent, odd")
    for name in ("alpha", "beta", "gamma", "epsilon", "zeta"):
        p.add_argument("--%s" % name, dest="param_%s" % name, metavar="Q",
                       help="exact rational, e.g. 1/100")
    p.add_argument("--h-const", dest="param_h", type=int, help="layering constant")
    p.add_argument("--allow-small-k", dest="param_allow_small_k",
                   action=argparse.BooleanOptionalAction, default=None,
                   help="waive the epsilon*k > 2 bound (recorded as a caveat)")
    b = common.add_argument_group("oracle budget")
    b.add_argument("--max-ball-radius", type=int, metavar="N")
    b.add_argument("--max-relator-applications", type=int, metavar="N")
    b.add_argument("--max-conjugator-length", type=int, metavar="N")
    b.add_argument("--time-cap", type=float, metavar="SECONDS",
                   help="wall-clock cap; trades determinism away")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_parser()
    root = argparse.ArgumentParser(
        prog="burnlab",
        description="graded presentations, budgeted word oracles, and the "
                    "report suites built on them")
    sub = root.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("build", parents=[common],
                        help="build a presentation and write it plus a per-rank report")
    sp.add_argument("--max-rank", type=int, required=True)
    sp.add_argument("--out", help="presentation file (default <out-dir>/presentation.json)")
    sp.add_argument("--report", help="report file (default <out-dir>/build-report.txt)")
    sp.set_defaults(func=cmd_build)

    sp = sub.add_parser("growth", parents=[common],
                        help="ball growth table for G or the {a,b} subgroup")
    sp.add_argument("--presentation", help="presentation file")
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--subgroup", choices=("G", "H"), default="G")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_growth)

    sp = sub.add_parser("density", parents=[common],
                        help="per-radius share of the ball conjugate into the {a,b} subgroup")
    sp.add_argument("--presentation")
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--n-min", type=int, default=0)
    sp.add_argument("--method", choices=("auto", "formula", "union"), default="auto")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_density)

    sp = sub.add_parser("lawprob", parents=[common],
                        help="probability that a law holds under ball or walk sampling")
    sp.add_argument("--presentation")
    sp.add_argument("--law", required=True, help='e.g. "x1^3" or "[x1,x2]"')
    sp.add_argument("--mode", choices=("exhaustive", "ball", "walk"), default="ball")
    sp.add_argument("--radius", type=int, required=True,
                    help="ball radius / walk length (largest n when sweeping)")
    sp.add_argument("--radius-min", type=int,
                    help="sweep n from here up to --radius (default: single n)")
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--trials", type=int, default=0)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_lawprob)

    sp = sub.add_parser("rwalk", parents=[common],
                        help="return probability of the s-walk on the quotient with a, b killed")
    sp.add_argument("--presentation")
    sp.add_argument("--rank", type=int, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_rwalk)

    sp = sub.add_parser("diagram-check", parents=[common],
                        help="validate diagram files and run the boundary checks")
    sp.add_argument("diagrams", nargs="+", help="diagram JSON files or directories")
    sp.add_argument("--presentation")
    sp.add_argument("--expected",
                    help='JSON {name: {"ok": bool, "A": {...}}}; mismatch exits 1')
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_diagram_check)

    sp = sub.add_parser("structure", parents=[common],
                        help="re-derive the admission invariants of a stored presentation")
    sp.add_argument("--presentation")
    sp.add_argument("--out")
    sp.set_defaults(func=cmd_structure)

    return root


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        return args.func(cfg, args)
    except InvariantViolation as exc:
        print("invariant violation: %s" % exc, file=sys.stderr)
        return 1
    except (InputError, StateError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
