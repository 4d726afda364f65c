"""Per-layer tracing of burnlab from outside the package.

`Tracer.install()` replaces selected public functions and methods of the
burnlab modules with timing wrappers, in every module namespace that binds
them (the CLI imports `growth`, `density_HG`, ... by name).  Nothing under
`src/` is edited.

Each wrapped call adds to its own counters: calls, total time and self time,
where self time is the call's duration minus the time spent in wrapped
callees on the same thread.  Calls at or above the oracle query boundary also
record a span (id, parent, trace id, thread, name, start, end) held in memory
and written out by `write_spans`.  The hot word-algebra leaves and the
samplers get counters only, no spans.

Oracle queries additionally feed verdict counts, certificate kinds, budget
use, per-query latency and the repeat share; every `yes` verdict is kept so
its witness can be replayed through the independent verifiers afterwards.
"""

from __future__ import annotations

import inspect
import itertools
import json
import statistics
import sys
import threading
import weakref
from time import perf_counter

# (module, attribute path, metric label, record a span)
TARGETS = (
    ("words", "min_rotation", "words.min_rotation", False),
    ("words", "cyclic_reduce_letters", "words.cyclic_reduce_letters", False),
    ("words", "splice_reduce", "words.splice_reduce", False),
    ("oracle", "RankOracle.equal", "oracle.equal", True),
    ("oracle", "RankOracle.canonical", "oracle.canonical", True),
    ("oracle", "RankOracle.conjugate", "oracle.conjugate", True),
    ("oracle", "RankOracle.conjugate_into_ab", "oracle.conjugate_into_ab", True),
    ("presentation", "GradedPresentation.from_json", "presentation.from_json", True),
    ("presentation", "GradedPresentation.build_next_rank", "presentation.build_next_rank", True),
    ("presentation", "GradedPresentation.is_simple", "presentation.is_simple", True),
    ("presentation", "GradedPresentation.verify_structure", "presentation.verify_structure", True),
    ("cayley", "enumerate_ball", "cayley.enumerate_ball", True),
    ("cayley", "hg_union_elements", "cayley.hg_union_elements", True),
    ("cayley", "density_HG", "cayley.density_HG", True),
    ("cayley", "growth", "cayley.growth", True),
    ("probability", "law_probability", "probability.law_probability", True),
    ("probability", "sample_uniform_ball", "probability.sample_uniform_ball", True),
    ("probability", "quotient_return_probability",
     "probability.quotient_return_probability", True),
    ("probability", "random_walk_sample", "probability.random_walk_sample", False),
    ("probability", "StepDistribution.draw", "probability.StepDistribution.draw", False),
    ("probability", "GroupLaw.evaluate", "probability.GroupLaw.evaluate", False),
)

# the per-layer metrics the traced run reports, with units
LAYER_METRICS = (
    ("words.min_rotation.calls", "count"),
    ("words.min_rotation.self_s", "s"),
    ("words.cyclic_reduce_letters.calls", "count"),
    ("words.splice_reduce.calls", "count"),
    ("words.splice_reduce.self_s", "s"),
    ("oracle.equal.calls", "count"),
    ("oracle.equal.self_s", "s"),
    ("oracle.canonical.calls", "count"),
    ("oracle.canonical.self_s", "s"),
    ("oracle.conjugate.calls", "count"),
    ("oracle.conjugate.self_s", "s"),
    ("oracle.conjugate_into_ab.calls", "count"),
    ("oracle.conjugate_into_ab.self_s", "s"),
    ("oracle.states", "count"),
    ("oracle.applications", "count"),
    ("oracle.states_per_application", "ratio"),
    ("oracle.verdict.yes", "count"),
    ("oracle.verdict.no", "count"),
    ("oracle.verdict.unknown", "count"),
    ("oracle.no.rank-0", "count"),
    ("oracle.no.abelian-residue", "count"),
    ("oracle.no.exhaustion", "count"),
    ("oracle.canonical.incomplete", "count"),
    ("oracle.query_ms.p50", "ms"),
    ("oracle.query_ms.p99", "ms"),
    ("oracle.query_ms.samples", "count"),
    ("oracle.repeat_share", "ratio"),
    ("oracle.replay_failed", "count"),
    ("oracle.replay_sampled", "count"),
    ("cayley.enumerate_ball.calls", "count"),
    ("cayley.enumerate_ball.self_s", "s"),
    ("cayley.hg_union_elements.calls", "count"),
    ("cayley.hg_union_elements.self_s", "s"),
    ("cayley.density_HG.calls", "count"),
    ("cayley.density_HG.self_s", "s"),
    ("cayley.growth.calls", "count"),
    ("cayley.growth.self_s", "s"),
    ("cayley.ball.elements", "count"),
    ("presentation.build_next_rank.calls", "count"),
    ("presentation.build_next_rank.self_s", "s"),
    ("presentation.build_next_rank.total_s", "s"),
    ("presentation.is_simple.calls", "count"),
    ("presentation.is_simple.self_s", "s"),
    ("presentation.is_simple.total_s", "s"),
    ("presentation.verify_structure.calls", "count"),
    ("presentation.verify_structure.self_s", "s"),
    ("presentation.verify_structure.total_s", "s"),
    ("presentation.candidates.admitted", "count"),
    ("presentation.candidates.rejected", "count"),
    ("presentation.candidates.unknown", "count"),
    ("presentation.from_json.self_s", "s"),
    ("probability.law_probability.calls", "count"),
    ("probability.law_probability.self_s", "s"),
    ("probability.sample_uniform_ball.calls", "count"),
    ("probability.sample_uniform_ball.self_s", "s"),
    ("probability.random_walk_sample.calls", "count"),
    ("probability.random_walk_sample.self_s", "s"),
    ("probability.quotient_return_probability.calls", "count"),
    ("probability.quotient_return_probability.self_s", "s"),
    ("probability.StepDistribution.draw.calls", "count"),
    ("probability.StepDistribution.draw.self_s", "s"),
    ("probability.GroupLaw.evaluate.calls", "count"),
) + tuple(
    ("cli.%s.%s" % (command, part), "s")
    for command in ("build", "structure", "growth", "lawprob", "density", "rwalk")
    for part in ("total_s", "self_s")
)

# evenly spaced sample of yes verdicts replayed per traced pass
REPLAY_MAX = 2000

_VERIFIERS = {
    "equal": "verify_equality_witness",
    "conjugate": "verify_conjugacy_witness",
    "conjugate_into_ab": "verify_into_ab_witness",
}


class _ThreadState:
    __slots__ = ("stats", "stack", "spans")

    def __init__(self):
        self.stats: dict[str, list] = {}  # label -> [calls, total_s, self_s]
        self.stack: list[list] = []  # [time in wrapped callees, span id]
        self.spans: list[tuple] = []


class Tracer:
    """Wraps burnlab's layers; create one per traced process."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._span_ids = itertools.count(1)
        self._oracle_serials = itertools.count(1)
        self._trace_id = 0
        self._restore: list[tuple] = []
        self._oracle_ids: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        # oracle and build accounting, updated only under self._lock
        self.counts: dict[str, float] = {}
        self.latencies_ms: list[float] = []
        self.query_keys: set = set()
        self.queries = 0
        self.yes_events: list[tuple] = []
        self._originals: dict[str, object] = {}

    # thread-local call stack -----------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState()
            self._local.state = state
            with self._lock:
                self._states.append(state)
            return state

    def _wrap(self, label: str, fn, span: bool, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            if span:
                sid = next(tracer._span_ids)
                parent = stack[-1][1] if stack else None
            else:
                sid = stack[-1][1] if stack else None
            frame = [0.0, sid]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][0] += took
                rec = state.stats.get(label)
                if rec is None:
                    rec = state.stats[label] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += took
                rec[2] += took - frame[0]
                if span:
                    state.spans.append((sid, parent, tracer._trace_id,
                                        threading.get_ident(), label, start, end))
            if hook is not None:
                hook(args, kwargs, result, took)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def run_span(self, label: str, fn, *args):
        """Call fn(*args) inside one span (used around each CLI command)."""
        return self._wrap(label, fn, True, None)(*args)

    def start_trace(self) -> None:
        """Spans recorded from now on share a new trace id."""
        with self._lock:
            self._trace_id += 1

    # installation ------------------------------------------------------------

    def install(self) -> None:
        import burnlab.cayley
        import burnlab.cli
        import burnlab.oracle
        import burnlab.presentation
        import burnlab.probability
        import burnlab.words

        modules = [burnlab.words, burnlab.oracle, burnlab.presentation,
                   burnlab.cayley, burnlab.probability, burnlab.cli]
        hooks = {
            "oracle.equal": self._verdict_hook("equal"),
            "oracle.conjugate": self._verdict_hook("conjugate"),
            "oracle.conjugate_into_ab": self._verdict_hook("conjugate_into_ab"),
            "oracle.canonical": self._canonical_hook,
            "presentation.build_next_rank": self._build_hook,
            "cayley.enumerate_ball": self._ball_hook,
        }
        for modname, path, label, span in TARGETS:
            module = sys.modules["burnlab." + modname]
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                is_classmethod = isinstance(raw, classmethod)
                fn = raw.__func__ if is_classmethod else raw
                wrapped = self._wrap(label, fn, span, hooks.get(label))
                setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
                self._restore.append((owner, attr, raw))
                self._originals[label] = fn
            else:
                fn = getattr(module, attr)
                wrapped = self._wrap(label, fn, span, hooks.get(label))
                for mod in modules:
                    if mod.__dict__.get(attr) is fn:
                        setattr(mod, attr, wrapped)
                        self._restore.append((mod, attr, fn))
                self._originals[label] = fn

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    # hooks ---------------------------------------------------------------------

    def _query(self, op: str, args: tuple, took: float) -> None:
        """Latency and repeat key of one query; args[0] is the oracle."""
        serial = self._oracle_ids.get(args[0])
        if serial is None:
            serial = self._oracle_ids[args[0]] = next(self._oracle_serials)
        key = (serial, op) + tuple(_letters(a) for a in args[1:])
        self.queries += 1
        self.query_keys.add(key)
        self.latencies_ms.append(took * 1000.0)

    def _add(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def _verdict_hook(self, op: str):
        def hook(args, kwargs, verdict, took):
            with self._lock:
                self._query(op, args, took)
                self._add("oracle.verdict." + verdict.status)
                if verdict.is_no and verdict.certificate:
                    self._add("oracle.no." + verdict.certificate.get("kind", "other"))
                use = verdict.budget_used
                if use is not None:
                    self._add("oracle.states", use.states)
                    self._add("oracle.applications", use.applications)
                if verdict.is_yes:
                    self.yes_events.append((op, args, kwargs, verdict.witness))
        return hook

    def _canonical_hook(self, args, kwargs, result, took):
        with self._lock:
            self._query("canonical", args, took)
            if not result[1]:
                self._add("oracle.canonical.incomplete")

    def _build_hook(self, args, kwargs, report, took):
        with self._lock:
            for rec in report.records:
                self._add("presentation.candidates." + rec.outcome)

    def _ball_hook(self, args, kwargs, ball, took):
        with self._lock:
            self._add("cayley.ball.elements", ball.count)

    # results -------------------------------------------------------------------

    def replay(self) -> tuple[int, int]:
        """Replay an evenly spaced sample of the yes witnesses through the
        independent verifiers; returns (sampled, failed)."""
        import burnlab.oracle as oracle_mod

        events = self.yes_events
        if len(events) > REPLAY_MAX:
            events = [events[i * len(events) // REPLAY_MAX] for i in range(REPLAY_MAX)]
        failed = 0
        for op, args, kwargs, witness in events:
            method = self._originals["oracle." + op]
            bound = inspect.signature(method).bind(*args, **kwargs)
            oracle = bound.arguments["self"]
            verify = getattr(oracle_mod, _VERIFIERS[op])
            words = [_letters(bound.arguments[name])
                     for name in ("u", "v") if name in bound.arguments]
            try:
                ok = verify(oracle.system, *words, witness)
            except Exception:  # a witness that crashes the verifier fails replay
                ok = False
            if not ok:
                failed += 1
        return len(events), failed

    def layer_metrics(self) -> dict[str, float]:
        """Every LAYER_METRICS value except the replay counts."""
        out: dict[str, float] = {name: 0 for name, _ in LAYER_METRICS}
        with self._lock:
            merged: dict[str, list] = {}
            for state in self._states:
                for label, rec in state.stats.items():
                    acc = merged.setdefault(label, [0, 0.0, 0.0])
                    for i in range(3):
                        acc[i] += rec[i]
            counts = dict(self.counts)
            lat = sorted(self.latencies_ms)
            distinct = len(self.query_keys)
            queries = self.queries
        for label, (calls, total, self_s) in merged.items():
            for part, value in (("calls", calls), ("total_s", total), ("self_s", self_s)):
                name = "%s.%s" % (label, part)
                if name in out:
                    out[name] = value
        for name, value in counts.items():
            if name in out:
                out[name] = value
        apps = counts.get("oracle.applications", 0)
        out["oracle.states_per_application"] = counts.get("oracle.states", 0) / apps if apps else 0
        if lat:
            out["oracle.query_ms.p50"] = statistics.median(lat)
            out["oracle.query_ms.p99"] = lat[min(len(lat) - 1, int(0.99 * len(lat)))]
        out["oracle.query_ms.samples"] = len(lat)
        out["oracle.repeat_share"] = 1 - distinct / queries if queries else 0
        return out

    def write_spans(self, path) -> int:
        spans = sorted((s for state in self._states for s in state.spans),
                       key=lambda s: s[0])
        with open(path, "w") as fh:
            for sid, parent, trace, thread, label, start, end in spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "trace": trace,
                                     "thread": thread, "name": label,
                                     "start": start, "end": end}) + "\n")
        return len(spans)


def _letters(x) -> tuple:
    letters = getattr(x, "letters", x)
    return tuple(letters) if isinstance(letters, (tuple, list)) else letters
