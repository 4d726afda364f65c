"""Value semantics of `Record`, the base of the package's value classes, and
of the `Frozen` mixin that `Record`, `Word` and `QuadExt` share: the
behaviour the frozen dataclasses and hand-written classes they replace had,
pinned to the strings they printed."""

import copy
import importlib
import inspect
import json
import pickle
import pkgutil
from fractions import Fraction

import pytest

import burnlab
from burnlab.cayley import QuadExt
from burnlab.diagrams import Diagram, Edge, Face
from burnlab.errors import InputError
from burnlab.oracle import BudgetUse, OracleBudget, Relator, Verdict
from burnlab.presentation import CandidateRecord, SimplicityVerdict, SmallCancellationParams
from burnlab.probability import GroupLaw, StepDistribution
from burnlab.records import Frozen, Record
from burnlab.words import Alphabet, CyclicWord, Word

NO_RANK0 = Verdict("no", certificate={"kind": "rank-0", "op": "equal"},
                   budget_used=BudgetUse(1, 0, 1, True))


class TestRecord:
    def test_repr_is_the_dataclass_format(self):
        assert (repr(BudgetUse(states=2, applications=2, cap=5, complete=False))
                == "BudgetUse(states=2, applications=2, cap=5, complete=False)")
        assert repr(NO_RANK0) == (
            "Verdict(status='no', witness=None, certificate={'kind': 'rank-0', 'op': 'equal'}, "
            "budget_used=BudgetUse(states=1, applications=0, cap=1, complete=True))")
        assert (repr(OracleBudget())
                == "OracleBudget(max_ball_radius=4, max_relator_applications=50000)")

    def test_fields_and_defaults(self):
        assert OracleBudget._fields == ("max_ball_radius", "max_relator_applications")
        assert Verdict._fields == ("status", "witness", "certificate", "budget_used")
        assert Verdict("yes") == Verdict("yes", None, None, None)
        assert OracleBudget(max_relator_applications=7) == OracleBudget(4, 7)

    def test_equality_and_hash(self):
        assert BudgetUse(1, 0, 1, True) == BudgetUse(1, 0, 1, True)
        assert hash(BudgetUse(1, 0, 1, True)) == hash((1, 0, 1, True))
        assert BudgetUse(1, 0, 1, True) != BudgetUse(1, 0, 2, True)
        # same field values, other class: never equal, as with dataclasses
        assert SimplicityVerdict("x", "y", None) != CandidateRecord("x", "y", None)
        assert BudgetUse(1, 0, 1, True) != (1, 0, 1, True)
        assert len({OracleBudget(), OracleBudget(4, 50_000), OracleBudget(3)}) == 2

    def test_caveats_are_not_compared(self):
        # k = 2001 passes the epsilon * k bound, so the gate keeps the caveats given
        plain = SmallCancellationParams(k=2001)
        noted = SmallCancellationParams(k=2001, caveats=("noted",))
        assert noted.caveats == ("noted",) and plain.caveats == ()
        assert plain == noted and hash(plain) == hash(noted)
        assert plain != SmallCancellationParams(k=2003)
        assert "caveats=('noted',)" in repr(noted)

    @pytest.mark.parametrize("make, message", [
        (lambda: BudgetUse(1, 0, 1), "missing arguments: complete"),
        (lambda: BudgetUse(states=1), "missing arguments: applications, cap, complete"),
        (lambda: BudgetUse(1, 0, 1, True, 5), "takes 4 arguments but 5 were given"),
        (lambda: OracleBudget(max_radius=3), "unexpected or repeated argument 'max_radius'"),
        (lambda: Relator("r", (1,), id="s"), "unexpected or repeated argument 'id'"),
    ])
    def test_bad_arguments_are_type_errors(self, make, message):
        with pytest.raises(TypeError, match=message):
            make()

    def test_fields_cannot_be_set_or_deleted(self):
        with pytest.raises(AttributeError, match="Verdict is immutable"):
            NO_RANK0.status = "yes"
        with pytest.raises(AttributeError, match="OracleBudget is immutable"):
            del OracleBudget().max_ball_radius
        with pytest.raises(AttributeError):
            NO_RANK0.extra = 1
        assert NO_RANK0.status == "no"

    @pytest.mark.parametrize("make", [
        lambda: Relator("r", ()),
        lambda: Relator("r", (1, 3, -1)),
        lambda: OracleBudget(max_ball_radius=-1),
        lambda: OracleBudget(max_relator_applications=0),
    ])
    def test_post_init_still_validates(self, make):
        with pytest.raises(InputError):
            make()

    def test_verdict_json_nests_the_budget(self):
        text = NO_RANK0.to_json()
        assert text == (
            '{"budget_used": {"applications": 0, "cap": 1, "complete": true, "states": 1}, '
            '"certificate": {"kind": "rank-0", "op": "equal"}, "status": "no", "witness": null}')
        assert json.loads(text)["budget_used"] == {
            "states": 1, "applications": 0, "cap": 1, "complete": True}
        assert NO_RANK0._asdict()["budget_used"] == NO_RANK0.budget_used._asdict()


FROZEN = [
    ("Word", lambda: Word((1, 2)), "letters"),
    ("CyclicWord", lambda: CyclicWord((1, 2)), "rep"),
    ("Alphabet", lambda: Alphabet(1), "m"),
    ("GroupLaw", lambda: GroupLaw((1, 1, 1)), "letters"),
    ("StepDistribution", lambda: StepDistribution([(Word((3,)), Fraction(1))]), "support"),
    ("QuadExt", lambda: QuadExt(1, 1, 2), "x"),
    ("Diagram", lambda: Diagram("circular", ("v0",), (), (), ()), "vertices"),
]


class TestFrozen:
    @pytest.mark.parametrize("name, make, attr", FROZEN, ids=[f[0] for f in FROZEN])
    def test_assignment_and_deletion_raise(self, name, make, attr):
        obj = make()
        before = getattr(obj, attr)
        with pytest.raises(AttributeError, match="^%s is immutable$" % name):
            setattr(obj, attr, before)
        with pytest.raises(AttributeError, match="^%s is immutable$" % name):
            delattr(obj, attr)
        with pytest.raises(AttributeError, match="^%s is immutable$" % name):
            obj.other = 1
        assert getattr(obj, attr) is before
        hash(obj)


def _loop(edge_ids=("e0", "e1")):
    """A one-vertex circular diagram: one cell on the loop labelled a."""
    e0, e1 = edge_ids
    return Diagram("circular", ("v0",),
                   [Edge(e1, "v0", "v0", -1, e0), Edge(e0, "v0", "v0", 1, e1)],
                   [Face("f1", (e1,), "outer"), Face("f0", (e0,), "cell", 1)], [(e1,)])


def _step():
    return StepDistribution([(Word((3,)), Fraction(1, 2)), (Word(()), Fraction(1, 4)),
                             (Word((-1, 2)), Fraction(1, 4))])


COPYABLE = [
    ("Word", lambda: Word((1, 2)), "letters"),
    ("CyclicWord", lambda: CyclicWord((1, 2)), "rep"),
    ("Alphabet", lambda: Alphabet(1), "m"),
    ("GroupLaw", lambda: GroupLaw.parse("[x1, x2]^2"), "letters"),
    ("StepDistribution", _step, "support"),
    ("QuadExt", lambda: QuadExt(1, 1, 2), "x"),
    ("BudgetUse", lambda: BudgetUse(2, 2, 5, False), "states"),
    ("Diagram", _loop, "edges"),
]


@pytest.mark.parametrize("duplicate", [
    copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj)),
], ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("name, make, attr", COPYABLE, ids=[c[0] for c in COPYABLE])
def test_copies_are_equal_and_stay_frozen(name, make, attr, duplicate):
    obj = make()
    again = duplicate(obj)
    assert type(again) is type(obj) and again == obj and hash(again) == hash(obj)
    with pytest.raises(AttributeError, match="^%s is immutable$" % name):
        setattr(again, attr, getattr(obj, attr))
    with pytest.raises(AttributeError, match="^%s is immutable$" % name):
        delattr(again, attr)
    assert getattr(again, attr) == getattr(obj, attr)
    assert repr(again) == repr(obj)


@pytest.mark.parametrize("duplicate", [
    copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj)),
], ids=["copy", "deepcopy", "pickle"])
def test_copies_keep_the_derived_attributes(duplicate):
    step, loop = _step(), _loop()
    derived = lambda nu: (nu.thresholds, nu._draws, nu.probe_depth, nu.maybe_degenerate)
    assert derived(duplicate(step)) == derived(step)
    again = duplicate(loop)
    assert again._by_id == loop._by_id and again.edge("e0") == loop.edge("e0")


def _package_classes():
    """Every class defined in a module of the package, each module imported."""
    for info in pkgutil.iter_modules(burnlab.__path__):
        module = importlib.import_module("burnlab." + info.name)
        yield from (c for _, c in inspect.getmembers(module, inspect.isclass)
                    if c.__module__ == module.__name__)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class TestOneValueIdiom:
    def test_only_word_and_quadext_are_frozen_without_record(self):
        list(_package_classes())  # imports every module of the package
        assert {c.__name__ for c in _subclasses(Frozen) if c.__module__.startswith("burnlab.")
                and not issubclass(c, Record)} == {"Word", "QuadExt"}

    def test_only_record_word_and_quadext_write_eq_and_hash(self):
        writers = {c.__name__ for c in _package_classes()
                   if "__eq__" in vars(c) or "__hash__" in vars(c)}
        assert writers == {"Record", "Word", "QuadExt"}

    def test_reprs_are_unchanged(self):
        assert repr(Alphabet(2)) == "Alphabet(m=2)"
        assert repr(CyclicWord((3, 1, -3, 2, 1))) == "CyclicWord('a.s1.a.S1.b')"
        assert repr(GroupLaw.parse("[x1, x2]^2")) == "GroupLaw('[x1, x2]^2')"
        assert repr(GroupLaw((1, 1, 1))) == "GroupLaw('x1 x1 x1')"
        assert repr(_step()) == "StepDistribution(Word(''):1/4, Word('s1'):1/2, Word('Ab'):1/4)"
        assert repr(_loop()) == "Diagram(circular, V=1, E=1, cells=1)"

    def test_equality_is_by_value(self):
        assert CyclicWord((3, 1, -3)) == CyclicWord([1]) != CyclicWord((2,))
        assert hash(CyclicWord((3, 1, -3))) == hash(CyclicWord((1,)))
        assert Alphabet(m=2) == Alphabet(2) != Alphabet(1)
        assert hash(Alphabet(2)) == hash(Alphabet(m=2))
        # GroupLaw and StepDistribution: tests/test_probability.py
        loop = _loop()
        # the edges and faces are stored sorted, so their input order is lost
        shuffled = Diagram(loop.topology, loop.vertices, loop.edges[::-1], loop.faces[::-1],
                           loop.contours)
        assert shuffled == loop and hash(shuffled) == hash(loop)
        assert loop != _loop(("e0", "e2"))
