"""Immutable value classes whose methods are written once, not generated.

`Record` stands in for ``@dataclass(frozen=True)``: importing the dataclass
module (with inspect, ast, dis and tokenize) and running the code it
generates for each class took about two thirds of ``import burnlab.cli``.
Every value class of the package is a `Record` but two, which use `Frozen`
alone: `words.Word`, whose slot and ``_raw`` constructor sit in every hot
loop of the word algebra, and `cayley.QuadExt`, which compares equal to
plain rationals across types.
"""


class Frozen:
    """Immutability for `Record` and for the slotted classes `Word` and
    `QuadExt`, which set their slots in ``__init__`` through
    ``object.__setattr__``; after that nothing sets or deletes them."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __setstate__(self, state):
        """Restore a copy or an unpickled object: the default state is the
        instance dict, or a pair (dict or None, slot values)."""
        for part in state if isinstance(state, tuple) else (state,):
            for name, value in (part or {}).items():
                object.__setattr__(self, name, value)


class Record(Frozen):
    """A frozen dataclass without the code generation.  The annotated names
    are the fields, class attributes their defaults; fields named in the
    class keyword ``uncompared`` stay out of ``==`` and ``hash``.
    ``__post_init__`` validates and normalises, setting fields and derived
    attributes (which are not fields) through ``self.__dict__``."""

    __slots__ = ()
    _fields: tuple = ()

    def __init_subclass__(cls, uncompared=(), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields += tuple(n for n in cls.__annotations__ if n not in cls._fields)
        cls._compared = tuple(n for n in cls._fields if n not in uncompared)
        cls._defaults = {n: getattr(cls, n) for n in cls._fields if hasattr(cls, n)}

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        name, fields = cls.__name__, cls._fields
        if len(args) > len(fields):
            raise TypeError("%s() takes %d arguments but %d were given"
                            % (name, len(fields), len(args)))
        values = {**cls._defaults, **dict(zip(fields, args))}
        for key in kwargs:
            if key not in fields or key in fields[:len(args)]:
                raise TypeError("%s() got an unexpected or repeated argument %r" % (name, key))
        values.update(kwargs)
        missing = [n for n in fields if n not in values]
        if missing:
            raise TypeError("%s() missing arguments: %s" % (name, ", ".join(missing)))
        return [values[n] for n in fields]

    def __post_init__(self):
        pass

    def _key(self) -> tuple:
        d = self.__dict__
        return tuple([d[n] for n in self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (n, getattr(self, n)) for n in self._fields))

    def _asdict(self) -> dict:
        """Field name -> value, with values that are records as dicts too."""
        d = self.__dict__
        return {n: d[n]._asdict() if isinstance(d[n], Record) else d[n] for n in self._fields}
