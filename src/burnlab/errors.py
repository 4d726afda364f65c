"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: InputError and StateError exit 2,
InvariantViolation exits 1.  Any other exception, a bare BurnlabError
included, is an internal error: it exits 3 with one line naming its type.
"""


class BurnlabError(Exception):
    pass


class InputError(BurnlabError):
    """Malformed user input: bad word syntax, bad config, bad arguments."""


class StateError(BurnlabError):
    """Operation requested against state that does not exist yet,
    e.g. querying a rank the presentation has not been built through."""


class InvariantViolation(BurnlabError):
    """A structural invariant that should hold was found violated."""
