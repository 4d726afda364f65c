"""burnlab: a desk-scale laboratory for graded power presentations.

Core pieces: free-group word algebra, graded presentations built from simple
periods, budgeted tri-state word/conjugacy oracles with replayable witnesses,
Cayley ball enumeration and growth/density reports, law-probability and
random-walk estimation, and van Kampen diagram checking.
"""

from .errors import BurnlabError, InputError, InvariantViolation, StateError
from .words import Alphabet, CyclicWord, Word, periodic_word

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "BurnlabError",
    "CyclicWord",
    "InputError",
    "InvariantViolation",
    "StateError",
    "Word",
    "periodic_word",
    "__version__",
]
