"""Exception types shared across the package.

Every error raised on invalid input derives from TubelatError, so the CLI can
map any of them to exit code 2.
"""


class TubelatError(ValueError):
    """Base class for all input/contract violations."""


class InvalidVertex(TubelatError):
    pass


class NotATube(TubelatError):
    pass


class InvalidTubing(TubelatError):
    pass


class InvalidForest(TubelatError):
    pass


class TubeNotInTubing(TubelatError):
    pass


class MaximalTubeNotFlippable(TubelatError):
    pass


class NotAnIdeal(TubelatError):
    pass


class ElementNotFound(TubelatError):
    pass


class NotComparable(TubelatError):
    pass


class NotALattice(TubelatError):
    pass


class NotACover(TubelatError):
    pass


class SizeMismatch(TubelatError):
    pass


class NotFilled(TubelatError):
    pass


class NotAdmissibleAtDegree(TubelatError):
    pass


class NotRestrictionCompatible(TubelatError):
    pass


class NotASubgraph(TubelatError):
    pass
