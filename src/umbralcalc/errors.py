"""Exception taxonomy for the engine.

Every guard in the package raises one of these; nothing raises a bare
ValueError for a contract violation, so callers (and the CLI) can map
failures to stable diagnostic names.
"""


class UmbralError(Exception):
    """Base class for all engine errors."""


class UndefinedIndexError(UmbralError):
    """A generalized integer was requested beyond the validated bound."""


class DegenerateFamilyError(UmbralError):
    """A coefficient family has a zero generalized integer in range."""


class IndexOrderError(UmbralError):
    """Binomial-style indices out of order (k < 0 or k > n)."""


class BadModulusError(UmbralError):
    """Sector decomposition requested with modulus < 2."""


class DegreeOverflowError(UmbralError):
    """An operation would exceed the working degree bound."""


class BadParameterError(UmbralError):
    """A family or operator parameter is outside its admissible range."""


class NotDegreeLoweringError(UmbralError):
    """An operator expected to lower degree by exactly one does not."""


class BasisMismatchError(UmbralError):
    """A polynomial table is not a basic sequence for the given operator."""


class SingularOperatorError(UmbralError):
    """A triangular solve hit a zero pivot."""


class NotDeltaError(UmbralError):
    """A series needed constant term 0 and nonzero linear term."""


class NotInvertibleError(UmbralError):
    """A series needed a nonzero constant term."""


class WrongFamilyError(UmbralError):
    """An operation is only defined for a specific coefficient family."""


def naming(exc: UmbralError, where: str, keys) -> UmbralError:
    """`exc` retyped, its message naming `where` and the key, or keys, it refused."""
    keys = keys if isinstance(keys, tuple) else (keys,)
    named = " and ".join([repr(key) for key in keys])
    return type(exc)(f"{where} key{'s' if len(keys) > 1 else ''} {named}: {exc}")
