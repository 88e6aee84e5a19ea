"""Domain errors shared across the package."""


class WminError(Exception):
    """Base class for all domain errors."""


class ParameterOutOfRange(WminError):
    """Algebra family parameters outside the admissible range."""


class IsotropicCoroot(WminError):
    """Coroot pairing requested against a root of zero norm."""


class CriticalLevel(WminError):
    """Level arithmetic at k = -h_vee, where everything degenerates."""


class CharacterizationMismatch(WminError):
    """Two characterizations disagree (the two extremality tests, or
    `enumerate_P_plus_k` and the P^+_k test); catalog data is inconsistent."""


class IndexOutOfSet(WminError):
    """Singular-weight function called with indices outside its index set."""


class PreconditionViolated(WminError):
    """An operation was called outside its stated hypotheses."""


class UnsupportedD21a(WminError):
    """Massless characters for D(2,1;a) with nonzero highest weight are open."""


class NonDominant(WminError):
    """A dominant integral weight was required."""


class WindowTooSmall(WminError):
    """Energy cutoff too small for the requested commutator window."""


class IndexOutOfRange(WminError):
    """Closed-form character parameters outside the admissible range."""


class TruncationIncomplete(WminError):
    """A walk or a list hit its hard cap (`ORBIT_CAP`, `P_PLUS_CAP`,
    `RANGE_CAP`); results would be unsound."""


class InexactScalar(WminError):
    """A scalar that is not an int or a `Fraction` (a float, say), given
    where the package reads an exact rational."""
