"""Exception hierarchy for the slinv package.

Parse-level problems derive from InputError; violated mathematical
preconditions derive from PreconditionError.  The CLI maps InputError to
exit code 1 and PreconditionError to exit code 2.
"""

from __future__ import annotations


class SlinvError(Exception):
    """Base class for all slinv errors."""


class InputError(SlinvError):
    """Malformed input data (file syntax, bad permutations, bad slots)."""


class PreconditionError(SlinvError):
    """Structurally valid input that violates an operation's hypotheses."""


# -- combinatorial maps -------------------------------------------------

class NotInvolution(InputError):
    """Edge pairing is not a fixed-point-free involution."""


class Disconnected(InputError):
    """The half-edge set is not a single orbit of the rotation/pairing group."""


class DanglingHalfEdge(InputError):
    """A half-edge appears in a rotation without a pairing, or vice versa."""


class NonIntegerGenus(SlinvError):
    """V - E + F is odd: the face computation is corrupted."""


class NegativeGenus(SlinvError):
    """V - E + F exceeds 2 on a connected map: the face computation is
    corrupted."""


class HomologyRankMismatch(SlinvError):
    """The cycle space or face-boundary space of a map has the wrong rank:
    the rational homology computation is corrupted."""


class ContextMismatch(PreconditionError):
    """A homology context was built for a different map."""


class NotALoop(PreconditionError):
    """Edge class requested for an edge whose endpoints differ."""


class EndpointsDiffer(PreconditionError):
    """cycle_of_pair requires two non-loop edges with the same endpoints."""


# -- polynomials --------------------------------------------------------

class NonMonomialDenominator(SlinvError):
    """Substitution target has a denominator that is not a monomial."""


class ZeroPolynomial(SlinvError):
    """Span of the zero polynomial is undefined."""


# -- diagrams -----------------------------------------------------------

class BadSlot(InputError):
    """A crossing slot is missing, duplicated, or out of range."""


class InconsistentOrientation(InputError):
    """Arc directions do not give each strand one inflow and one outflow."""


class NotFourValent(InputError):
    """A crossing does not have exactly four slots; parse_diagram reports a
    missing slot as an arc-count or a duplicate-slot error instead."""


class NotCheckerboardColorable(PreconditionError):
    """Face adjacency graph of the diagram is not bipartite."""


class CrossingCapExceeded(PreconditionError):
    """State enumeration refused: 2^c would exceed the configured cap."""


# -- invariants ---------------------------------------------------------

class EdgeCapExceeded(PreconditionError):
    """Subgraph enumeration refused: 2^E would exceed the configured cap."""


class NotTrivialLoop(PreconditionError):
    """loop_deletion_check requires a homologically trivial loop."""


class HypothesisViolated(PreconditionError):
    """A theorem verifier's hypotheses do not hold for this input."""


class NotAlternating(PreconditionError):
    """Operation requires an alternating diagram."""


class NotReduced(PreconditionError):
    """Operation requires a reduced (nugatory-free) diagram."""


class GenusZero(PreconditionError):
    """Volume bounds are stated for surfaces of genus >= 1 only."""
