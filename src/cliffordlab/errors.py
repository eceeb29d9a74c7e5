"""Exception hierarchy for the workbench.

Every failure mode carries enough witness data to reproduce the violation
by hand; nothing is reported without a concrete counterexample.
"""

from __future__ import annotations


class WorkbenchError(Exception):
    """Base class for all workbench errors."""

    def __reduce__(self):
        # `args` holds the built message, not the constructor's arguments:
        # rebuild through __new__, which sets `args`, and restore the witnesses
        return type(self).__new__, (type(self), *self.args), self.__dict__


class IndexOutOfRange(WorkbenchError):
    """A Cayley table entry is not a valid element index."""


class NotAssociative(WorkbenchError):
    """Associativity fails; carries every witness triple (x, y, z)."""

    def __init__(self, witnesses):
        self.witnesses = list(witnesses)
        shown = ", ".join(str(w) for w in self.witnesses[:5])
        more = "" if len(self.witnesses) <= 5 else f" (+{len(self.witnesses) - 5} more)"
        super().__init__(f"associativity fails at {shown}{more}")


class NotClifford(WorkbenchError):
    """The semigroup is not Clifford."""


class NotSemilattice(WorkbenchError):
    """Expected a commutative idempotent semigroup."""


class NotGroup(WorkbenchError):
    """A declared group table is not a group; carries the offending key."""

    def __init__(self, key, reason=""):
        self.key = key
        super().__init__(f"not a group at {key!r}: {reason}")


class NotHomomorphism(WorkbenchError):
    """A bonding map is missing, malformed, or not a group homomorphism;
    carries the offending pair and, for a broken law, the witness (x, y)."""

    def __init__(self, pair, reason, witness=None):
        self.pair = pair
        self.witness = witness
        shown = "" if witness is None else f" (witness {witness})"
        super().__init__(f"bad bonding map {pair}: {reason}{shown}")


class FunctorLawViolated(WorkbenchError):
    """Bonding maps break identity or composition laws; carries the chain."""

    def __init__(self, chain, detail=""):
        self.chain = chain
        super().__init__(f"functor law violated on chain {chain}: {detail}")


class SearchBudgetExceeded(WorkbenchError):
    """An exhaustive search ran out of its node budget (never silent)."""


class TooLarge(WorkbenchError):
    """Input exceeds the size bound of an enumeration-based operation."""


class NotACover(WorkbenchError):
    """A proposed basis does not cover the carrier."""


class EOutOfU(WorkbenchError):
    """Basic-set construction requires the anchor idempotent to lie in U."""


class IsometryHypothesisViolated(WorkbenchError):
    """A bonding map is not an isometry; the isometric metric refuses to run."""

    def __init__(self, pair, witness):
        self.pair = pair
        self.witness = witness
        super().__init__(f"bonding {pair} not an isometry (witness {witness})")


class EvaluationOutsideDomain(WorkbenchError):
    """A chart model was evaluated outside its domain ball."""


class SchemaError(WorkbenchError):
    """A workbench document does not match its kind's schema."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


class InternalInconsistency(WorkbenchError):
    """Two provably-equivalent computations disagreed; implementation bug."""
