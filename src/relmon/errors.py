"""Exception types, structured law-violation records and the enumeration budget shared across the engine."""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Violation:
    """One broken law, with enough of a witness to locate it in the input tables.

    kind is a stable machine-readable tag ("non_associative", "breaks_identity", ...);
    witness is the offending tuple (morphism names, object names, table keys).
    """

    kind: str
    witness: tuple = ()
    detail: str = ""

    def __str__(self) -> str:
        w = ",".join(str(x) for x in self.witness)
        return f"{self.kind}({w})" + (f": {self.detail}" if self.detail else "")


class RelmonError(Exception):
    """Base class for all engine errors."""


class ValidationFailure(RelmonError):
    """Raised when a structure fails its laws; carries every located violation."""

    def __init__(self, subject: str, violations: list[Violation]):
        self.subject = subject
        self.violations = violations
        head = "; ".join(str(v) for v in violations[:4])
        more = "" if len(violations) <= 4 else f" (+{len(violations) - 4} more)"
        super().__init__(f"{subject}: {head}{more}")


class ParseFailure(RelmonError):
    """Malformed input document; location names the offending key or field."""

    def __init__(self, location: str, detail: str):
        self.location = location
        self.detail = detail
        super().__init__(f"parse error at {location}: {detail}")


class EndpointMismatch(RelmonError):
    """Functor/distributor endpoints do not compose as required."""


class ChainMismatch(EndpointMismatch):
    """Consecutive distributors in a graded chain fail to share endpoints."""


class NotParallel(RelmonError):
    """Natural transformation requested between non-parallel functors."""


class DownstairsMissing(RelmonError):
    """Creation check requested but the downstairs (co)limit does not exist."""


class MonadMismatch(RelmonError):
    """Adjunction does not induce the relative monad it was paired with."""


class RootMismatch(RelmonError):
    """Monad roots are not related as the construction requires."""


class PremiseFail(RelmonError):
    """A theorem premise (e.g. monadicity of the outer functor) fails."""


class TheoremViolation(RelmonError):
    """A paper theorem failed on validated inputs: engine bug, never expected."""


class Inapplicable(RelmonError):
    """Hypotheses (e.g. density of the root) do not hold; check skipped."""


class BudgetExceeded(RelmonError):
    """Enumeration would exceed the configured candidate budget."""

    def __init__(self, what: str, needed: int, budget: int):
        self.what = what
        self.needed = needed
        self.budget = budget
        super().__init__(f"{what}: needs ~{needed} candidates, budget {budget}")


DEFAULT_BUDGET = 500_000


def budget_limit() -> int:
    """The enumeration budget: RELMON_BUDGET when it is an integer (at least 1), else DEFAULT_BUDGET."""
    try:
        return max(int(os.environ["RELMON_BUDGET"]), 1)
    except (KeyError, ValueError):
        return DEFAULT_BUDGET


class NotAMonoid(RelmonError):
    """Multiplication table is not a monoid; carries a witness triple."""

    def __init__(self, witness: tuple):
        self.witness = witness
        super().__init__(f"not a monoid, witness {witness}")
