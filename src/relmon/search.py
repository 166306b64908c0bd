"""Backtracking search over slots with ordered domains.

A Search lists slots, each with an ordered domain of values, and checks,
each registered at the highest slot it reads.  The walk assigns the slots
depth-first in index order and runs a slot's checks as soon as that slot is
assigned, so every check runs once every slot it reads is bound and a failed
check cuts the whole branch below it (incremental consistency checking,
Mackworth 1977, "Consistency in networks of relations").  The survivors are
exactly the assignments of itertools.product(*domains) that pass every
check, in product order, found one at a time as they are asked for.

It lists the relative monads (monad.py), their algebras (algebra.py),
functors with optional per-image filters (fincat.enumerate_functors),
natural transformations, natural, nerve and cone families and cocones
(colim.py), and graded cells and distributors (prof.py).

A law that reads a slot chosen by another slot's value, say ext[(a, a,
unit[a])], is registered once per possible value u of unit[a] as a guarded
check, "unit[a] != u or ...", at the latest slot it involves.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

# check(values) -> bool; values[i] is bound for every slot i the check reads
Check = Callable[[list], bool]


class Search:
    def __init__(self):
        self.domains: list[tuple] = []
        self.checks: list[list[Check]] = []

    def slot(self, domain: Sequence) -> int:
        """Add a slot with the given ordered domain; returns its index."""
        self.domains.append(tuple(domain))
        self.checks.append([])
        return len(self.domains) - 1

    def require(self, check: Check, *slots: int) -> None:
        """Run check at the highest of the slots it reads (all of them listed)."""
        self.checks[max(slots)].append(check)

    def solutions(self) -> Iterator[tuple]:
        """Every assignment that passes all checks, as tuples in product order,
        each found only when asked for."""

        domains, checks = self.domains, self.checks
        n = len(domains)
        if n == 0:
            yield ()
            return
        values: list = [None] * n
        pending = [iter(())] * n        # the untried values of each bound slot
        pending[0] = iter(domains[0])
        i = 0
        while i >= 0:
            for v in pending[i]:
                values[i] = v
                for check in checks[i]:
                    if not check(values):
                        break
                else:
                    break               # v passes: go deeper
            else:
                i -= 1                  # slot i exhausted: backtrack
                continue
            if i == n - 1:
                yield tuple(values)
            else:
                i += 1
                pending[i] = iter(domains[i])
