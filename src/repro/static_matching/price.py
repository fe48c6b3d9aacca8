"""The price/charging process of §3.1 (Lemmas 3.4 and 3.5).

Every matched edge is assigned price = |sample space|; unmatched edges get
price 0.  An oblivious user then deletes edges one at a time:

* deleting an unmatched edge pays 1 and (if its owning match is still
  present — an *early* delete) decrements the owner's price;
* deleting a matched edge pays the match's current price.

``Phi(d_t)`` is the price paid at step ``t``; ``Phi'(d_t)`` zeroes the late
deletes.  The paper proves:

* **Lemma 3.4** — for an early delete, ``E[Phi] <= 2`` (expectation over the
  matcher's random permutation, for any oblivious delete order);
* **Lemma 3.5** — when the graph is fully deleted, the early deletes on the
  sample space of each deleted match ``e`` contribute exactly ``|S_e|``
  price, so the total early price is exactly ``m`` — *deterministically*.

:class:`DeletionPriceProcess` replays a delete sequence against a
:class:`~repro.static_matching.result.MatchResult` and records both
quantities; experiment E6 averages ``Phi`` over many permutations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.hypergraph.edge import Edge, EdgeId
from repro.static_matching.result import MatchResult


@dataclass
class DeleteRecord:
    """Outcome of one user delete."""

    eid: EdgeId
    was_matched: bool
    early: bool
    phi: float  # price paid (Phi)

    @property
    def phi_prime(self) -> float:
        """Phi'(d_t): price paid if early, else 0."""
        return self.phi if self.early else 0.0


class DeletionPriceProcess:
    """Replay a delete sequence and account prices per §3.1.

    Parameters
    ----------
    result:
        A greedy matching augmented with sample spaces.

    Notes
    -----
    The user sequence must delete each edge at most once; deleting every
    edge exactly once makes :meth:`total_phi_prime` equal the number of
    input edges (Lemma 3.5).
    """

    def __init__(self, result: MatchResult) -> None:
        self._owner_map: Dict[EdgeId, EdgeId] = result.owner_map()
        self._price: Dict[EdgeId, float] = {
            m.edge.eid: float(len(m.samples)) for m in result.matches
        }
        self._matched_ids = {m.edge.eid for m in result.matches}
        self._deleted: set = set()
        self.records: List[DeleteRecord] = []

    def delete(self, eid: EdgeId) -> DeleteRecord:
        """Process the user delete of edge ``eid`` and return its record."""
        if eid not in self._owner_map:
            raise KeyError(f"edge {eid} was not part of the matched instance")
        if eid in self._deleted:
            raise ValueError(f"edge {eid} deleted twice")
        self._deleted.add(eid)

        owner = self._owner_map[eid]
        owner_alive = owner not in self._deleted or owner == eid
        early = owner_alive  # "p(d_t) not yet deleted (or d_t = p(d_t))"

        if eid in self._matched_ids:
            phi = self._price[eid]
            rec = DeleteRecord(eid=eid, was_matched=True, early=early, phi=phi)
        else:
            phi = 1.0
            if early:
                # Footnote 4: only decrement while the owner is present.
                self._price[owner] -= 1.0
            rec = DeleteRecord(eid=eid, was_matched=False, early=early, phi=phi)
        self.records.append(rec)
        return rec

    def delete_sequence(self, eids: Sequence[EdgeId]) -> List[DeleteRecord]:
        return [self.delete(eid) for eid in eids]

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #
    def total_phi(self) -> float:
        return sum(r.phi for r in self.records)

    def total_phi_prime(self) -> float:
        """Sum of Phi' — equals m after a full deletion (Lemma 3.5)."""
        return sum(r.phi_prime for r in self.records)

    def early_records(self) -> List[DeleteRecord]:
        return [r for r in self.records if r.early]

    def max_phi_early(self) -> float:
        early = self.early_records()
        return max((r.phi for r in early), default=0.0)

    def mean_phi_early(self) -> float:
        early = self.early_records()
        if not early:
            return 0.0
        return sum(r.phi for r in early) / len(early)
