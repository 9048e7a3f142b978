"""Vectorized boolean constraint propagation over CSR arrays.

Registry name ``"array"``.  Semantically this backend is the counter
engine — eager slacks, the same "coefficient > slack implies the
literal" rule, eagerly built clausal reasons — so it closes the exact
same implication fixpoint and keeps the proof-logging contract (every
implication is RUP-replayable from "coefficient > slack").  What changes
is *how* the bookkeeping runs: constraints live in one flat CSR store
(:class:`ArrayConstraintStore`) instead of per-object term tuples, and
the implication scan is *batch-adaptive*:

* small rounds (a handful of touched rows — the common case on sparse
  instances) take a sequential scalar path over Python lists, mirroring
  the counter loop with zero numpy kernel launches;
* large rounds (dense instances, ``reschedule_all``, big learned
  batches) switch to vector kernels: violated / implication-candidate
  detection is two boolean masks over the batch, and all candidate
  terms are gathered through one flat-CSR fancy index and compared
  against their row slacks in a single vectorized test — the
  per-element Python overhead that capped the pure-Python backends
  (ROADMAP Open item 1) is paid once per *batch*.

Slack bookkeeping itself stays scalar (Python-list reads/writes): each
assignment touches only the falsified literal's occurrence rows, a
batch too small for fancy indexing to amortize its kernel launch.  The
win over ``counter`` therefore grows with constraint density — exactly
where the counter loop struggles — while tiny instances pay only list
overhead, not numpy overhead.

The backend rides on :class:`~repro.engine.assignment.ArrayTrail` (the
kernels fancy-index ``trail.values_array``) but honors the full
:class:`~repro.engine.interface.PropagationEngine` contract, including
``reduce_learned`` purging queued references and ``backtrack`` restoring
slacks — the PR 3/4 lockstep differential harnesses run it node-for-node
against ``counter``.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..pb.constraints import Constraint
from .array_store import ArrayConstraintStore
from .assignment import ArrayTrail
from .interface import Conflict, PropagationEngine, register_engine

__all__ = ["ArrayPropagator"]


class ArrayPropagator(PropagationEngine):
    """Array-native engine: CSR store + batched numpy kernels."""

    name = "array"

    def __init__(self, num_variables: int, tracer=None):
        super().__init__(num_variables, tracer=tracer)
        # Replace the list-backed trail with the numpy-backed one before
        # anything observes it; the API is identical.
        self.trail = ArrayTrail(num_variables)
        self.database = ArrayConstraintStore(self.trail)
        #: Batches of constraint rows whose slack changed since the last
        #: propagate drain (python lists from assignments, numpy arrays
        #: from reschedule/remap; may overlap across batches).
        self._touched: List = []

    # ------------------------------------------------------------------
    # Constraint management
    # ------------------------------------------------------------------
    def add_constraint(
        self, constraint: Constraint, learned: bool = False
    ) -> Optional[Conflict]:
        """Attach a constraint mid-search.

        Returns a conflict immediately when the constraint is violated
        under the current trail; otherwise schedules it for implication
        scanning by the next :meth:`propagate`.
        """
        stored = self.database.add(constraint, learned=learned)
        if self.database.slack[stored.index] < 0:
            return Conflict(stored, self.explain_violation(stored))
        self._touched.append([stored.index])
        return None

    # ------------------------------------------------------------------
    # Eager slack maintenance on every assignment
    # ------------------------------------------------------------------
    def _on_assign(self, literal: int) -> None:
        # inlined occurrence lookup for the falsified literal -literal
        database = self.database
        index = (
            (literal << 1) | 1 if literal > 0 else ((-literal) << 1)
        )
        occ = database._occ[index]
        if occ is None:
            return
        rows = occ.rows
        slack = database.slack
        for row, coef in zip(rows, occ.coefs):
            slack[row] -= coef
        # the live list, not a snapshot: if a learned constraint grows it
        # before the drain, the extra row is scanned with fresh slack
        # (sound) and is queued under its own batch anyway
        self._touched.append(rows)

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    #: Candidate-row count below which the per-row Python scan beats the
    #: vector gather (a handful of numpy kernel launches cost more than
    #: walking a few short term tuples).
    _SMALL_BATCH = 16

    def _propagate_loop(self) -> Optional[Conflict]:
        touched = self._touched
        database = self.database
        values = self.trail.values_array
        # the scalar mirror: several times faster for one-at-a-time reads
        values_list = self.trail._value
        while touched:
            # batches are python lists (from assignments) or numpy
            # arrays (reschedule/remap); len() covers both
            total = sum(map(len, touched))
            if total <= self._SMALL_BATCH:
                # Small round: a handful of rows to look at — any numpy
                # kernel here costs more than the whole Python scan.
                # Duplicate rows across batches are rescanned, which is
                # harmless and cheaper than dedup.
                batch_list: List[int] = []
                for rows in touched:
                    if isinstance(rows, list):
                        batch_list.extend(rows)
                    else:
                        batch_list.extend(rows.tolist())
                touched.clear()
                conflict = self._scan_small(batch_list, values_list)
                if conflict is not None:
                    return conflict
                continue
            if len(touched) == 1:
                batch = np.asarray(touched[0], dtype=np.int64)
            else:
                batch = np.unique(
                    np.concatenate(
                        [np.asarray(rows, dtype=np.int64) for rows in touched]
                    )
                )
            touched.clear()
            slack = database.slack
            batch_slack = np.fromiter(
                (slack[row] for row in batch),
                dtype=np.int64,
                count=batch.shape[0],
            )
            violated = np.nonzero(batch_slack < 0)[0]
            if violated.shape[0]:
                stored = database.constraints[int(batch[violated[0]])]
                touched.clear()
                return Conflict(stored, self.explain_violation(stored))
            mask = batch_slack < database.max_coef[batch]
            if not mask.any():
                continue
            candidates = batch[mask]
            # Vector path: gather every candidate's terms into one flat
            # index set and run a single coefficient-vs-slack compare.
            # Slacks are snapshotted before any implication; a row whose
            # slack changes mid-round is re-touched by ``_on_assign`` and
            # rescanned next round, and because slacks only decrease
            # during propagation the stale test is conservative (it can
            # only miss implications that the rescan recovers, never
            # invent one).
            con_start = database.con_start
            starts = con_start[candidates]
            lens = con_start[candidates + 1] - starts
            stops = np.cumsum(lens)
            total = int(stops[-1])
            flat = (
                np.repeat(starts - (stops - lens), lens)
                + np.arange(total, dtype=np.int64)
            )
            coefs = database.term_coefs[flat]
            lits = database.term_lits[flat]
            implied = coefs > np.repeat(batch_slack[mask], lens)
            if not implied.any():
                continue
            implied &= values[np.abs(lits)] < 0
            if not implied.any():
                continue
            rows_rep = np.repeat(candidates, lens)
            for position in np.nonzero(implied)[0]:
                lit = int(lits[position])
                # an earlier implication in this very round may have
                # assigned the variable already
                if values[lit if lit > 0 else -lit] >= 0:
                    continue
                stored = database.constraints[int(rows_rep[position])]
                reason = self._build_reason(stored, lit, int(coefs[position]))
                self.num_propagations += 1
                self.imply(lit, reason, antecedent=stored.constraint)
        return None

    def _scan_small(self, rows, values) -> Optional[Conflict]:
        """Sequential implication scan for a few touched rows.

        Reads fresh slacks (an implication from an earlier row is seen
        by later rows immediately), exactly like the counter loop.
        """
        database = self.database
        slack = database.slack
        for row in rows:
            row_slack = slack[row]
            stored = database.constraints[row]
            if row_slack < 0:
                self._touched.clear()
                return Conflict(stored, self.explain_violation(stored))
            if stored.max_coef <= row_slack:
                continue
            constraint = stored.constraint
            for coef, lit in constraint.terms:
                # implying a term of this row never changes this row's
                # slack (a normalized constraint holds each variable
                # once), so row_slack stays valid across the loop
                if coef > row_slack and values[lit if lit > 0 else -lit] < 0:
                    reason = self._build_reason(stored, lit, coef)
                    self.num_propagations += 1
                    self.imply(lit, reason, antecedent=constraint)
        return None

    # ------------------------------------------------------------------
    # Backtracking
    # ------------------------------------------------------------------
    def backtrack(self, target_level: int) -> None:
        """Undo assignments above ``target_level`` and restore slacks."""
        database = self.database
        slack = database.slack
        antecedents = self._antecedent
        occ_table = database._occ
        for lit in self.trail.backtrack(target_level):
            index = (lit << 1) | 1 if lit > 0 else ((-lit) << 1)
            occ = occ_table[index]
            if occ is not None:
                for row, coef in zip(occ.rows, occ.coefs):
                    slack[row] += coef
            antecedents.pop(lit if lit > 0 else -lit, None)
        self._touched.clear()

    def reschedule_all(self) -> None:
        """Queue every constraint for an implication scan."""
        if self.database.num_constraints:
            self._touched.append(
                np.arange(self.database.num_constraints, dtype=np.int32)
            )

    # ------------------------------------------------------------------
    def reduce_learned(self, keep) -> int:
        """Forget learned constraints failing ``keep`` (clause deletion).

        Rebuilds the CSR arrays from the survivors and remaps any queued
        rows, so no deleted constraint is ever re-propagated.
        """
        removed, old_to_new = self.database.remove_learned(keep)
        if removed and self._touched:
            remapped: List[np.ndarray] = []
            for rows in self._touched:
                fresh = old_to_new[rows]
                fresh = fresh[fresh >= 0]
                if fresh.shape[0]:
                    remapped.append(fresh.astype(np.int32))
            self._touched = remapped
        return removed


register_engine(
    "array",
    ArrayPropagator,
    "CSR numpy arrays with batched slack/implication kernels",
)
