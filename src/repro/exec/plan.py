"""Physical plans: set-at-a-time pipelines over whole relations.

A :class:`PhysicalPlan` is a straight-line pipeline compiled from one
conjunctive query (see :mod:`repro.exec.compile`):

``seed row () → HashJoinStep* → projection/dedup``

Each :class:`HashJoinStep` extends every in-flight row with the matching
tuples of one relation, probing the relation's incrementally-maintained hash
index (:meth:`repro.engine.relation.Relation.index_on`) on the step's key
positions.  Constants and already-bound join variables both contribute to the
index key, so the first step degenerates to an (indexed) scan and later steps
are hash joins whose *build side is the relation index itself* — built once,
maintained across deltas, and shared by every plan (and every disjunct of a
union rewriting) that joins on the same positions.

Relations store their data columnar (per-position arrays addressed by slot;
see :mod:`repro.engine.relation`), and index buckets map row tuples to slots.
Probe and scan therefore read **column slices**: a step fetches only the
columns carrying its newly-bound variables (plus any within-atom equality
columns) and extends rows via slot lookups into those arrays — matched rows
are never materialized as whole tuples on the probe path.

Rows are plain tuples; the compiler assigns every query variable a fixed slot
(column) at compile time, so the per-row work in the inner loop is tuple
indexing and concatenation — no per-binding dictionaries, no term matching,
no recursion.  Comparison subgoals are compiled to closures and applied at
the earliest step where both sides are bound.

Plans mirror the interpreter's observable semantics exactly: same answer
sets, same :class:`~repro.engine.evaluate.EvaluationStatistics` counters
(probes = candidate tuples fetched, extensions = rows surviving a step,
answers = satisfying assignments before deduplication), and the same
:class:`~repro.errors.EvaluationError` behaviors (arity mismatches always
raise; an unbound head variable raises only when at least one assignment
reaches projection).
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import EvaluationError
from repro.datalog.atoms import ComparisonOperator
from repro.engine.database import Database
from repro.engine.evaluate import EvaluationStatistics
from repro.engine.relation import SkolemValue

#: A value source in a compiled row: ``(True, slot_index)`` reads the current
#: row, ``(False, constant_value)`` is a literal.
Source = Tuple[bool, Any]

Row = Tuple[Any, ...]
RowFilter = Callable[[Row], bool]

_ORDER_OPS = frozenset(("<", "<=", ">", ">="))


def compare_values(op: ComparisonOperator, left: Any, right: Any) -> bool:
    """Comparison semantics shared with the interpreter.

    Skolem values (unknown witnesses) are only comparable by (dis)equality;
    an order comparison involving one is never satisfied.
    """
    if isinstance(left, SkolemValue) or isinstance(right, SkolemValue):
        if op.value in _ORDER_OPS:
            return False
    return op.evaluate(left, right)


def make_comparison_filter(
    op: ComparisonOperator, left: Source, right: Source
) -> RowFilter:
    """Compile one comparison subgoal into a row predicate."""
    left_is_slot, left_value = left
    right_is_slot, right_value = right
    if left_is_slot and right_is_slot:
        return lambda row: compare_values(op, row[left_value], row[right_value])
    if left_is_slot:
        return lambda row: compare_values(op, row[left_value], right_value)
    if right_is_slot:
        return lambda row: compare_values(op, left_value, row[right_value])
    verdict = compare_values(op, left_value, right_value)
    return lambda row: verdict


class HashJoinStep:
    """Extend every in-flight row with the matching tuples of one relation.

    The step probes ``relation.index_on(key_positions)`` with a key assembled
    from constants and bound row slots (``key_sources``, aligned with
    ``key_positions``).  With no key positions the step is a scan (first
    step) or a cartesian product (disconnected subgoal).  ``eq_pairs`` are
    within-atom equality checks between positions carrying the same new
    variable; ``new_positions`` are appended to the row, one per newly-bound
    variable in first-occurrence order.
    """

    __slots__ = (
        "predicate",
        "arity",
        "key_positions",
        "key_sources",
        "eq_pairs",
        "new_positions",
        "filters",
    )

    def __init__(
        self,
        predicate: str,
        arity: int,
        key_positions: Tuple[int, ...],
        key_sources: Tuple[Source, ...],
        eq_pairs: Tuple[Tuple[int, int], ...],
        new_positions: Tuple[int, ...],
        filters: Tuple[RowFilter, ...],
    ):
        self.predicate = predicate
        self.arity = arity
        self.key_positions = key_positions
        self.key_sources = key_sources
        self.eq_pairs = eq_pairs
        self.new_positions = new_positions
        self.filters = filters

    def run(
        self, database: Database, rows: List[Row], stats: EvaluationStatistics
    ) -> List[Row]:
        relation = database.relation(self.predicate)
        if relation is None or len(relation) == 0:
            return []
        if relation.arity != self.arity:
            raise EvaluationError(
                f"subgoal {self.predicate} has arity {self.arity} but relation "
                f"{relation.name} has arity {relation.arity}"
            )
        eq_pairs = self.eq_pairs
        new_positions = self.new_positions
        filters = self.filters
        simple = not eq_pairs and not filters
        out: List[Row] = []
        append = out.append
        probes = 0
        # Column slices: only the arrays this step actually reads.  Matched
        # rows are addressed by slot (bucket values / live slots); their full
        # tuples are never rebuilt on the probe path.
        columns = relation.columns()
        new_columns = tuple(columns[p] for p in new_positions)

        if self.key_positions:
            get = relation.index_on(self.key_positions).get
            sources = self.key_sources
            # Fast path: single bound-slot key, nothing to re-check per match
            # (the common chain/star join): pure index probe + column read.
            if simple and len(sources) == 1 and sources[0][0]:
                slot = sources[0][1]
                if len(new_columns) == 1:
                    column = new_columns[0]
                    for row in rows:
                        bucket = get((row[slot],))
                        if bucket:
                            probes += len(bucket)
                            for match_slot in bucket.values():
                                append(row + (column[match_slot],))
                else:
                    for row in rows:
                        bucket = get((row[slot],))
                        if bucket:
                            probes += len(bucket)
                            for match_slot in bucket.values():
                                append(row + tuple(c[match_slot] for c in new_columns))
            else:
                for row in rows:
                    key = tuple(row[v] if is_slot else v for is_slot, v in sources)
                    bucket = get(key)
                    if not bucket:
                        continue
                    probes += len(bucket)
                    for match_slot in bucket.values():
                        if eq_pairs and any(
                            columns[a][match_slot] != columns[b][match_slot]
                            for a, b in eq_pairs
                        ):
                            continue
                        new_row = row + tuple(c[match_slot] for c in new_columns)
                        if filters and not all(f(new_row) for f in filters):
                            continue
                        append(new_row)
        else:
            # Scan (first step) or cartesian product (disconnected subgoal).
            match_slots = list(relation.slots())
            for row in rows:
                probes += len(match_slots)
                for match_slot in match_slots:
                    if eq_pairs and any(
                        columns[a][match_slot] != columns[b][match_slot]
                        for a, b in eq_pairs
                    ):
                        continue
                    new_row = row + tuple(c[match_slot] for c in new_columns)
                    if filters and not all(f(new_row) for f in filters):
                        continue
                    append(new_row)
        stats.probes += probes
        stats.extensions += len(out)
        return out


class PhysicalPlan:
    """A compiled pipeline for one conjunctive query."""

    __slots__ = (
        "query_name",
        "steps",
        "projection",
        "unbound_head_terms",
        "always_empty",
        "slot_count",
    )

    def __init__(
        self,
        query_name: str,
        steps: Sequence[HashJoinStep],
        projection: Tuple[Source, ...],
        unbound_head_terms: Tuple[str, ...] = (),
        always_empty: bool = False,
        slot_count: int = 0,
    ):
        self.query_name = query_name
        self.steps = tuple(steps)
        self.projection = projection
        #: Head terms not bound by the body; evaluation raises if any
        #: assignment reaches projection (mirroring the interpreter).
        self.unbound_head_terms = unbound_head_terms
        #: True when a ground comparison is false: the plan returns no rows.
        self.always_empty = always_empty
        self.slot_count = slot_count

    def execute(
        self, database: Database, statistics: Optional[EvaluationStatistics] = None
    ) -> FrozenSet[Row]:
        stats = statistics if statistics is not None else EvaluationStatistics()
        stats.subgoals += len(self.steps)
        if self.always_empty:
            return frozenset()
        # An empty row list short-circuits to the empty answer set before the
        # unbound-head check, mirroring the interpreter: that error is raised
        # only when an assignment reaches projection (the body-less
        # ground-head query's seed row always does).
        rows: List[Row] = [()]
        for step in self.steps:
            rows = step.run(database, rows, stats)
            if not rows:
                return frozenset()
        if self.unbound_head_terms:
            raise EvaluationError(
                f"head term {self.unbound_head_terms[0]} of query "
                f"{self.query_name} is not bound by the body"
            )
        stats.answers += len(rows)
        projection = self.projection
        if not projection:
            return frozenset([()])
        if all(is_slot for is_slot, _value in projection):
            positions = tuple(value for _is_slot, value in projection)
            if len(positions) == 1:
                p = positions[0]
                return frozenset((row[p],) for row in rows)
            return frozenset(map(itemgetter(*positions), rows))
        return frozenset(
            tuple(row[v] if is_slot else v for is_slot, v in projection) for row in rows
        )

    def explain(self) -> str:
        """A human-readable rendering of the pipeline (for tests and debugging)."""
        lines = [f"plan for {self.query_name}:"]
        if self.always_empty:
            lines.append("  <always empty: a ground comparison is false>")
        for index, step in enumerate(self.steps):
            kind = "scan" if not step.key_positions else "hash-probe"
            key = ", ".join(
                f"{step.predicate}[{p}]={'slot ' + str(v) if is_slot else repr(v)}"
                for p, (is_slot, v) in zip(step.key_positions, step.key_sources)
            )
            extras = []
            if step.eq_pairs:
                extras.append(f"eq={list(step.eq_pairs)}")
            if step.filters:
                extras.append(f"filters={len(step.filters)}")
            suffix = (" " + " ".join(extras)) if extras else ""
            lines.append(
                f"  {index}: {kind} {step.predicate}/{step.arity}"
                + (f" on {key}" if key else "")
                + suffix
            )
        lines.append(f"  project -> {len(self.projection)} columns")
        return "\n".join(lines)
