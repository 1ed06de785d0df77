"""repro.exec — the compiled, set-at-a-time physical execution engine.

This package turns a :class:`~repro.datalog.queries.ConjunctiveQuery` (or
union) into a physical plan — an indexed scan feeding a pipeline of hash
joins, comparison filters and a deduplicating projection — that operates on
whole relations at a time instead of one binding at a time:

* :mod:`repro.exec.stats` — per-relation/per-position statistics
  (cardinality, distinct counts, selectivity estimates) behind a
  version-validated snapshot cache;
* :mod:`repro.exec.compile` — admission, cost-based join ordering, and
  operator construction;
* :mod:`repro.exec.plan` — the physical operators and their executable form;
* :mod:`repro.exec.executor` — :class:`CompiledExecutor` (plan caching keyed
  by canonical query and database version, union evaluation with shared
  build sides, interpreter fallback) and :class:`InterpretedExecutor`.

:func:`repro.engine.evaluate.evaluate` routes through the **default
executor**, which is the compiled engine unless a caller opts out; flip it
globally with :func:`set_default_executor` (the CLI's ``--executor`` flag)
or per call via ``evaluate(..., executor=...)``.

>>> from repro.datalog.parser import parse_query
>>> from repro.engine.database import Database
>>> from repro.exec import CompiledExecutor
>>> db = Database.from_dict({"r": [(1, 2), (2, 3)], "s": [(2, "a"), (3, "b")]})
>>> executor = CompiledExecutor()
>>> sorted(executor.evaluate(parse_query("q(X, Z) :- r(X, Y), s(Y, Z)."), db))
[(1, 'a'), (2, 'b')]
"""

from __future__ import annotations

from typing import Optional, Union

from repro.errors import EvaluationError
from repro.exec.compile import is_compilable, order_body, try_compile
from repro.exec.executor import CompiledExecutor, InterpretedExecutor
from repro.exec.plan import HashJoinStep, PhysicalPlan
from repro.exec.stats import DatabaseStatistics, statistics_for

#: The executor names accepted everywhere an executor can be chosen.
EXECUTORS = ("compiled", "interpreted")

ExecutorLike = Union[str, CompiledExecutor, InterpretedExecutor, None]

_SHARED_COMPILED = CompiledExecutor()
_SHARED_INTERPRETED = InterpretedExecutor()

_DEFAULT: "str | CompiledExecutor | InterpretedExecutor" = "compiled"


def set_default_executor(executor: ExecutorLike) -> None:
    """Set the executor :func:`repro.engine.evaluate.evaluate` uses by default.

    Accepts ``"compiled"``, ``"interpreted"``, or an executor instance.
    ``None`` resets to ``"compiled"``.
    """
    global _DEFAULT
    _DEFAULT = _validate(executor if executor is not None else "compiled")


def get_default_executor() -> "CompiledExecutor | InterpretedExecutor":
    """The currently configured default executor instance."""
    return resolve_executor(None)


def default_executor_name() -> str:
    """The name of the currently configured default executor."""
    default = _DEFAULT
    return default if isinstance(default, str) else default.name


def make_executor(name: str) -> "CompiledExecutor | InterpretedExecutor":
    """A fresh (unshared) executor instance for a validated name.

    Session-style owners use this so their plan caches are private rather
    than process-shared.
    """
    _validate(name)
    if name == "compiled":
        return CompiledExecutor()
    return InterpretedExecutor()


def resolve_executor(executor: ExecutorLike) -> "CompiledExecutor | InterpretedExecutor":
    """Resolve a name / instance / None (= the configured default)."""
    if executor is None:
        executor = _DEFAULT
    executor = _validate(executor)
    if executor == "compiled":
        return _SHARED_COMPILED
    if executor == "interpreted":
        return _SHARED_INTERPRETED
    return executor


def _validate(executor: ExecutorLike):
    if isinstance(executor, str):
        if executor not in EXECUTORS:
            raise EvaluationError(
                f"unknown executor {executor!r}; expected one of {', '.join(EXECUTORS)}"
            )
        return executor
    if hasattr(executor, "evaluate"):
        return executor
    raise EvaluationError(f"not an executor: {executor!r}")


__all__ = [
    "EXECUTORS",
    "CompiledExecutor",
    "InterpretedExecutor",
    "DatabaseStatistics",
    "HashJoinStep",
    "PhysicalPlan",
    "default_executor_name",
    "get_default_executor",
    "is_compilable",
    "make_executor",
    "order_body",
    "resolve_executor",
    "set_default_executor",
    "statistics_for",
    "try_compile",
]
