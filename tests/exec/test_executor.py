"""Tests for the compiled executor: equivalence, caching, fallback, sharing."""

import random

import pytest

from repro.errors import EvaluationError
from repro.datalog.atoms import Atom
from repro.datalog.parser import parse_query, parse_views
from repro.datalog.queries import ConjunctiveQuery, UnionQuery
from repro.datalog.terms import FunctionTerm, Variable
from repro.engine.database import Database
from repro.engine.evaluate import EvaluationStatistics, evaluate
from repro.engine.relation import SkolemValue
from repro.exec import (
    EXECUTORS,
    CompiledExecutor,
    InterpretedExecutor,
    default_executor_name,
    get_default_executor,
    make_executor,
    resolve_executor,
    set_default_executor,
)

COMPILED = CompiledExecutor()
INTERPRETED = InterpretedExecutor()

#: Every executor behind the common interface, for parametrized equivalence.
ALL_EXECUTORS = [COMPILED, INTERPRETED]
EXECUTOR_IDS = [executor.name for executor in ALL_EXECUTORS]


def random_db(seed=0, size=200, domain=25):
    rng = random.Random(seed)
    db = Database()
    for name in ("r", "s", "t"):
        db.ensure_relation(name, 2)
        for _ in range(size):
            db.add_fact(name, (rng.randrange(domain), rng.randrange(domain)))
    db.ensure_relation("u", 3)
    for _ in range(size):
        db.add_fact("u", tuple(rng.randrange(domain) for _ in range(3)))
    return db


def assert_engines_agree(query, db):
    interpreted = evaluate(query, db, executor=INTERPRETED)
    assert evaluate(query, db, executor=COMPILED) == interpreted
    return interpreted


class TestEquivalence:
    @pytest.mark.parametrize("executor", ALL_EXECUTORS, ids=EXECUTOR_IDS)
    @pytest.mark.parametrize(
        "text",
        [
            "q(X, Z) :- r(X, Y), s(Y, Z).",
            "q(X, W) :- r(X, Y), s(Y, Z), t(Z, W).",
            "q(X) :- r(X, X).",
            "q(X, Y) :- r(X, Y), X < Y.",
            "q(X, Y) :- r(X, Y), s(Y, 3).",
            "q(X, Y, Z) :- u(X, Y, Z), X != Z.",
            "q(X) :- u(X, X, Y), Y > 1.",
            "q(X, Y) :- r(X, Y), t(Y, X).",
            "q() :- r(X, Y), X = Y.",
            "q(X, 7) :- r(X, Y).",
            "q(X, Y) :- r(X, Y), s(A, B), A != B.",  # cartesian product
            "q(X, Z) :- r(X, Y), s(Y, Z), r(X, 5).",
            "q(X, Y) :- r(X, Y), 1 < 2.",  # ground-true comparison
            "q(X, Y) :- r(X, Y), 2 < 1.",  # ground-false comparison
            "q(A, B) :- u(A, B, B).",
            "q(X) :- r(3, X).",
            "q(X, Y) :- r(X, Y).",  # single-step plan: a bare scan
            "q(X, Z) :- s(X, Y), r(Y, Z).",
            "q(X, Z) :- r(X, Y), s(Y, Z), t(Z, X).",  # cycle: two-column probe
            "q(X, Y) :- r(X, Y), s(Y, Z), Z >= X.",  # filter on a probe step
            "q(Y) :- r(3, Y), s(Y, 3).",
            "q(X, Y, Z) :- u(X, Y, Z), r(X, Y), s(Y, Z).",
            "q(X, X) :- r(X, Y), u(Y, Z, Z).",  # equality check on a probe step
            "q(W) :- r(X, Y), s(Y, Z), t(Z, W), u(W, A, B).",
        ],
    )
    def test_same_answers_as_interpreter(self, text, executor):
        query = parse_query(text)
        db = random_db()
        assert evaluate(query, db, executor=executor) == evaluate(
            query, db, executor=INTERPRETED
        )

    def test_union_queries_agree(self):
        db = random_db(3)
        union = UnionQuery(
            [parse_query("q(X, Y) :- r(X, Y)."), parse_query("q(X, Y) :- s(X, Y), X < Y.")]
        )
        assert_engines_agree(union, db)

    def test_empty_and_missing_relations(self):
        db = Database()
        db.ensure_relation("r", 2)  # present but empty
        query = parse_query("q(X, Z) :- r(X, Y), missing(Y, Z).")
        assert assert_engines_agree(query, db) == frozenset()

    def test_skolem_values_in_data(self):
        db = Database()
        sk = SkolemValue("f", (1,))
        db.add_fact("r", (1, sk))
        db.add_fact("r", (1, 2))
        db.add_fact("s", (sk, 3))
        db.add_fact("s", (2, 3))
        # Skolems join by identity but never satisfy order comparisons.
        assert_engines_agree(parse_query("q(X, Z) :- r(X, Y), s(Y, Z)."), db)
        assert_engines_agree(parse_query("q(X, Y) :- r(X, Y), Y < 100."), db)
        assert_engines_agree(parse_query("q(X, Y) :- r(X, Y), Y != 2."), db)

    def test_arity_mismatch_raises_in_both_engines(self):
        db = Database.from_dict({"r": [(1, 2)]})
        query = parse_query("q(X) :- r(X).")
        for executor in ALL_EXECUTORS:
            with pytest.raises(EvaluationError):
                evaluate(query, db, executor=executor)

    def test_unbound_head_variable_raises_only_when_rows_exist(self):
        # require_safe=False lets an unsafe head through; evaluation must
        # raise only when an assignment actually reaches projection.
        x, y = Variable("X"), Variable("Y")
        query = ConjunctiveQuery(Atom("q", [y]), [Atom("r", [x, x])], require_safe=False)
        empty = Database.from_dict({"r": [(1, 2)]})  # r(X, X) never matches
        matching = Database.from_dict({"r": [(1, 1)]})
        for executor in ALL_EXECUTORS:
            assert evaluate(query, empty, executor=executor) == frozenset()
            with pytest.raises(EvaluationError):
                evaluate(query, matching, executor=executor)

    def test_statistics_counters_are_filled(self):
        db = random_db(1)
        stats = EvaluationStatistics()
        evaluate(parse_query("q(X, Z) :- r(X, Y), s(Y, Z)."), db, stats, executor=COMPILED)
        assert stats.probes > 0
        assert stats.extensions > 0
        assert stats.answers > 0
        assert stats.subgoals == 2


class TestPlanShapes:
    def test_always_empty_plan_reads_no_relation(self):
        db = random_db(6)
        query = parse_query("q(X, Y) :- r(X, Y), s(Y, Z), 2 < 1.")
        plan = CompiledExecutor().plan_for(query, db)
        assert plan.always_empty and plan.steps == ()
        stats = EvaluationStatistics()
        assert evaluate(query, db, stats, executor=COMPILED) == frozenset()
        assert stats.probes == 0

    def test_single_atom_query_compiles_to_one_scan(self):
        db = random_db(7)
        plan = CompiledExecutor().plan_for(parse_query("q(X, Y) :- r(X, Y)."), db)
        assert len(plan.steps) == 1
        assert plan.steps[0].key_positions == ()
        assert plan.execute(db) == db.tuples("r")

    @pytest.mark.parametrize(
        "text",
        [
            "q(X, Z) :- r(X, Y), s(Y, Z).",
            "q(X, Z) :- r(X, Y), s(Y, Z), t(Z, X).",
            "q(X) :- u(X, X, Y), Y > 1.",
            "q(X, Y) :- r(X, Y), s(A, B), A != B.",
        ],
    )
    def test_statistics_match_the_interpreter(self, text):
        db = random_db(8)
        compiled, interpreted = EvaluationStatistics(), EvaluationStatistics()
        evaluate(parse_query(text), db, compiled, executor=COMPILED)
        evaluate(parse_query(text), db, interpreted, executor=INTERPRETED)
        assert compiled == interpreted

    def test_union_statistics_accumulate_over_disjuncts(self):
        db = random_db(9)
        union = UnionQuery(
            [
                parse_query("q(X, Z) :- r(X, Y), s(Y, Z)."),
                parse_query("q(X, Z) :- s(X, Y), r(Y, Z)."),
            ]
        )
        stats = EvaluationStatistics()
        answers = evaluate(union, db, stats, executor=COMPILED)
        assert answers == assert_engines_agree(union, db)
        assert stats.subgoals == 4
        assert stats.answers >= len(answers) > 0

    def test_unbound_head_is_not_an_error_when_a_later_step_empties(self):
        x, y = Variable("X"), Variable("Y")
        query = ConjunctiveQuery(
            Atom("q", [y]),
            [Atom("r", [x, x]), Atom("s", [x, x])],
            require_safe=False,
        )
        db = Database.from_dict({"r": [(1, 1)], "s": [(2, 2)]})
        for executor in ALL_EXECUTORS:
            assert evaluate(query, db, executor=executor) == frozenset()

    def test_skolems_on_both_join_columns(self):
        db = random_db(10, size=40)
        sk = SkolemValue("f", (1,))
        db.add_fact("r", (1, sk))
        db.add_fact("s", (sk, 3))
        answers = assert_engines_agree(parse_query("q(X, Z) :- r(X, Y), s(Y, Z)."), db)
        assert (1, 3) in answers

    def test_clear_drops_every_plan(self):
        executor = CompiledExecutor()
        db = random_db(11)
        query = parse_query("q(X, Z) :- r(X, Y), s(Y, Z).")
        expected = executor.evaluate(query, db)
        assert executor.stats()["plans_cached"] == 1
        executor.clear()
        assert executor.stats()["plans_cached"] == 0
        assert executor.evaluate(query, db) == expected
        assert executor.plan_misses == 2

    def test_stats_snapshot_shape(self):
        executor = CompiledExecutor(plan_cache_size=17)
        assert executor.stats() == {
            "executor": "compiled",
            "plans_cached": 0,
            "plan_cache_size": 17,
            "plan_hits": 0,
            "plan_misses": 0,
            "fallbacks": 0,
            "pushdowns": 0,
        }
        assert InterpretedExecutor().stats() == {"executor": "interpreted"}


class TestFallback:
    def test_function_terms_fall_back_to_interpreter(self):
        executor = CompiledExecutor()
        x = Variable("X")
        query = ConjunctiveQuery(
            Atom("q", [x, FunctionTerm("f", (x,))]),
            [Atom("r", [x, x])],
            require_safe=False,
        )
        db = Database.from_dict({"r": [(1, 1), (2, 2)]})
        answers = executor.evaluate(query, db)
        assert answers == frozenset(
            {(1, SkolemValue("f", (1,))), (2, SkolemValue("f", (2,)))}
        )
        assert executor.fallbacks == 1


class TestPlanCache:
    def test_repeated_queries_hit_the_cache(self):
        executor = CompiledExecutor()
        db = random_db(2)
        query = parse_query("q(X, Z) :- r(X, Y), s(Y, Z).")
        executor.evaluate(query, db)
        executor.evaluate(query, db)
        assert executor.plan_hits == 1
        assert executor.plan_misses == 1

    def test_isomorphic_queries_share_a_plan(self):
        executor = CompiledExecutor()
        db = random_db(2)
        executor.evaluate(parse_query("q(X, Z) :- r(X, Y), s(Y, Z)."), db)
        executor.evaluate(parse_query("q(A, C) :- r(A, B), s(B, C)."), db)
        assert executor.plan_hits == 1

    def test_version_bump_recompiles(self):
        executor = CompiledExecutor()
        db = random_db(2)
        query = parse_query("q(X, Z) :- r(X, Y), s(Y, Z).")
        first = executor.evaluate(query, db)
        db.add_fact("r", (999, 998))
        db.add_fact("s", (998, 997))
        second = executor.evaluate(query, db)
        assert executor.plan_misses == 2
        assert (999, 997) in second and (999, 997) not in first

    def test_cache_is_bounded(self):
        executor = CompiledExecutor(plan_cache_size=2)
        db = random_db(2)
        for name in ("a", "b", "c", "d"):
            executor.evaluate(parse_query(f"{name}(X, Y) :- r(X, Y)."), db)
        assert executor.stats()["plans_cached"] <= 2

    def test_zero_cache_size_compiles_every_time(self):
        executor = CompiledExecutor(plan_cache_size=0)
        db = random_db(2)
        query = parse_query("q(X, Y) :- r(X, Y).")
        assert executor.evaluate(query, db) == evaluate(query, db, executor=INTERPRETED)
        assert executor.stats()["plans_cached"] == 0

    def test_unsupported_queries_cache_the_negative_result(self):
        executor = CompiledExecutor()
        x = Variable("X")
        query = ConjunctiveQuery(
            Atom("q", [x]),
            [Atom("r", [x, FunctionTerm("f", (x,))])],
            require_safe=False,
        )
        db = Database.from_dict({"r": [(1, SkolemValue("f", (1,)))]})
        executor.evaluate(query, db)
        executor.evaluate(query, db)
        assert executor.fallbacks == 2
        assert executor.plan_misses == 1
        assert executor.plan_hits == 1


class TestSharedBuildSides:
    def test_union_disjuncts_share_relation_indexes(self):
        """Disjuncts probing one view relation share its hash index build."""
        db = Database()
        for i in range(50):
            db.add_fact("v", (i % 7, i))
        union = UnionQuery(
            [
                parse_query("q(X, Y) :- v(X, Y), r(Y, X)."),
                parse_query("q(X, Y) :- v(X, Y), s(Y, X)."),
                parse_query("q(X, Y) :- v(X, Y), t(Y, X)."),
            ]
        )
        for name in ("r", "s", "t"):
            for i in range(20):
                db.add_fact(name, (i, i % 7))
        executor = CompiledExecutor()
        executor.evaluate(union, db)
        relation = db.relation("v")
        # One shared index (plus at most the scan-side none): the three
        # disjuncts did not build three separate join tables.
        assert len(relation._indexes) <= 2


class TestDefaultExecutor:
    def test_default_matches_configuration(self):
        assert get_default_executor().name == default_executor_name()

    def test_set_and_restore_default(self):
        set_default_executor("interpreted")
        try:
            assert get_default_executor().name == "interpreted"
        finally:
            set_default_executor(None)  # None = back to "compiled"
        assert get_default_executor().name == "compiled"

    def test_resolve_accepts_instances_and_rejects_junk(self):
        executor = CompiledExecutor()
        assert resolve_executor(executor) is executor
        assert resolve_executor("interpreted").name == "interpreted"
        with pytest.raises(EvaluationError):
            resolve_executor("parallel")
        with pytest.raises(EvaluationError):
            resolve_executor("vectorized")
        with pytest.raises(EvaluationError):
            resolve_executor(42)

    def test_registry_names_exactly_two_executors(self):
        assert EXECUTORS == ("compiled", "interpreted")

    def test_make_executor_returns_private_instances(self):
        first, second = make_executor("compiled"), make_executor("compiled")
        assert isinstance(first, CompiledExecutor)
        assert first is not second
        assert first is not resolve_executor("compiled")
        assert isinstance(make_executor("interpreted"), InterpretedExecutor)

    @pytest.mark.parametrize("name", ["parallel", "vectorized"])
    def test_make_executor_rejects_unknown_names(self, name):
        with pytest.raises(EvaluationError):
            make_executor(name)

    def test_rejected_default_keeps_the_previous_one(self):
        set_default_executor("interpreted")
        try:
            with pytest.raises(EvaluationError):
                set_default_executor("parallel")
            assert default_executor_name() == "interpreted"
        finally:
            set_default_executor(None)
        assert default_executor_name() == "compiled"

    def test_evaluate_accepts_executor_names(self):
        db = random_db(4)
        query = parse_query("q(X, Y) :- r(X, Y), X < Y.")
        assert evaluate(query, db, executor="compiled") == evaluate(
            query, db, executor="interpreted"
        )


class TestMaterializeThroughExecutor:
    def test_materialize_views_matches_interpreter(self):
        from repro.engine.evaluate import materialize_views

        db = random_db(5)
        views = parse_views(
            "v1(X, Z) :- r(X, Y), s(Y, Z).\n"
            "v2(X) :- r(X, X).\n"
            "v3(X, Y) :- t(X, Y), X < Y.\n"
        )
        compiled = materialize_views(views, db, executor=COMPILED)
        interpreted = materialize_views(views, db, executor=INTERPRETED)
        assert compiled == interpreted
