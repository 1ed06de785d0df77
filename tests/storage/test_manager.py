"""StorageManager recovery semantics, engine wiring, and fault injection.

The recovery contract: final state == base (newest readable snapshot, or
the sqlite base store) + the WAL tail with ``seq > base_seq``, replayed in
order.  Crashes are simulated by *not* closing the first engine cleanly and
by mutilating the files a real crash could leave torn; every case must end
in a recovered engine whose answers match a never-crashed oracle — or a
typed ReproError — never a stack trace.
"""

import os

import pytest

from repro import connect
from repro.engine.database import Database
from repro.errors import StorageError
from repro.materialize.delta import Delta, parse_delta
from repro.storage import StorageManager, list_snapshots, write_snapshot
from repro.storage.backed import BackedDatabase
from repro.storage.manager import WAL_FILENAME

VIEWS = "v1(X, Y) :- cites(X, Y)."
DATA = "cites(a, b). cites(b, c). refs(a, 1)."
QUERY = "q(X, Y) :- cites(X, Y)."

DELTAS = [
    "+ cites(c, d).",
    "- cites(a, b).\n+ cites(d, e).",
    "+ refs(b, 2).",
]


def run_workload(storage, backend=None, wal="none", snapshot=None, deltas=DELTAS):
    """Build an engine over fresh data, apply deltas, return its answers."""
    engine = connect(
        views=VIEWS, data=DATA, storage=storage, backend=backend,
        wal=wal, snapshot=snapshot,
    )
    for delta in deltas:
        engine.apply(delta)
    return engine


def answers_of(engine):
    return sorted(engine.query(QUERY).answers().rows)


def oracle_answers():
    engine = connect(views=VIEWS, data=DATA)
    for delta in DELTAS:
        engine.apply(delta)
    return answers_of(engine)


@pytest.fixture(params=["memory", "sqlite"])
def backend_name(request):
    return request.param


class TestRecovery:
    def test_reopen_restores_exact_answers(self, tmp_path, backend_name):
        storage = str(tmp_path / "store")
        expected = answers_of(run_workload(storage, backend=backend_name))
        assert expected == oracle_answers()
        # No clean close: the WAL tail is all recovery has beyond the base.
        recovered = connect(views=VIEWS, storage=storage, backend=backend_name)
        try:
            assert answers_of(recovered) == expected
            assert recovered.verify() == []
            report = recovered.recovery_report
            assert report["backend"] == backend_name
            assert report["replayed"] == len(DELTAS) - report["base_seq"]
        finally:
            recovered.close()

    def test_backend_autodetected_from_directory(self, tmp_path):
        storage = str(tmp_path / "store")
        run_workload(storage, backend="sqlite")
        recovered = connect(views=VIEWS, storage=storage)  # no backend=
        try:
            assert recovered.recovery_report["backend"] == "sqlite"
            assert isinstance(recovered.database, BackedDatabase)
        finally:
            recovered.close()

    def test_checkpoint_shortens_the_tail(self, tmp_path):
        storage = str(tmp_path / "store")
        engine = run_workload(storage, backend="memory", wal="batch")
        engine.checkpoint()
        engine.apply("+ cites(e, f).")
        engine.close()
        recovered = connect(views=VIEWS, storage=storage, backend="memory")
        try:
            report = recovered.recovery_report
            assert report["base_seq"] == len(DELTAS)
            assert report["replayed"] == 1
            assert report["store_restored"] is True
            assert ("e", "f") in recovered.query(QUERY).answers().rows
        finally:
            recovered.close()

    def test_auto_checkpoint_every_n_deltas(self, tmp_path):
        storage = str(tmp_path / "store")
        engine = run_workload(storage, backend="memory", snapshot=2)
        try:
            assert engine.storage_status()["checkpoints"] >= 2
            [(seq, _)] = list_snapshots(storage)
            assert seq == 2  # the N-delta checkpoint (baseline pruned)
        finally:
            engine.close()

    def test_attaching_data_over_existing_state_raises(self, tmp_path):
        storage = str(tmp_path / "store")
        run_workload(storage, backend="memory")
        with pytest.raises(StorageError):
            connect(views=VIEWS, data=DATA, storage=storage)

    @pytest.mark.parametrize(
        "options",
        [
            {"wal": "always"},
            {"snapshot": 10},
            {"storage": True, "snapshot": 0},
            {"storage": True, "snapshot": -1},
        ],
        ids=["wal-without-storage", "snapshot-without-storage",
             "zero-snapshot", "negative-snapshot"],
    )
    def test_invalid_wal_or_snapshot_options_raise(self, tmp_path, options):
        # A non-positive interval would otherwise checkpoint after every delta.
        if options.pop("storage", False):
            options["storage"] = str(tmp_path / "store")
        with pytest.raises(StorageError):
            connect(views=VIEWS, data=DATA, **options)

    def test_checkpoint_without_storage_raises(self):
        engine = connect(views=VIEWS, data=DATA)
        with pytest.raises(StorageError):
            engine.checkpoint()

    def test_closed_engine_rejects_durable_applies(self, tmp_path):
        engine = run_workload(str(tmp_path / "store"))
        engine.close()
        with pytest.raises(StorageError):
            engine.apply("+ cites(x, y).")


class TestFaultInjection:
    def test_torn_wal_tail_recovers_to_prefix(self, tmp_path, backend_name):
        storage = str(tmp_path / "store")
        run_workload(storage, backend=backend_name)
        with open(os.path.join(storage, WAL_FILENAME), "ab") as handle:
            handle.write(b"\x13partial")
        recovered = connect(views=VIEWS, storage=storage, backend=backend_name)
        try:
            assert answers_of(recovered) == oracle_answers()
            assert recovered.verify() == []
            wal = recovered.recovery_report["wal"]
            assert wal["corruption"] == "torn record header"
            assert wal["repaired"] is True
        finally:
            recovered.close()

    def test_crc_corrupt_record_truncates_from_there(self, tmp_path):
        storage = str(tmp_path / "store")
        run_workload(storage, backend="memory")
        path = os.path.join(storage, WAL_FILENAME)
        with open(path, "r+b") as handle:
            handle.seek(-1, 2)
            last = handle.read(1)
            handle.seek(-1, 2)
            handle.write(bytes([last[0] ^ 0xFF]))
        recovered = connect(views=VIEWS, storage=storage, backend="memory")
        try:
            # The last delta is gone; state must equal the shorter history.
            oracle = connect(views=VIEWS, data=DATA)
            for delta in DELTAS[:-1]:
                oracle.apply(delta)
            assert answers_of(recovered) == answers_of(oracle)
            assert recovered.verify() == []
            assert "CRC mismatch" in recovered.recovery_report["wal"]["corruption"]
        finally:
            recovered.close()

    def test_missing_snapshot_falls_back_to_full_replay(self, tmp_path):
        storage = str(tmp_path / "store")
        # All facts arrive through journaled deltas, so the WAL alone can
        # rebuild everything once the snapshots are gone.
        engine = connect(views=VIEWS, storage=storage, backend="memory", wal="batch")
        for delta in DELTAS:
            engine.apply(delta)
        engine.checkpoint()
        expected = answers_of(engine)
        engine.close()
        for _, path in list_snapshots(storage):
            os.remove(path)
        recovered = connect(views=VIEWS, storage=storage, backend="memory")
        try:
            assert answers_of(recovered) == expected
            report = recovered.recovery_report
            assert report["base_seq"] == 0
            assert report["replayed"] == len(DELTAS)
        finally:
            recovered.close()

    def test_corrupt_snapshot_falls_back_to_older_one(self, tmp_path):
        storage = str(tmp_path / "store")
        engine = run_workload(storage, backend="memory", wal="batch")
        engine.checkpoint()
        expected = answers_of(engine)
        engine.close()
        # Plant an older, *valid* snapshot of the baseline state, then chew
        # up the newest one: recovery must skip it and replay a longer tail.
        [(newest_seq, newest_path)] = list_snapshots(storage)
        baseline = Database.from_dict(
            {"cites": [("a", "b"), ("b", "c")], "refs": [("a", 1)]}
        )
        write_snapshot(
            storage, seq=0, version=0,
            relations={
                relation.name: (relation.arity, sorted(relation.tuples(), key=repr))
                for relation in baseline
            },
            prune=False,
        )
        with open(newest_path, "r+b") as handle:
            handle.seek(20)
            handle.write(b"\xff" * 8)
        recovered = connect(views=VIEWS, storage=storage, backend="memory")
        try:
            assert answers_of(recovered) == expected
            report = recovered.recovery_report
            assert report["base_seq"] == 0
            assert report["replayed"] == len(DELTAS)
            [skipped] = report["snapshots_skipped"]
            assert skipped["path"] == newest_path
        finally:
            recovered.close()

    def test_delta_replay_is_idempotent_at_least_once(self, tmp_path):
        # mark_applied never ran, so the sqlite base already contains what
        # the tail will replay — applying it again must change nothing.
        storage = str(tmp_path / "store")
        manager = StorageManager(storage, backend="sqlite")
        database = manager.attach_database(
            Database.from_dict({"cites": [("a", "b")]})
        )
        delta = parse_delta("+ cites(b, c).\n- cites(a, b).")
        manager.journal(delta, database.version)
        database.apply_delta(delta)  # applied but never marked
        manager.close()

        result = StorageManager(storage, backend="sqlite").recover()
        recovered = result.database
        for record in result.tail:
            recovered.apply_delta(parse_delta(record.payload))
        assert recovered.tuples("cites") == frozenset({("b", "c")})


class TestManagerDirectly:
    def test_journal_assigns_monotonic_seqs(self, tmp_path):
        manager = StorageManager(str(tmp_path / "store"))
        delta = Delta(inserted={"r": [(1, 2)]}, removed={})
        assert manager.journal(delta, 0) == 1
        assert manager.journal(delta, 1) == 2
        manager.close()
        assert manager.closed
        with pytest.raises(StorageError):
            manager.journal(delta, 2)

    def test_status_reports_wal_lag(self, tmp_path):
        manager = StorageManager(str(tmp_path / "store"))
        delta = Delta(inserted={"r": [(1, 2)]}, removed={})
        seq = manager.journal(delta, 0)
        assert manager.status()["wal_lag"] == 1
        manager.mark_applied(seq)
        assert manager.status()["wal_lag"] == 0
        manager.close()

    def test_unknown_backend_rejected(self, tmp_path):
        with pytest.raises(StorageError):
            StorageManager(str(tmp_path / "store"), backend="papyrus")
