"""The embedded SQLite-like engine."""

import pytest

from repro.android.sqlite import Database, Transactionless
from repro.errors import SimulationError
from repro.kernel.kernel import Machine
from repro.kernel.libc import Libc
from repro.kernel.process import Credentials


@pytest.fixture
def libc():
    kernel = Machine(total_mb=128).kernel
    task = kernel.spawn_task("dbapp", Credentials(10001))
    task.cwd = "/data/local/tmp"
    return Libc(kernel, task)


@pytest.fixture
def db(libc):
    database = Database(libc, "/data/local/tmp/test.db")
    database.create_table("t")
    return database


class TestSchema:
    def test_create_and_list_tables(self, db):
        db.create_table("second")
        assert db.tables() == ["second", "t"]

    def test_duplicate_table_rejected(self, db):
        with pytest.raises(SimulationError):
            db.create_table("t")

    def test_insert_into_missing_table_rejected(self, db):
        with pytest.raises(SimulationError):
            db.insert("ghost", b"row")


class TestRows:
    def test_insert_returns_row_ids(self, db):
        assert db.insert("t", b"one") == 1
        assert db.insert("t", b"two") == 2

    def test_select_all_returns_rows_in_order(self, db):
        db.insert("t", b"alpha")
        db.insert("t", b"beta")
        assert db.select_all("t") == [b"alpha", b"beta"]

    def test_row_count(self, db):
        for i in range(5):
            db.insert("t", b"r")
        assert db.row_count("t") == 5

    def test_rows_span_pages(self, db):
        row = b"x" * 500
        for _ in range(20):  # 20 * 502 bytes > one 4096B page
            db.insert("t", row)
        assert db.select_all("t") == [row] * 20

    def test_variable_length_rows(self, db):
        rows = [bytes([i]) * (i + 1) for i in range(30)]
        for row in rows:
            db.insert("t", row)
        assert db.select_all("t") == rows


class TestTransactions:
    def test_commit_outside_transaction_rejected(self, db):
        with pytest.raises(Transactionless):
            db.commit()

    def test_nested_begin_rejected(self, db):
        db.begin()
        with pytest.raises(SimulationError):
            db.begin()

    def test_commit_writes_journal(self, db, libc):
        db.begin()
        db.insert("t", b"row")
        db.commit()
        assert libc.read_file("/data/local/tmp/test.db-journal")

    def test_checkpoint_drops_journal(self, db, libc):
        db.begin()
        db.insert("t", b"row")
        db.commit()
        db.checkpoint()
        from repro.errors import SyscallError

        with pytest.raises(SyscallError):
            libc.read_file("/data/local/tmp/test.db-journal")


class TestPersistence:
    def test_data_survives_reopen_after_checkpoint(self, libc):
        db = Database(libc, "/data/local/tmp/p.db")
        db.create_table("t")
        db.begin()
        db.insert("t", b"durable")
        db.commit()
        db.checkpoint()
        db.close()

        reopened = Database(libc, "/data/local/tmp/p.db")
        assert reopened.select_all("t") == [b"durable"]
        assert reopened.row_count("t") == 1

    def test_uncheckpointed_data_not_on_disk(self, libc):
        db = Database(libc, "/data/local/tmp/q.db")
        db.create_table("t")
        db.begin()
        db.insert("t", b"cached-only")
        db.commit()
        db.close()

        # Without checkpoint neither data pages nor the catalog hit the
        # file: a reopen sees the pre-transaction (empty) database.
        reopened = Database(libc, "/data/local/tmp/q.db")
        assert reopened.tables() == []


class TestCosts:
    def test_insert_charges_cpu(self, db, libc):
        clock = libc.kernel.clock
        db.begin()
        before = clock.now_ns
        db.insert("t", b"row")
        assert clock.now_ns > before

    def test_in_transaction_inserts_make_no_syscalls(self, db, libc):
        """Row inserts hit the page cache, not the kernel."""
        kernel = libc.kernel
        db.begin()
        db.insert("t", b"warm")  # first insert may load a page

        def traps():
            return sum(sum(calls.values())
                       for calls in kernel.syscall_counts.values())

        before = traps()
        for _ in range(50):
            db.insert("t", b"row")
        assert traps() == before
