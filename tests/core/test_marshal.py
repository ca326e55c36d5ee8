"""Marshaling sizes and fd translation."""

import pytest

from repro.android.binder import Transaction
from repro.core.marshal import (
    FdTranslationTable,
    RemoteFdStub,
    encoded_size,
    marshal_call,
    result_size,
)
from repro.errors import SimulationError


class TestEncodedSize:
    def test_primitives(self):
        assert encoded_size(None) == 1
        assert encoded_size(True) == 1
        assert encoded_size(42) == 8
        assert encoded_size(3.14) == 8

    def test_bytes_and_strings_by_length(self):
        assert encoded_size(b"abcd") == 4
        assert encoded_size("hello") == 5

    def test_containers_sum_members(self):
        assert encoded_size([1, 2]) == 20  # 2*8 + 4
        assert encoded_size({"k": b"vv"}) == 1 + 2 + 4

    def test_transaction_uses_payload_size(self):
        txn = Transaction("svc", "m", {"blob": "x" * 100})
        assert encoded_size(txn) == txn.payload_size + 16

    def test_arbitrary_object_falls_back_to_repr(self):
        class Thing:
            def __repr__(self):
                return "Thing()"

        assert encoded_size(Thing()) == len("Thing()")


class TestMarshalCall:
    def test_size_includes_name_and_args(self):
        call, size = marshal_call("write", (3, b"data"), {})
        assert call == "write"
        assert size == len("write") + 8 + 4

    def test_kwargs_count_toward_size(self):
        _call, size = marshal_call("open", ("/p",), {"mode": 0o644})
        assert size == len("open") + 2 + len("mode") + 8

    def test_result_size(self):
        assert result_size(b"x" * 4096) == 4096
        assert result_size(0) == 8
        assert result_size(None) == 1


class TestFdTranslation:
    def test_bind_and_translate(self):
        table = FdTranslationTable()
        table.bind(5, 3)
        assert table.to_proxy(5) == 3
        assert table.is_remote(5)
        assert 5 in table

    def test_double_bind_rejected(self):
        table = FdTranslationTable()
        table.bind(5, 3)
        with pytest.raises(SimulationError):
            table.bind(5, 4)

    def test_unbind(self):
        table = FdTranslationTable()
        table.bind(5, 3)
        assert table.unbind(5) == 3
        assert not table.is_remote(5)

    def test_translate_unknown_fd_errors(self):
        with pytest.raises(SimulationError):
            FdTranslationTable().to_proxy(9)

    def test_translate_args_rewrites_leading_fd(self):
        table = FdTranslationTable()
        table.bind(7, 3)
        assert table.translate_args("read", (7, 100)) == (3, 100)

    def test_translate_args_leaves_local_fd(self):
        table = FdTranslationTable()
        table.bind(7, 3)
        assert table.translate_args("read", (4, 100)) == (4, 100)

    def test_translate_args_sendfile_both_fds(self):
        table = FdTranslationTable()
        table.bind(7, 3)
        table.bind(8, 4)
        assert table.translate_args("sendfile", (7, 8, None, 100)) == (
            3, 4, None, 100,
        )

    def test_translate_args_non_fd_call_untouched(self):
        table = FdTranslationTable()
        table.bind(7, 3)
        assert table.translate_args("mkdir", ("/x", 0o755)) == ("/x", 0o755)

    def test_remote_fds_set(self):
        table = FdTranslationTable()
        table.bind(5, 1)
        table.bind(6, 2)
        assert table.remote_fds() == {5, 6}


class TestRemoteFdStub:
    def test_dup_returns_self(self):
        stub = RemoteFdStub(3, "f")
        assert stub.dup() is stub

    def test_close_is_inert(self):
        assert RemoteFdStub(3).close() is None


class TestFdFirstSweep:
    """Every fd-first call the proxy can be handed must have its leading
    host fd rewritten — a call missing from the set reaches the CVM with
    a dangling host number and hits the wrong (or no) file."""

    @pytest.mark.parametrize("name,rest", [
        ("ftruncate", (4096,)),
        ("ftruncate64", (4096,)),
        ("fchmod", (0o640,)),
        ("fchown", (1000, 1000)),
        ("fchown32", (1000, 1000)),
        ("fdatasync", ()),
        ("fallocate", (0, 0, 4096)),
        ("flock", (2,)),
        ("getdents", ()),
        ("getdents64", ()),
        ("_llseek", (0, 0, 0)),
        ("fstat64", ()),
        ("pread64", (100, 0)),
        ("pwrite64", (b"x", 0)),
    ])
    def test_translate_args_rewrites_the_new_fd_first_calls(self, name,
                                                            rest):
        table = FdTranslationTable()
        table.bind(7, 3)
        assert table.translate_args(name, (7,) + rest) == (3,) + rest

    def test_translate_args_still_skips_path_first_calls(self):
        table = FdTranslationTable()
        table.bind(7, 3)
        for name in ("truncate", "chmod", "chown", "unlink", "rename"):
            args = ("/data/x", 7)
            assert table.translate_args(name, args) == args
