"""Property-based tests: channel fidelity and crypto roundtrips."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.channel import AnceptionChannel
from repro.core.crypto_fs import _keystream_xor
from repro.core.marshal import encoded_size, marshal_call, wire_size
from repro.hypervisor import LguestHypervisor
from repro.kernel.kernel import Machine
from repro.perf.costs import PAGE_SIZE
from repro.workloads.servers import tls_open, tls_seal


def fresh_channel(num_pages=4):
    machine = Machine(total_mb=128)
    hypervisor = LguestHypervisor(machine, guest_mb=16)
    hypervisor.launch_guest()
    return AnceptionChannel(hypervisor, machine.costs, num_pages)


class TestChannelProperties:
    @given(data=st.binary(min_size=0, max_size=3 * PAGE_SIZE))
    @settings(max_examples=30, deadline=None)
    def test_byte_accounting_exact(self, data):
        channel = fresh_channel()
        channel.send_to_guest(data)
        assert channel.bytes_to_guest == len(data)



class TestKeystreamProperties:
    @given(
        key=st.binary(min_size=16, max_size=32),
        data=st.binary(min_size=0, max_size=512),
        offset=st.integers(min_value=0, max_value=1024),
    )
    @settings(max_examples=60, deadline=None)
    def test_xor_is_involutive(self, key, data, offset):
        once = _keystream_xor(key, data, offset)
        assert _keystream_xor(key, once, offset) == data

    @given(
        key=st.binary(min_size=16, max_size=32),
        left=st.binary(min_size=1, max_size=100),
        right=st.binary(min_size=1, max_size=100),
    )
    @settings(max_examples=40, deadline=None)
    def test_split_encryption_equals_whole(self, key, left, right):
        """Encrypting in two offset-contiguous pieces == one piece."""
        whole = _keystream_xor(key, left + right, 0)
        pieces = _keystream_xor(key, left, 0) + _keystream_xor(
            key, right, len(left)
        )
        assert whole == pieces


class TestTlsProperties:
    @given(key=st.binary(min_size=32, max_size=32),
           payload=st.binary(min_size=0, max_size=1024))
    @settings(max_examples=60, deadline=None)
    def test_seal_open_roundtrip(self, key, payload):
        assert tls_open(key, tls_seal(key, payload)) == payload

    @given(key=st.binary(min_size=32, max_size=32),
           payload=st.binary(min_size=4, max_size=256),
           flip=st.integers(min_value=0, max_value=3))
    @settings(max_examples=40, deadline=None)
    def test_any_ciphertext_tamper_detected(self, key, payload, flip):
        from repro.errors import SecurityViolation

        sealed = bytearray(tls_seal(key, payload))
        sealed[-(flip + 1)] ^= 0x01
        with pytest.raises(SecurityViolation):
            tls_open(key, bytes(sealed))


class TestMarshalProperties:
    @given(
        args=st.lists(
            st.one_of(
                st.integers(min_value=-2**31, max_value=2**31),
                st.binary(max_size=256),
                st.text(max_size=64),
                st.none(),
            ),
            max_size=6,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_wire_length_equals_declared_size(self, args):
        # The descriptor is its size: the ring carries, and the channel
        # bills, exactly the marshaled size — header excluded.
        call, size = marshal_call("call", tuple(args), {})
        assert size == wire_size("call", tuple(args), {})
        channel = fresh_channel()
        channel.submit_ring.push(call, size)
        assert len(channel.submit_ring.pop()) == size
        assert channel.bytes_to_guest == size

    @given(value=st.binary(max_size=1024))
    @settings(max_examples=30, deadline=None)
    def test_bytes_size_is_identity(self, value):
        assert encoded_size(value) == len(value)
