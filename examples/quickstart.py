#!/usr/bin/env python
"""Quickstart: boot an Anception device and run a protected app.

This is the five-minute tour: create the two worlds, install the secure
banking app, type credentials through the (host-side) UI, and watch where
every byte ends up — app secrets on the host, app storage in the CVM,
only ciphertext anywhere the container can see.

Run:  python examples/quickstart.py
"""

from repro.kernel.process import Credentials
from repro.workloads.apps import run_banking_session
from repro.world import AnceptionWorld, NativeWorld


def main():
    print("=== Booting an Anception device ===")
    world = AnceptionWorld()
    print(f"  host services : {sorted(world.system.services)}")
    print(f"  CVM  services : {sorted(world.cvm.android.services)}")
    window = world.cvm.hypervisor.guest_window
    print(f"  CVM memory    : frames [{window.start}, {window.stop}) "
          f"({len(window) * 4096 // (1024 * 1024)} MB)")

    print("\n=== Running the banking app (Listing 1) ===")
    running, result, bank = run_banking_session(
        world, username="alice", password="hunter2"
    )
    print(f"  login result  : {result}")

    print("\n=== Where did everything end up? ===")
    secret = running.ctx.secret_in_memory
    in_memory = running.task.address_space.read(
        secret["address"], secret["length"], need_prot=0
    )
    print(f"  secret in host-side app memory : {in_memory!r}")

    root = Credentials(0)
    statement = "/data/data/com.bank.secure/statement.enc"
    print(f"  statement on host filesystem   : "
          f"{world.kernel.vfs.exists(statement, root)}")
    print(f"  statement in CVM filesystem    : "
          f"{world.cvm.kernel.vfs.exists(statement, root)}")
    blob = bytes(world.cvm.kernel.vfs.resolve(statement, root).data)
    print(f"  CVM sees plaintext balance?    : {b'balance' in blob}")
    print(f"  password ever plaintext on wire: "
          f"{bank.saw_plaintext('hunter2')}")

    print("\n=== The same app on stock Android, for comparison ===")
    native = NativeWorld()
    _running, result, _bank = run_banking_session(native)
    print(f"  login result  : {result}")
    print("  (same app, unmodified - Anception is transparent)")

    channel = world.anception.channel
    print("\n=== Redirection statistics ===")
    print(f"  decisions     : {dict(world.anception.decisions)}")
    print(f"  channel       : {channel.transfers} transfers, "
          f"{channel.bytes_to_guest} bytes to guest")

    print("\n=== Anatomy of one redirected 4 KB write (Table I row 2) ===")
    from repro.kernel import vfs
    from repro.perf.trace import breakdown, format_breakdown

    fd = running.ctx.libc.open(
        running.ctx.data_path("traced.bin"), vfs.O_WRONLY | vfs.O_CREAT
    )
    _result, totals = breakdown(
        world.clock, running.ctx.libc.write, fd, b"x" * 4096
    )
    print(format_breakdown(totals))


if __name__ == "__main__":
    main()
