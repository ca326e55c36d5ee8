"""Delegation settings: one frozen record from the CLI down to each lane.

The paper evaluates one delegation setup, synchronous per-call
forwarding through the proxy (Section III, Table I).  The read cache,
the async windows, the binder ring and the CVM pool are settings on top
of it.  :class:`DelegationConfig` names all of them once;
:class:`~repro.core.anception.AnceptionLayer` keeps it as ``config``
and reads it only when it (re)binds a lane, so it travels inside a
snapshot with the world it built.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class DelegationConfig:
    """How the Anception layer delegates; the defaults are the paper's."""

    __snapshot__ = "auto"

    guest_mb: int = 64
    """Memory of each container VM."""
    file_io_on_host: bool = False
    """Ablation: keep file I/O on the host instead of the CVM."""
    ring_depth: int | None = None
    """Delegation ring depth (None: derived from the channel's pages)."""
    read_cache: bool = False
    """Host-side page cache for delegated reads."""
    cache_pages: int = 1024
    """Read-cache capacity in 4 KiB pages."""
    async_delegation: bool = False
    """Write-behind windows for delegated writes."""
    write_behind_depth: int | None = None
    """Write-behind window depth (None: min(32, ring depth))."""
    binder_ring: bool = False
    """Batched windows for delegated oneway binder transactions."""
    binder_ring_depth: int | None = None
    """Binder window depth (None: min(32, ring depth))."""
    cvms: int = 1
    """Container VMs in the pool."""
    placement: str | None = None
    """Pool placement policy (None: by-uid)."""


PAPER = DelegationConfig()
"""The paper's synchronous per-call delegation: the library default."""

FAST = DelegationConfig(read_cache=True, async_delegation=True,
                        binder_ring=True)
"""Read cache, write-behind and binder ring on: the tooling default."""
