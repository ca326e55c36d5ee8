"""Host-side page cache for delegated file reads.

E1's worst hot path is the redirected read: every 4 KB costs two world
switches plus per-byte channel copies (~305 us vs 6.5 us native).  The
paper's design direction is delegation *avoidance* — keep repeat reads
of CVM-backed files local to the trusted host.  This module is that
cache: pages keyed by ``(CVM inode number, page index)``, filled through
the existing ring transport on the first miss (read-ahead staged in
channel-window-sized batches), evicted LRU, and kept coherent by
write-through at the delegation layer's completion choke point.

Contract with :class:`~repro.core.anception.AnceptionLayer`:

* a **miss** changes nothing — the original call is forwarded
  byte-for-byte through the ring, so cold reads reproduce the classic
  305 us path exactly;
* a **hit** skips both doorbells and the channel copy, paying only the
  calibrated per-page ``cache_hit_ns``;
* every redirected mutation (``write``/``pwrite64``/``writev``/
  ``ftruncate``/``unlink``/CVM reboot) refreshes or invalidates the
  affected pages *before* the next lookup can run — the layer owns the
  choke points, this module owns the page arithmetic;
* crypto-FS files never enter the cache (ciphertext pages would leak
  plaintext offsets; the layer bypasses the cache entirely).

A cached page holds exactly ``data[p * PAGE : min((p+1) * PAGE, size)]``
— the tail page is short.  ``lookup`` only serves a range whose every
overlapping page is present *and* whose file size is known, so a served
read is always byte-identical to what the CVM would have returned.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.perf.costs import PAGE_SIZE


class HostPageCache:
    """LRU page cache keyed by (CVM inode number, page index)."""

    __snapshot__ = "custom"

    def __init__(self, max_pages=1024):
        if max_pages < 1:
            raise ValueError(f"cache needs at least one page, got {max_pages}")
        self.max_pages = max_pages
        self._pages = OrderedDict()
        self._sizes = {}
        self.hits = 0
        self.misses = 0
        self.fill_pages = 0
        self.readahead_pages = 0
        self.write_through_pages = 0
        self.invalidated_pages = 0
        self.evicted_pages = 0

    # -- introspection -----------------------------------------------------

    def __len__(self):
        return len(self._pages)

    def knows(self, ino):
        return ino in self._sizes

    @property
    def lookups(self):
        return self.hits + self.misses

    def hit_rate(self):
        total = self.lookups
        return self.hits / total if total else 0.0

    # -- read side ---------------------------------------------------------

    def lookup(self, ino, offset, length, record=True):
        """Serve ``length`` bytes at ``offset``, or ``None`` on a miss.

        A hit requires the file size to be known and *every* page
        overlapping the (EOF-clamped) range to be cached; anything less
        is a miss and the caller forwards the original call unchanged.
        """
        size = self._sizes.get(ino)
        if size is None:
            return self._miss(record)
        end = min(offset + length, size)
        if offset >= size or length == 0:
            # Reading at/past EOF is a well-defined empty read.
            if record:
                self.hits += 1
            return b""
        first = offset // PAGE_SIZE
        last = (end - 1) // PAGE_SIZE
        if first == last:
            # Single-page hit (the overwhelmingly common shape for
            # 4 KB-and-under reads): slice the cached page directly
            # instead of joining a one-element chunk list.
            page = self._pages.get((ino, first))
            if page is None:
                return self._miss(record)
            self._pages.move_to_end((ino, first))
            if record:
                self.hits += 1
            lo = offset - first * PAGE_SIZE
            return page[lo:lo + (end - offset)]
        chunks = []
        for index in range(first, last + 1):
            page = self._pages.get((ino, index))
            if page is None:
                return self._miss(record)
            chunks.append(page)
        for index in range(first, last + 1):
            self._pages.move_to_end((ino, index))
        if record:
            self.hits += 1
        blob = b"".join(chunks)
        lo = offset - first * PAGE_SIZE
        return blob[lo:lo + (end - offset)]

    def peek(self, ino, offset, length):
        """`lookup` without touching the hit/miss counters."""
        return self.lookup(ino, offset, length, record=False)

    def count_hits(self, n=1):
        self.hits += n

    def _miss(self, record):
        if record:
            self.misses += 1
        return None

    # -- fill side ---------------------------------------------------------

    def fill_window(self, ino, data, offset, length, window_bytes):
        """Cache the demanded range plus channel-window read-ahead.

        ``data`` is the authoritative file content at completion time.
        The demanded pages (covering ``[offset, offset + length)``) count
        as fills; up to one channel window of subsequent pages rides
        along as read-ahead — staged while the doorbell pair for the
        demand miss is already paid for, so it adds no simulated time.
        Returns ``(demand_pages, readahead_pages)`` newly cached.
        """
        size = len(data)
        self._sizes[ino] = size
        if offset >= size:
            return 0, 0
        end = min(offset + max(length, 1), size)
        first = offset // PAGE_SIZE
        demand_last = (end - 1) // PAGE_SIZE
        ahead_pages = max(0, window_bytes // PAGE_SIZE)
        last_page = (size - 1) // PAGE_SIZE
        ahead_last = min(demand_last + ahead_pages, last_page)
        demanded = ahead = 0
        for index in range(first, ahead_last + 1):
            fresh = self._store(ino, index,
                                data[index * PAGE_SIZE:
                                     (index + 1) * PAGE_SIZE])
            if not fresh:
                continue
            if index <= demand_last:
                demanded += 1
            else:
                ahead += 1
        self.fill_pages += demanded
        self.readahead_pages += ahead
        return demanded, ahead

    def _store(self, ino, index, content):
        key = (ino, index)
        fresh = key not in self._pages
        self._pages[key] = bytes(content)
        self._pages.move_to_end(key)
        while len(self._pages) > self.max_pages:
            self._pages.popitem(last=False)
            self.evicted_pages += 1
        return fresh

    # -- coherence side ----------------------------------------------------

    def refresh_ino(self, ino, data):
        """Write-through: re-snapshot every cached page of ``ino``.

        Called after any redirected mutation of the file (write,
        pwrite64, ftruncate, O_TRUNC open ...) with the authoritative
        post-mutation content.  Pages now past EOF are dropped; the rest
        are updated in place.  Returns the number of pages touched.
        """
        if ino not in self._sizes:
            return 0
        size = len(data)
        self._sizes[ino] = size
        touched = 0
        for key in [k for k in self._pages if k[0] == ino]:
            start = key[1] * PAGE_SIZE
            if start >= size:
                del self._pages[key]
                self.invalidated_pages += 1
            else:
                self._pages[key] = bytes(data[start:start + PAGE_SIZE])
                self.write_through_pages += 1
            touched += 1
        return touched

    def invalidate_ino(self, ino):
        """Forget everything about ``ino`` (unlink/rename/stale)."""
        dropped = 0
        for key in [k for k in self._pages if k[0] == ino]:
            del self._pages[key]
            dropped += 1
        self.invalidated_pages += dropped
        self._sizes.pop(ino, None)
        return dropped

    def drop_range(self, ino, offset, length):
        """Evict just the pages overlapping a range (cache.evict site)."""
        if length <= 0:
            return 0
        first = offset // PAGE_SIZE
        last = (offset + length - 1) // PAGE_SIZE
        dropped = 0
        for index in range(first, last + 1):
            if self._pages.pop((ino, index), None) is not None:
                dropped += 1
        self.evicted_pages += dropped
        return dropped

    def clear(self):
        """Drop the whole cache (CVM reboot: the guest FS is rebuilt)."""
        dropped = len(self._pages)
        self.invalidated_pages += dropped
        self._pages.clear()
        self._sizes.clear()
        return dropped

    # -- snapshot / migration ----------------------------------------------

    def __getstate__(self):
        """Serialize with sorted page keys, recency carried separately.

        The page table's iteration order *is* the LRU recency sequence,
        which snapshots must preserve — but serializing in that order
        would make the blob's bytes depend on access history in a way
        that is hard to audit.  The snapshot form is sorted (pages by
        key, so two equal caches serialize identically byte-for-byte)
        plus an explicit recency list that ``__setstate__`` replays.
        """
        state = self.__dict__.copy()
        pages = state.pop("_pages")
        state["_page_table"] = sorted(pages.items())
        state["_page_recency"] = list(pages)
        sizes = state.pop("_sizes")
        state["_size_table"] = sorted(sizes.items())
        return state

    def __setstate__(self, state):
        table = dict(state.pop("_page_table"))
        recency = state.pop("_page_recency")
        sizes = state.pop("_size_table")
        self.__dict__.update(state)
        self._pages = OrderedDict((key, table[key]) for key in recency)
        self._sizes = dict(sizes)

    def export_inos(self, inos):
        """Serialize the given inodes' cached state for a warm migration.

        Returns ``[(ino, [(page_index, content), ...], size), ...]`` for
        every requested ino whose size is known, with each ino's pages
        in their current LRU recency order (least-recent first) so the
        importing cache can replay the same eviction priority.
        """
        wanted = set(inos)
        by_ino = {}
        for (ino, index), page in self._pages.items():
            if ino in wanted:
                by_ino.setdefault(ino, []).append((index, page))
        return [(ino, by_ino.get(ino, []), self._sizes[ino])
                for ino in inos if ino in self._sizes]

    def import_ino(self, ino, size, pages):
        """Adopt exported pages under this cache's (new) inode number.

        The inverse of :meth:`export_inos`, run on the migration target:
        pages arrive in their source recency order and are stored as the
        most-recent entries here (the app is mid-move; its working set
        is hot by definition).  Adoption is not a fill — the fill/
        read-ahead counters describe ring traffic, which a host-mediated
        migration never generates.
        """
        self._sizes[ino] = size
        for index, content in pages:
            self._store(ino, index, content)

    # -- stats -------------------------------------------------------------

    def stats(self):
        return {
            "pages": len(self._pages),
            "max_pages": self.max_pages,
            "files": len(self._sizes),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate(), 4),
            "fill_pages": self.fill_pages,
            "readahead_pages": self.readahead_pages,
            "write_through_pages": self.write_through_pages,
            "invalidated_pages": self.invalidated_pages,
            "evicted_pages": self.evicted_pages,
        }

    def __repr__(self):
        return (
            f"HostPageCache({len(self._pages)}/{self.max_pages} pages, "
            f"{self.hits}h/{self.misses}m)"
        )
