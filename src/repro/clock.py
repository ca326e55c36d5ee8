"""Deterministic simulated clock.

All latency numbers in the reproduction are *simulated*: the kernel, the
Anception layer, and the workloads charge costs (in nanoseconds) to a shared
:class:`SimClock`.  Benchmarks then read elapsed simulated time instead of
wall-clock time, which makes every experiment deterministic and independent
of the machine running the test suite.
"""

from __future__ import annotations


NSEC_PER_USEC = 1_000
NSEC_PER_MSEC = 1_000_000
NSEC_PER_SEC = 1_000_000_000


class SimClock:
    """A monotonically increasing nanosecond counter.

    The clock only moves when a component charges time to it; there is no
    background tick.  ``advance`` is the single mutation point so that a
    test can wrap it to trace where time goes.
    """

    __snapshot__ = "auto"

    def __init__(self, start_ns=0):
        self._now_ns = int(start_ns)
        self._charges = []
        self._charge_base = 0
        self._trace_depth = 0
        self._lane_busy = {}
        self._overlap_lane = None
        self._overlap_cursor = 0
        self.faults = None
        """Optional armed :class:`repro.faults.engine.FaultEngine`; a
        plain attribute so hot paths read it without ``getattr``."""
        self.bus = None
        """Optional :class:`repro.obs.TraceBus` observing this clock.
        Observers only *read* the clock; they never advance it."""

    @property
    def now_ns(self):
        """Current simulated time in nanoseconds."""
        return self._now_ns

    @property
    def now_us(self):
        """Current simulated time in microseconds (float)."""
        return self._now_ns / NSEC_PER_USEC

    def advance(self, delta_ns, reason=""):
        """Move time forward by ``delta_ns`` nanoseconds.

        Args:
            delta_ns: non-negative duration to add.
            reason: short label recorded when tracing is enabled.
        """
        delta_ns = int(delta_ns)
        if delta_ns < 0:
            raise ValueError(f"cannot move time backwards ({delta_ns} ns)")
        # Fast path: :meth:`quiet`, written out inline because
        # ``advance`` dominates call counts.  An advance nobody observes
        # is one integer add.
        if self._overlap_lane is None and not self._trace_depth:
            bus = self.bus
            if bus is None or not bus._depth:
                self._now_ns += delta_ns
                return
        if self._overlap_lane is not None:
            # Charges inside an overlap window accrue to the lane cursor,
            # not to host-visible time: the host task keeps running while
            # the lane (the CVM) works.  ``wait_for`` reconciles at fences.
            self._overlap_cursor += delta_ns
            if delta_ns:
                if self._trace_depth:
                    self._charges.append((reason or "unlabelled", delta_ns))
                bus = self.bus
                if bus is not None and bus.enabled:
                    bus.on_charge(
                        reason or "unlabelled", delta_ns, self._overlap_cursor
                    )
            return
        self._now_ns += delta_ns
        if delta_ns:
            if self._trace_depth:
                self._charges.append((reason or "unlabelled", delta_ns))
            bus = self.bus
            if bus is not None and bus.enabled:
                bus.on_charge(reason or "unlabelled", delta_ns, self._now_ns)

    def quiet(self):
        """True when nobody can observe an individual charge.

        No overlap window redirects it, no charge trace records it and
        no bus capture sees it, so a hot path may bill its exact
        integer sum straight into ``_now_ns`` instead of one labelled
        :meth:`advance` per charge.  This is the single dormant test;
        :meth:`advance` carries the one inline copy.
        """
        bus = self.bus
        return (self._overlap_lane is None and not self._trace_depth
                and (bus is None or not bus._depth))

    @property
    def _trace_enabled(self):
        return self._trace_depth > 0

    def enable_trace(self):
        """Start (or nest into) charge recording; returns a marker.

        Calls nest: an inner ``enable_trace``/``disable_trace`` pair
        leaves an outer caller's in-progress trace intact.  The returned
        marker can be passed to :meth:`charges_since` to read only the
        charges recorded after this call.
        """
        self._trace_depth += 1
        if self._trace_depth == 1:
            self._charges = []
            self._charge_base = 0
        return self._charge_base + len(self._charges)

    def disable_trace(self):
        """Leave one level of charge recording (never below zero)."""
        if self._trace_depth > 0:
            self._trace_depth -= 1

    def charges_since(self, marker):
        """Charges recorded since ``marker`` (from :meth:`enable_trace`).

        Markers are *absolute* positions in the charge stream: a
        :meth:`drain_trace` between ``enable_trace`` and this call
        rebases rather than invalidates them, so a nested tracer never
        reads another window's charges by a stale index.  Charges the
        drain already consumed are gone — only the still-recorded tail
        of the marker's window is returned.
        """
        return list(self._charges[max(0, marker - self._charge_base):])

    def drain_trace(self):
        """Return and clear the recorded charges.

        Draining while other tracers hold :meth:`enable_trace` markers
        used to silently corrupt their :meth:`charges_since` slices
        (markers indexed a list that just shrank).  Markers are now
        rebased through ``_charge_base``, so nested windows keep
        resolving to the correct charges after a drain.
        """
        charges, self._charges = self._charges, []
        self._charge_base += len(charges)
        return charges

    def measure(self):
        """Return a context manager measuring elapsed simulated time.

        Example::

            with clock.measure() as span:
                run_workload()
            print(span.elapsed_us)
        """
        return _Span(self)

    # -- overlapped-charge accounting ---------------------------------------

    def overlap(self, lane="cvm"):
        """Context manager: charge time to ``lane`` instead of the host.

        Inside the window every :meth:`advance` accrues to a per-lane
        busy-until cursor (starting at ``max(now, lane's watermark)``)
        while host-visible ``now_ns`` stands still — the simulated
        equivalent of work proceeding on another vCPU.  The host only
        pays when it synchronises via :meth:`wait_for`.  Windows do not
        nest (one lane models one single-threaded drain loop).
        """
        return _OverlapWindow(self, lane)

    def wait_for(self, lane, reason=""):
        """Advance host time to ``lane``'s watermark (a fence).

        Returns the nanoseconds the host actually waited (0 when the
        lane already finished before the host caught up).
        """
        if self._overlap_lane is not None:
            raise ValueError("cannot wait_for a lane inside an overlap "
                             "window")
        backlog = self.lane_backlog_ns(lane)
        if backlog:
            self.advance(backlog, reason or f"wait:{lane}")
        return backlog

    def lane_backlog_ns(self, lane):
        """How far ``lane``'s watermark runs ahead of host time."""
        return max(0, self._lane_busy.get(lane, 0) - self._now_ns)

    def __repr__(self):
        return f"SimClock(now={self._now_ns} ns)"


class _OverlapWindow:
    """Redirects ``advance`` charges into a lane for the ``with`` body."""

    __slots__ = ("_clock", "_lane")

    def __init__(self, clock, lane):
        self._clock = clock
        self._lane = lane

    def __enter__(self):
        clock = self._clock
        if clock._overlap_lane is not None:
            raise ValueError("overlap windows do not nest")
        clock._overlap_lane = self._lane
        clock._overlap_cursor = max(
            clock._now_ns, clock._lane_busy.get(self._lane, 0)
        )
        return self

    def __exit__(self, exc_type, exc, tb):
        # Commit the cursor only on clean exit: a window body that
        # raised (an injected wb.*/binder.* fault escaping mid-drain)
        # never finished the work it was charging, so the lane's busy
        # watermark stays at its pre-window value instead of billing
        # phantom time the next fence would have to wait out.
        clock = self._clock
        if exc_type is None:
            clock._lane_busy[self._lane] = clock._overlap_cursor
        clock._overlap_lane = None
        return False


class _Span:
    """Context manager capturing a [start, end] window on a SimClock."""

    def __init__(self, clock):
        self._clock = clock
        self.start_ns = None
        self.end_ns = None

    def __enter__(self):
        self.start_ns = self._clock.now_ns
        return self

    def __exit__(self, exc_type, exc, tb):
        self.end_ns = self._clock.now_ns
        return False

    @property
    def elapsed_ns(self):
        end = self.end_ns if self.end_ns is not None else self._clock.now_ns
        return end - self.start_ns

    @property
    def elapsed_us(self):
        return self.elapsed_ns / NSEC_PER_USEC

    @property
    def elapsed_ms(self):
        return self.elapsed_ns / NSEC_PER_MSEC
