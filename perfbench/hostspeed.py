"""Host-speed probe: timings in seconds at a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed swings
by up to a half from second to second (a pure-Python loop alternates
between two speeds in blocks of about 0.4 s) and drifts over minutes.
Wall time alone therefore measures the neighbours as much as the
program.  This module samples the host's speed *while the program
runs*: an interval timer fires every :data:`INTERVAL` seconds and its
``SIGALRM`` handler, which runs in the main thread between bytecodes,
times :func:`_probe`, a fixed pure-Python loop of about 40 us.

A timing over ``[start, end]`` is then reported as its wall seconds
times ``REFERENCE / p``, where ``p`` is the mean probe time over the
same interval (samples above :data:`OUTLIER` times their median --
the probe preempted or waiting on the GIL -- left out) and
:data:`REFERENCE` a fixed probe time.  The program's code is not
touched and the probe does not depend on it: a program that does more
work still takes more reference seconds; a host that runs slower for a
while does not.  The probe costs about 0.5% of the time.

Everything here is standard library only, so :func:`install` can run
before the program (and numpy) is imported.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL = 0.01
"""Seconds between probes."""

REFERENCE = 40e-6
"""The probe time that defines reference speed (seconds): about the
probe's median on the 2-core host the figures in RESULTS.md were taken
on, so reference seconds read close to wall seconds there."""

OUTLIER = 3.0
"""Probe samples above this multiple of the median are left out."""

MIN_SAMPLES = 5
"""An interval with fewer probes uses the mean over the whole run."""

_clock = time.perf_counter
_starts: list[float] = []
_seconds: list[float] = []
_cumulative: list[float] = []
"""Running sum of ``_seconds``, for :func:`elapsed`."""
_previous = None


def _probe() -> None:
    table: dict[int, int] = {}
    for i in range(300):
        key = i & 63
        table[key] = table.get(key, 0) + i


def _handler(signum, frame) -> None:
    started = _clock()
    _probe()
    seconds = _clock() - started
    _seconds.append(seconds)
    _cumulative.append((_cumulative[-1] if _cumulative else 0.0) + seconds)
    _starts.append(started)  # last: below len(_starts) all lists agree


def install() -> None:
    """Start probing (main thread only)."""
    global _previous
    _previous = signal.signal(signal.SIGALRM, _handler)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)


def uninstall() -> None:
    """Stop probing; the samples taken so far stay."""
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    if _previous is not None:
        signal.signal(signal.SIGALRM, _previous)


def _mean(values: list[float]) -> float | None:
    if len(values) < MIN_SAMPLES:
        return None
    limit = OUTLIER * statistics.median(values)
    kept = [value for value in values if value <= limit]
    return statistics.fmean(kept)


def _window(start: float, end: float) -> list[float]:
    low = bisect.bisect_left(_starts, start)
    high = bisect.bisect_right(_starts, end)
    return _seconds[low:high]


def count(start: float, end: float) -> int:
    """Probes taken over ``[start, end]``."""
    return len(_window(start, end))


def mean_probe(start: float = float("-inf"),
               end: float = float("inf")) -> float | None:
    """Mean probe seconds over ``[start, end]`` (``None``: too few)."""
    return _mean(_window(start, end))


def elapsed(start: float) -> float:
    """Reference seconds since ``start``, cheap enough to poll from
    any thread: the probes' plain running mean, no outliers left out
    (wall seconds until there are :data:`MIN_SAMPLES`)."""
    now = _clock()
    high = len(_starts)
    low = bisect.bisect_left(_starts, start, 0, high)
    if high - low < MIN_SAMPLES:
        return now - start
    total = _cumulative[high - 1] - (_cumulative[low - 1] if low else 0.0)
    return (now - start) * REFERENCE * (high - low) / total


def reference_seconds(start: float, end: float) -> float:
    """Wall time ``end - start`` in reference seconds."""
    probe = mean_probe(start, end) or mean_probe()
    if probe is None:
        raise RuntimeError("no host-speed probes were taken")
    return (end - start) * REFERENCE / probe
