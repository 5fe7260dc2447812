"""Speed gauge: a fixed pure-Python load that shares the measured command's
core and tells how fast that core is running right now.

The benchmark runs on a few cores of a shared host whose speed drifts by
15-20% over tens of seconds, because other jobs on the host contend for the
same physical cores and caches.  The drift differs from core to core, so a
gauge on another core does not follow it; one on the same core does.  So the
benchmark pins the command and the gauge to one core.  The gauge runs
``chunk`` (about 4 ms of processor time), records when it ended, how much
processor time it took and the gauge's processor time so far, and sleeps
``SLEEP_S``, so that it holds the core about 5% of the time.  A chunk that
runs between the command's time slices meets the same contention as the
command; a cache-resident chunk tracks it better than a memory-bound one.

``Gauge.measure(t0, t1)`` gives, for an interval of ``time.monotonic_ns``:

* the slowdown factor: the mean processor time of the chunks that ended in
  the interval divided by ``REFERENCE_NS`` (1.0 at the reference speed, 1.2
  when the core runs 20% slow);
* the processor time the gauge itself took from the core in the interval.

The benchmark takes the gauge's time, and the time the hypervisor kept the
core (``Gauge.stolen_ns``), off the command's elapsed time and divides by the
factor, so its times read as seconds at the reference speed.
The gauge does not touch ``optrees``: no change to the program can move it.

Usage (the benchmark starts it): python3 perfbench/gauge.py OUT_FILE CPU
"""

from __future__ import annotations

import bisect
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

# Processor time of one chunk at the reference speed: about this machine's
# mean while it shares a core with a command (see README.md).
REFERENCE_NS = 4_500_000
SLEEP_S = 0.08
# chunk end (monotonic ns), chunk processor ns, gauge processor ns so far
RECORD = struct.Struct("<qqq")
# The gauge stops by itself when its parent has gone or after this long.
MAX_LIFE_S = 1200
# A short interval is widened to this many chunks around its middle.
MIN_CHUNKS = 20
# Unit of the time columns of /proc/stat.
TICK_HZ = os.sysconf("SC_CLK_TCK")


def chunk() -> int:
    """A fixed mix of the operations combinatorial Python code spends its
    time on: tuple keys into dicts, small-int arithmetic, sorting."""
    table: dict = {}
    acc = 0
    for i in range(4500):
        key = (i % 31, i % 17, i & 7)
        table[key] = table.get(key, 0) + i
        acc += (i * i) % 13
    for k in sorted(table, key=lambda k: (table[k], k)):
        acc ^= hash(k) & 0xFFFF
    return acc


def gauge_main(out_path: str, cpu: int) -> int:
    os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    deadline = time.monotonic() + MAX_LIFE_S
    with open(out_path, "ab", buffering=0) as out:
        while os.getppid() == parent and time.monotonic() < deadline:
            c0 = time.process_time_ns()
            chunk()
            c1 = time.process_time_ns()
            out.write(RECORD.pack(time.monotonic_ns(), c1 - c0, c1))
            time.sleep(SLEEP_S)
    return 0


class Gauge:
    """The gauge process, seen from the benchmark.  Use as a context
    manager: the process is stopped and waited for on every way out."""

    def __init__(self, path: Path):
        self.path = path
        self.cpu = max(os.sched_getaffinity(0))
        self.proc: subprocess.Popen | None = None
        self.offset = 0
        self.ends: list[int] = []
        self.chunks: list[int] = []
        self.totals: list[int] = []

    def __enter__(self) -> "Gauge":
        self.path.unlink(missing_ok=True)
        self.path.touch()
        self.proc = subprocess.Popen([sys.executable, __file__,
                                      str(self.path), str(self.cpu)])
        start = time.monotonic()
        while self._read() < 3:   # running and past its first chunks
            if self.proc.poll() is not None or time.monotonic() - start > 30:
                raise RuntimeError("the speed gauge did not start")
            time.sleep(0.05)
        return self

    def __exit__(self, *exc) -> None:
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.proc = None

    def stolen_ns(self) -> int:
        """Time the hypervisor has kept the gauge's core from this machine
        since boot (the steal column of ``/proc/stat``; 0 where there is
        none).  It passes on the clock but in no process's processor time."""
        try:
            with open("/proc/stat", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith(f"cpu{self.cpu} "):
                        return int(line.split()[8]) * 1_000_000_000 // TICK_HZ
        except (OSError, IndexError, ValueError):
            pass
        return 0

    def pin(self):
        """Confine the calling process to the gauge's core (a ``preexec_fn``
        for the measured command)."""
        os.sched_setaffinity(0, {self.cpu})

    def _read(self) -> int:
        with open(self.path, "rb") as fh:
            fh.seek(self.offset)
            data = fh.read()
        whole = len(data) - len(data) % RECORD.size
        for end, chunk_ns, total_ns in RECORD.iter_unpack(data[:whole]):
            self.ends.append(end)
            self.chunks.append(chunk_ns)
            self.totals.append(total_ns)
        self.offset += whole
        return len(self.ends)

    def _total_at(self, t_ns: int) -> int:
        """The gauge's processor time at its last record before ``t_ns``."""
        i = bisect.bisect_right(self.ends, t_ns)
        return self.totals[i - 1] if i else 0

    def measure(self, t0_ns: int, t1_ns: int) -> tuple[float, float]:
        """(slowdown factor, gauge processor seconds) between two
        ``time.monotonic_ns`` readings."""
        self._read()
        if self.proc is None or self.proc.poll() is not None:
            raise RuntimeError("the speed gauge stopped")
        lo = bisect.bisect_left(self.ends, t0_ns)
        hi = bisect.bisect_right(self.ends, t1_ns)
        if hi - lo < MIN_CHUNKS:
            mid = (lo + hi) // 2
            lo = max(0, min(mid - MIN_CHUNKS // 2, len(self.ends) - MIN_CHUNKS))
            hi = lo + MIN_CHUNKS
        inside = self.chunks[lo:hi]
        factor = sum(inside) / len(inside) / REFERENCE_NS
        taken = (self._total_at(t1_ns) - self._total_at(t0_ns)) / 1e9
        return factor, taken


if __name__ == "__main__":
    sys.exit(gauge_main(sys.argv[1], int(sys.argv[2])))
