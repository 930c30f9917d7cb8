"""Host-speed calibration: a fixed reference job timed through each pass.

The benchmark runs on a shared host whose speed drifts by tens of percent
over minutes, and that drift moved every reported time more than any
run design could average away. So each pass also times a fixed job of the
benchmark's own code, between its ops: exact ``Fraction`` and Q[lambda]
arithmetic from ``oracles.py``, the same kind of work polybern does, never
polybern itself. A pass's times are reported scaled to a host on which the
job takes ``REFERENCE_S``:

    reported = measured * REFERENCE_S / mean(job times in that pass)

with wall times scaled by the job's wall time and CPU times by its CPU time.

A change to polybern does not touch the job, so a faster program reads
faster. The job runs with the garbage collector off, so the heap polybern
leaves does not slow the job and hide its own cost. Job time is left out
of every op latency and pass time. The summary prints the measured times
and the scale beside the reported ones.

cli-session runs each op as a fresh process, so it runs the job in fresh
processes too:  python3 bench/calibrate.py JOBS  runs one warm-up job and
prints the JSON list of the (wall, CPU) times of the next JOBS jobs.
"""

from __future__ import annotations

import gc
import json
import statistics
import sys
import time

import oracles

# Mean job time on the 2-vCPU Xeon VM the bounds were set on (it drifted
# between about 6.5 and 11.5 ms there).
REFERENCE_S = 0.009
EVERY_S = 0.1       # a job after an op once this much op time has passed


def job() -> tuple[float, float]:
    """Run the reference job once: (wall seconds, CPU seconds)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        wall, cpu = time.perf_counter(), time.process_time()
        oracles.dpb_stirling(-2, 20)
        oracles.kaneko(3, 30)
        return time.perf_counter() - wall, time.process_time() - cpu
    finally:
        if enabled:
            gc.enable()


class Calibration:
    """Reference-job times collected through one pass."""

    def __init__(self):
        self.jobs: list[tuple[float, float]] = []  # (wall, CPU) seconds
        self.since = 0.0  # op time since the last job

    def measure(self, jobs: int = 1) -> None:
        self.jobs += [job() for _ in range(jobs)]
        self.since = 0.0

    def after_op(self, op_s: float) -> None:
        """Run a job once ``EVERY_S`` of op time has passed since the last."""
        self.since += op_s
        if self.since >= EVERY_S:
            self.measure()

    @property
    def wall_s(self) -> float:
        return sum(wall for wall, _ in self.jobs)

    @property
    def cpu_s(self) -> float:
        return sum(cpu for _, cpu in self.jobs)

    def scale(self) -> float:
        """Factor that turns this pass's measured wall seconds into reference seconds."""
        return REFERENCE_S / statistics.mean(wall for wall, _ in self.jobs)

    def cpu_scale(self) -> float:
        """The same for CPU seconds. When the host takes CPU time away from
        the VM, wall time grows and CPU time does not, in the job as in the
        program, so CPU time is scaled by the job's CPU time."""
        return REFERENCE_S / statistics.mean(cpu for _, cpu in self.jobs)


if __name__ == "__main__":
    # The first job of a fresh process also pays for growing its heap, so
    # it warms up and is not reported.
    job()
    print(json.dumps([job() for _ in range(int(sys.argv[1]))]))
