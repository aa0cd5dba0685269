"""Timed passes of one workload, in a fresh process.

Run by ``run.py`` as ``python3 perfbench/child.py SPEC.json``; the spec
names the workload, its input directory, the measuring budget and
whether to trace.  Pass 0 is a discarded warm-up; every later pass
starts from the files on disk (load, build the serving object, serve
every request, keep the results) after a ``gc.collect()``.  Answers are
extracted from the kept results after the pass's clock stops.  An
untraced run samples the host's speed throughout (``SpeedProbe``).  In a
traced run, passes alternate untraced/traced so the tracing overhead is
measured against the same process state.  Results go to the spec's
``out`` path as JSON.
"""

from __future__ import annotations

import gc
import json
import resource
import signal
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter, process_time, thread_time
from typing import Any, Dict, List, Optional

from tracing import UNATTRIBUTED, Tracer
from workloads import WORKLOADS, Workload

FAILED = object()


#: how often the speed probe samples the host (untraced runs only)
PROBE_INTERVAL_S = 0.002


def probe_work(table: Dict[int, int]) -> int:
    """A fixed piece of interpreter work: dict updates and integer
    arithmetic, about 40 us at the host's full speed.  It reuses the
    caller's dict, so it allocates no object the garbage collector
    tracks."""
    table.clear()
    total = 0
    for i in range(300):
        table[i & 63] = table.get(i & 63, 0) + i
        total += i * 3 % 7
    return total


class SpeedProbe:
    """Samples how fast the host runs this process, moment by moment.

    On a shared host other tenants slow the processor by up to 2x, in
    spells from a few milliseconds to minutes, so a pass's time measures
    the host as much as the program.  A ``SIGALRM`` handler times
    :func:`probe_work` every ``PROBE_INTERVAL_S``; ``run.py`` weighs each
    pass's CPU time by the speed its probes saw.  Probes are timed in CPU
    time too, so neither counts time the host takes the processor away
    altogether.  The handler runs in the main thread between bytecodes,
    i.e. inside the pass, and each sample's own time is taken back out
    of the pass."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._table: Dict[int, int] = {}
        self._previous: Any = None

    def _sample(self, signum: int, frame: Any) -> None:
        started = thread_time()
        probe_work(self._table)
        self.samples.append(thread_time() - started)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def run_pass(
    workload: Workload, directory: Path, tracer: Optional[Tracer], probe: Optional[SpeedProbe]
) -> Dict[str, Any]:
    root = tracer.root if tracer is not None else nullcontext
    samples = probe.samples if probe is not None else []
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        started, started_cpu, first = perf_counter(), process_time(), len(samples)
        with root():
            state = workload.setup(directory)
        ready, ready_cpu, middle = perf_counter(), process_time(), len(samples)
        results, latencies = [], []
        for request in workload.requests(state):
            begun = perf_counter()
            try:
                with root():
                    results.append(request())
            except Exception:
                traceback.print_exc()
                results.append(FAILED)
            latencies.append(perf_counter() - begun)
        done, done_cpu, last = perf_counter(), process_time(), len(samples)
    finally:
        if tracer is not None:
            tracer.remove()
    record: Dict[str, Any] = {
        "setup_s": ready - started,
        "wall_s": done - ready,
        "setup_cpu_s": ready_cpu - started_cpu,
        "serve_cpu_s": done_cpu - ready_cpu,
        "setup_probes_s": samples[first:middle],
        "serve_probes_s": samples[middle:last],
        "latency_s": latencies,
        "answers": [None if r is FAILED else workload.answer(r) for r in results],
        "traced": tracer is not None,
    }
    if tracer is not None:
        layers = {f"{name}_ms": 1000 * s for name, s in tracer.self_s.items()}
        layers.update(tracer.counts)
        layers.update(workload.layer_counts(state, [r for r in results if r is not FAILED]))
        layers["trace.unattributed_frac"] = tracer.self_s[UNATTRIBUTED] / tracer.root_s
        record["layers"] = layers
    return record


def peak_rss_mb() -> float:
    """This process's peak resident set.  ``VmHWM`` where Linux has it:
    ``ru_maxrss`` survives ``exec`` and would report the parent's peak."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    workload = WORKLOADS[spec["workload"]]
    directory = Path(spec["directory"])
    # a traced run takes no samples: the probe's time would land in the spans
    with nullcontext() if spec["trace"] else SpeedProbe() as probe:
        run_pass(workload, directory, None, probe)
        passes = []
        stop = perf_counter() + spec["seconds"]
        while len(passes) < spec["min_passes"] or perf_counter() < stop:
            traced = spec["trace"] and len(passes) % 2 == 1
            passes.append(run_pass(workload, directory, Tracer() if traced else None, probe))
    extra_layers, extra_answers = (
        workload.extra(directory) if spec["trace"] else ({}, [])
    )
    Path(spec["out"]).write_text(json.dumps({
        "passes": passes,
        "extra_layers": extra_layers,
        "extra_answers": extra_answers,
        "peak_rss_mb": peak_rss_mb(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
