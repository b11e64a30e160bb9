"""Probes the benchmark installs around the library's public calls.

Every run installs a :class:`StepClock` on ``VectorHVACEnv.step``.  It
stamps each fleet step, which gives the set-up time (workload start to
the end of the first fleet step), the tick intervals and the env-steps
served.  A traced run also installs a :class:`LayerTracer`, which
records one ``repro.obs.Tracer`` span per fleet-level call into each
layer.  Both read a :class:`CalibratedClock`.

Functions are wrapped at the module attributes their callers look them
up through, methods on the class that defines them.  :class:`Patches`
puts every original back when the run ends.
"""

from __future__ import annotations

import functools
import json
import signal
import statistics
import time
import weakref
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from timing import arg_sum, self_times

#: Seconds between speed probes, and how many recent probes set the rate.
PROBE_EVERY_S = 0.02
PROBE_WINDOW = 3
#: :func:`speed_probe`'s duration on the reference core: a 2.1 GHz Xeon
#: vCPU whose sibling hyperthread is idle.
PROBE_REFERENCE_S = 2.0e-4

_PROBE_MATRIX = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)
_PROBE_VECTOR = np.linspace(-2.0, 2.0, 256)


def speed_probe() -> float:
    """Seconds a fixed mix of interpreter and small-array work takes now.

    The mix resembles the library's hot paths, which contention on a
    sibling hyperthread slows alike: Python objects built and looked up
    (the gateway's per-request loop) and small numpy operations (the
    fleet step and the Q-network).  Under such contention the serving
    tick's time over this probe's varied by about 3% across 4 s
    windows, against 27% for the tick alone.
    """
    start = time.perf_counter()
    table = {}
    for k in range(500):
        table[k] = [k, str(k)]
        table.get(k - 1)
    for _ in range(5):
        _PROBE_MATRIX @ _PROBE_MATRIX
        (np.tanh(_PROBE_VECTOR) * _PROBE_VECTOR + np.maximum(_PROBE_VECTOR, 0.5)).sum()
    return time.perf_counter() - start


class CalibratedClock:
    """Wall time rescaled to the speed of the reference core.

    On a shared host a core can run at little more than half speed for
    seconds to minutes while a neighbour works on its sibling thread; a wall-clock
    time then measures the neighbour as much as the code.  While the
    clock is entered, a timer signal runs :func:`speed_probe` every
    ``PROBE_EVERY_S`` on the workload's own thread.  Between two probes
    the clock advances ``PROBE_REFERENCE_S / p`` seconds per wall
    second, where ``p`` is the median duration of the last
    ``PROBE_WINDOW`` probes, and the probes' own time is left out.  A
    reading is thus the time the work would have taken on the reference
    core, and stays put when the host's load changes.
    """

    def __init__(self, *, raw=time.perf_counter, probe=speed_probe,
                 window: int = PROBE_WINDOW) -> None:
        self.raw = raw
        self.probe = probe
        self.window = window
        # (duration, raw end) per probe; only sample() appends, in one step,
        # so a signal landing inside a reading cannot tear it.
        self.probes: List[Tuple[float, float]] = []
        self._folded = 0
        self._base = 0.0  # calibrated time at raw time self._since
        self._since = 0.0
        self._rate = 1.0
        self.sample()
        self()

    def sample(self) -> None:
        """Time one probe; the timer signal calls this."""
        duration = self.probe()
        self.probes.append((duration, self.raw()))

    def __call__(self) -> float:
        now = self.raw()
        probes = self.probes
        # Probes that ended after `now` (a signal during this reading) wait.
        while self._folded < len(probes) and probes[self._folded][1] <= now:
            duration, end = probes[self._folded]
            if self._folded:
                self._base += (end - duration - self._since) * self._rate
            recent = [d for d, _ in probes[max(0, self._folded + 1 - self.window):self._folded + 1]]
            self._rate = PROBE_REFERENCE_S / statistics.median(recent)
            self._since = end
            self._folded += 1
        return self._base + (now - self._since) * self._rate

    def __enter__(self) -> "CalibratedClock":
        self._handler = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._handler)


class Patches:
    """Replaces attributes of modules and classes until :meth:`restore`."""

    def __init__(self) -> None:
        self.saved: List[Tuple[object, str, object]] = []

    def wrap(self, owner, name: str, make: Callable) -> None:
        """Replace ``owner.name`` with ``make(original)``.

        ``name`` must be defined on ``owner`` itself, not inherited, so
        restoring leaves no shadowing attribute behind.
        """
        original = vars(owner)[name]
        self.saved.append((owner, name, original))
        setattr(owner, name, make(original))

    def restore(self) -> None:
        while self.saved:
            owner, name, original = self.saved.pop()
            setattr(owner, name, original)


class StepClock:
    """Stamps every fleet step of one workload.

    ``intervals_s`` are the times between consecutive step starts of one
    fleet: each is a whole control cycle (decide, step, bookkeeping).
    ``stamps`` holds the clock reading at which each interval ended.
    ``env_steps`` counts the active envs of every step after the first.
    """

    def __init__(self, *, clock=time.perf_counter) -> None:
        self.clock = clock
        self.first_end: Optional[float] = None
        self.intervals_s: List[float] = []
        self.stamps: List[float] = []
        self.env_steps = 0
        self._last: Optional[Tuple[weakref.ref, float]] = None

    def observe(self, fleet, start: float, end: float, active: int) -> None:
        if self._last is not None and self._last[0]() is fleet:
            self.intervals_s.append(start - self._last[1])
            self.stamps.append(start)
        self._last = (weakref.ref(fleet), start)
        if self.first_end is None:
            self.first_end = end
        else:
            self.env_steps += active


class LayerTracer:
    """Records one span per fleet-level call into each library layer.

    Two layers are called per building rather than per fleet.
    ``ForecastProvider.draw_noise`` runs once per env and step, so it is
    counted, not timed.  ``generate_weather`` runs once per building, so
    its time is summed into one ``weather.generate`` span per
    ``build_fleet`` call, placed at the start of the build.
    """

    def __init__(self, tracer, clock=time.perf_counter) -> None:
        self.tracer = tracer
        self.clock = clock
        self.forecast_draws = 0
        self._stepped = weakref.WeakSet()
        self._weather = [0.0, 0, 0]  # seconds, samples, calls in this build

    def _record(self, name: str, start: float, end: float, **attrs) -> None:
        self.tracer.record(
            name, start=start, duration=end - start, cat=name.split(".")[0], **attrs
        )

    def span(self, name: str, attrs: Optional[Callable] = None) -> Callable:
        """Wrapper factory timing each call as a span called ``name``.

        ``attrs(args, result)`` returns the span's arguments, such as the
        rows a call handled.
        """

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                start = self.clock()
                result = original(*args, **kwargs)
                end = self.clock()
                self._record(name, start, end, **(attrs(args, result) if attrs else {}))
                return result

            return wrapper

        return make

    def weather(self, original):
        @functools.wraps(original)
        def generate_weather(*args, **kwargs):
            start = self.clock()
            series = original(*args, **kwargs)
            acc = self._weather
            acc[0] += self.clock() - start
            acc[1] += len(series)
            acc[2] += 1
            return series

        return generate_weather

    def build(self, original):
        @functools.wraps(original)
        def build_fleet(*args, **kwargs):
            self._weather = [0.0, 0, 0]
            start = self.clock()
            envs = original(*args, **kwargs)
            end = self.clock()
            self._record("sim.build", start, end, envs=len(envs))
            seconds, samples, calls = self._weather
            self._record(
                "weather.generate", start, start + seconds, samples=samples, calls=calls
            )
            return envs

        return build_fleet

    def draw_noise(self, original):
        @functools.wraps(original)
        def draw_noise(provider):
            self.forecast_draws += 1
            return original(provider)

        return draw_noise

    def step(self, fleet, start: float, end: float, active: int) -> None:
        name = "sim.step" if fleet in self._stepped else "sim.first_step"
        self._stepped.add(fleet)
        self._record(name, start, end, env_steps=active)


def _clocked_step(step_clock: StepClock, layers: Optional[LayerTracer]):
    def make(original):
        @functools.wraps(original)
        def step(fleet, actions):
            start = step_clock.clock()
            out = original(fleet, actions)
            end = step_clock.clock()
            active = int(out[3].active.sum())
            if layers is not None:
                layers.step(fleet, start, end, active)
            step_clock.observe(fleet, start, end, active)
            return out

        return step

    return make


def _rows(args, result) -> dict:
    return {"rows": len(args[1])}


def _written(args, path) -> dict:
    return {"bytes": path.stat().st_size}


def _read(args, payload) -> dict:
    # The parsed JSON, re-encoded compactly the way the store writes it.
    size = 0 if payload is None else len(json.dumps(payload, separators=(",", ":")))
    return {"bytes": size}


def install(
    patches: Patches, step_clock: StepClock, layers: Optional[LayerTracer] = None
) -> None:
    """Wrap the library's calls; ``patches.restore()`` undoes every wrap."""
    import repro.sim
    import repro.sim.campaign
    import repro.sim.scenarios
    from repro.core import DQNAgent
    from repro.eval.vector_runner import PerEnvPolicy
    from repro.faults import FaultyVectorHVACEnv
    from repro.serve import FleetGateway, MicroBatcher
    from repro.store import ExperimentStore
    from repro.weather.forecast import ForecastProvider

    fleet_class = repro.sim.VectorHVACEnv
    patches.wrap(fleet_class, "step", _clocked_step(step_clock, layers))
    if layers is None:
        return
    span = layers.span
    patches.wrap(repro.sim.scenarios, "generate_weather", layers.weather)
    for module in (repro.sim, repro.sim.campaign):
        patches.wrap(module, "build_fleet", layers.build)
    patches.wrap(fleet_class, "__init__", span("sim.init", _rows))
    patches.wrap(FaultyVectorHVACEnv, "step", span("faults.step"))
    patches.wrap(ForecastProvider, "draw_noise", layers.draw_noise)
    patches.wrap(DQNAgent, "select_actions", span("core.infer", _rows))
    patches.wrap(DQNAgent, "store_batch", span("core.ingest", lambda a, n: {"rows": n}))
    patches.wrap(
        DQNAgent, "learn_batch", span("core.learn", lambda a, losses: {"steps": len(losses)})
    )
    patches.wrap(FleetGateway, "tick", span("serve.tick"))
    patches.wrap(MicroBatcher, "flush", span("serve.flush"))
    patches.wrap(PerEnvPolicy, "select_actions", span("eval.controller", _rows))
    for name in ("put_cell", "put_artifact", "save_checkpoint"):
        patches.wrap(ExperimentStore, name, span("store.write", _written))
    for name in ("get_cell", "get_artifact", "load_checkpoint"):
        patches.wrap(ExperimentStore, name, span("store.read", _read))


#: Serving counters a workload reports from its ``ServeStats``; zero where
#: the workload serves nothing.
SERVE_COUNTERS = (
    "serve.flushes",
    "serve.requests",
    "serve.request_p50_ms",
    "serve.fallbacks",
    "serve.retries",
    "serve.errors",
)


def layer_metrics(
    trace_events: List[dict], forecast_draws: int, serve: Dict[str, float]
) -> Dict[str, float]:
    """Per-layer metrics from one run's Chrome trace and counters."""
    spans = self_times(trace_events)

    def own(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return int(spans.get(name, {}).get("count", 0))

    steps = ("sim.first_step", "sim.step")
    metrics = {
        "weather.generate_s": own("weather.generate"),
        "weather.samples": arg_sum(trace_events, "weather.generate", "samples"),
        "sim.build_s": own("sim.build"),
        "sim.init_s": own("sim.init"),
        "sim.first_step_s": own("sim.first_step"),
        "sim.step_s": own("sim.step"),
        "sim.step_calls": sum(calls(s) for s in steps),
        "sim.env_steps": sum(arg_sum(trace_events, s, "env_steps") for s in steps),
        "sim.forecast_draws": forecast_draws,
        "faults.step_s": own("faults.step"),
        "core.infer_s": own("core.infer"),
        "core.infer_rows": arg_sum(trace_events, "core.infer", "rows"),
        "core.infer_calls": calls("core.infer"),
        "core.ingest_s": own("core.ingest"),
        "core.ingest_rows": arg_sum(trace_events, "core.ingest", "rows"),
        "core.learn_s": own("core.learn"),
        "core.learn_steps": arg_sum(trace_events, "core.learn", "steps"),
        "serve.tick_self_s": own("serve.tick"),
        "serve.flush_self_s": own("serve.flush"),
        "eval.controller_s": own("eval.controller"),
        "eval.controller_calls": calls("eval.controller"),
        "store.write_s": own("store.write"),
        "store.writes": calls("store.write"),
        "store.write_bytes": arg_sum(trace_events, "store.write", "bytes"),
        "store.read_s": own("store.read"),
        "store.read_bytes": arg_sum(trace_events, "store.read", "bytes"),
    }
    metrics.update({name: serve.get(name, 0) for name in SERVE_COUNTERS})
    return metrics
