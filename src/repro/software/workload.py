"""Workload models (section 3.5.1).

Two launch styles reproduce the thesis's experiments:

* :class:`SeriesLauncher` — chapter 5: fixed sequences of operations
  ("series") launched at deterministic intervals; each series is carried
  out by a fresh client and runs its operations back to back.
* :class:`OpenLoopWorkload` — chapters 6/7: a time-varying population of
  clients launching operations stochastically; arrivals form an
  inhomogeneous Poisson process whose rate is
  ``active_clients(t) * per_client_rate`` with the operation type drawn
  from an :class:`OperationMix`.

:class:`WorkloadCurve` holds the hourly client-population curves of
Figs 3-10 and 6-5..6-7.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

from repro.core.engine import Simulator
from repro.software.cascade import CascadeRunner
from repro.software.client import Client
from repro.software.operation import Operation

HOUR = 3600.0


class WorkloadCurve:
    """Piecewise-linear client population over the day.

    Parameters
    ----------
    hourly:
        24 population samples, one per hour (GMT); values between the
        hour marks are linearly interpolated and the curve wraps at
        midnight.
    """

    def __init__(self, hourly: Sequence[float]) -> None:
        if len(hourly) != 24:
            raise ValueError(f"need 24 hourly samples, got {len(hourly)}")
        if any(v < 0 for v in hourly):
            raise ValueError("populations cannot be negative")
        self.hourly = [float(v) for v in hourly]

    def at(self, t_seconds: float) -> float:
        """Population at an absolute simulation time (wraps daily)."""
        h = (t_seconds / HOUR) % 24.0
        i = int(h)
        frac = h - i
        return self.hourly[i] * (1 - frac) + self.hourly[(i + 1) % 24] * frac

    def peak(self) -> Tuple[int, float]:
        """(hour, population) of the daily peak."""
        i = max(range(24), key=lambda k: self.hourly[k])
        return i, self.hourly[i]

    def scaled(self, factor: float) -> "WorkloadCurve":
        return WorkloadCurve([v * factor for v in self.hourly])

    @classmethod
    def business_hours(
        cls,
        peak: float,
        start_hour: float,
        end_hour: float,
        ramp_hours: float = 2.0,
        base: float = 0.0,
    ) -> "WorkloadCurve":
        """A trapezoidal business-day curve in local->GMT hours.

        Population ramps from ``base`` to ``peak`` over ``ramp_hours``
        beginning at ``start_hour``, stays flat, then ramps down to reach
        ``base`` at ``end_hour``.  Hours wrap modulo 24 (for offices whose
        GMT window crosses midnight).
        """
        vals = []
        span = (end_hour - start_hour) % 24.0
        for h in range(24):
            x = (h - start_hour) % 24.0
            if x >= span:
                v = base
            elif x < ramp_hours:
                v = base + (peak - base) * (x / ramp_hours)
            elif x > span - ramp_hours:
                v = base + (peak - base) * ((span - x) / ramp_hours)
            else:
                v = peak
            vals.append(v)
        return cls(vals)


class OperationMix:
    """Weighted distribution over operation names (Fig 3-10 right)."""

    time_varying = False

    def __init__(self, weights: Mapping[str, float]) -> None:
        if not weights:
            raise ValueError("operation mix cannot be empty")
        total = sum(weights.values())
        if total <= 0:
            raise ValueError("operation mix needs positive total weight")
        self.weights = {k: v / total for k, v in weights.items()}
        self._names = list(self.weights)
        cum = []
        acc = 0.0
        for n in self._names:
            acc += self.weights[n]
            cum.append(acc)
        self._cum = cum

    def draw(self, rng: random.Random, t: float | None = None) -> str:
        i = bisect.bisect_left(self._cum, rng.random())
        return self._names[min(i, len(self._names) - 1)]

    def fraction(self, name: str, t: float | None = None) -> float:
        return self.weights.get(name, 0.0)


class HourlyMix:
    """An operation mix that fluctuates through the day (Fig 3-10 right).

    The thesis's Application X example: the morning population mostly
    logs in and searches, the evening population mostly saves, opens and
    filters.  ``anchors`` maps GMT hours to mixes; the mix in force at
    time ``t`` is the latest anchor at or before ``t``'s hour (wrapping
    at midnight).
    """

    time_varying = True

    def __init__(self, anchors: Mapping[float, OperationMix]) -> None:
        if not anchors:
            raise ValueError("need at least one anchor mix")
        for h in anchors:
            if not 0.0 <= h < 24.0:
                raise ValueError(f"anchor hour {h} outside [0, 24)")
        self._hours = sorted(anchors)
        self._mixes = [anchors[h] for h in self._hours]
        names = set()
        for m in self._mixes:
            names.update(m.weights)
        self.weights = {n: max(m.fraction(n) for m in self._mixes)
                        for n in names}  # coverage view for validation

    def mix_at(self, t: float) -> OperationMix:
        h = (t / HOUR) % 24.0
        idx = bisect.bisect_right(self._hours, h) - 1
        return self._mixes[idx]  # -1 wraps to the last anchor of the day

    def draw(self, rng: random.Random, t: float | None = None) -> str:
        return self.mix_at(t or 0.0).draw(rng)

    def fraction(self, name: str, t: float | None = None) -> float:
        if t is None:
            # time-averaged fraction over the day (fluid-solver view)
            return sum(self.mix_at(h * HOUR).fraction(name)
                       for h in range(24)) / 24.0
        return self.mix_at(t).fraction(name)


@dataclass
class SeriesSpec:
    """A named sequence of operations launched as one unit (section 5.2.2)."""

    name: str
    operations: List[Operation]


class SeriesLauncher:
    """Launch series of operations at fixed intervals (chapter 5).

    Every interval a *new client* starts the series; operations inside a
    series run sequentially.  The launcher tracks the number of
    concurrently running series — the "concurrent clients" of Fig 5-6.
    """

    def __init__(
        self,
        sim: Simulator,
        runner: CascadeRunner,
        dc_name: str,
        application: str = "CAD",
        seed: int | None = None,
    ) -> None:
        self.sim = sim
        self.runner = runner
        self.dc_name = dc_name
        self.application = application
        self.active_series = 0
        self.completed_series = 0
        self._counter = 0
        self._seed = seed

    def schedule_series(
        self, series: SeriesSpec, interval: float, until: float, first_at: float = 0.0
    ) -> None:
        """Launch one instance of ``series`` every ``interval`` seconds."""
        if interval <= 0:
            raise ValueError("series interval must be positive")
        t = first_at
        while t < until:
            launch_time = t
            self.sim.schedule(launch_time, lambda now, s=series: self._start(s, now))
            t += interval

    def _start(self, series: SeriesSpec, now: float) -> None:
        self._counter += 1
        client = Client(
            f"{self.dc_name}.client{self._counter}",
            self.dc_name,
            seed=None if self._seed is None else self._seed + self._counter,
        )
        self.sim.add_holon(client)
        self.active_series += 1

        ops = series.operations

        def run_next(index: int, t: float) -> None:
            if index >= len(ops):
                self.active_series -= 1
                self.completed_series += 1
                return
            self.runner.launch(
                ops[index],
                client,
                t,
                application=self.application,
                on_complete=lambda rec: run_next(index + 1, rec.end),
            )

        run_next(0, now)


class OpenLoopWorkload:
    """Inhomogeneous Poisson operation launches for a client population.

    Parameters
    ----------
    curve:
        Active-client population over the day.
    mix:
        Distribution over the application's operation types.
    operations:
        Name -> Operation for every name in the mix.
    ops_per_client_hour:
        How many operations one active client launches per hour.
    scale:
        Population scale-down factor for DES runs (1.0 = full scale).
    """

    def __init__(
        self,
        sim: Simulator,
        runner: CascadeRunner,
        dc_name: str,
        curve: WorkloadCurve,
        mix: OperationMix,
        operations: Mapping[str, Operation],
        ops_per_client_hour: float = 6.0,
        application: str = "",
        scale: float = 1.0,
        seed: int | None = None,
    ) -> None:
        missing = [n for n in mix.weights if n not in operations]
        if missing:
            raise ValueError(f"mix references unknown operations: {missing}")
        if not 0 < scale <= 1.0:
            raise ValueError("scale must be in (0, 1]")
        self.sim = sim
        self.runner = runner
        self.dc_name = dc_name
        self.curve = curve
        self.mix = mix
        self.operations = dict(operations)
        self.rate_per_client = ops_per_client_hour / HOUR
        self.application = application or dc_name
        self.scale = scale
        self.rng = random.Random(seed)
        self.launched = 0
        self._client_pool: List[Client] = []
        #: arrival horizon: no arrival is drawn at or past it
        self.until = 0.0
        # the candidate arrival that stopped the thinning loop at the
        # horizon (None while an arrival is scheduled)
        self._stopped_at: float | None = None

    def rate_at(self, t: float) -> float:
        """Operation arrival rate (ops/s) at time ``t``."""
        return self.curve.at(t) * self.scale * self.rate_per_client

    def start(self, until: float) -> None:
        """Begin generating arrivals via thinning until ``until``."""
        self.until = until
        self._schedule_next(self.sim.now)

    def extend(self, until: float) -> None:
        """Move the horizon to a later ``until``.  The arrivals continue
        exactly as they would in a run started with ``until``: the
        thinning loop resumes at the candidate the old horizon stopped."""
        if until <= self.until:
            return
        self.until = until
        t, self._stopped_at = self._stopped_at, None
        if t is not None:
            self._thin(t, self._peak_rate())

    def _peak_rate(self) -> float:
        return max(self.curve.hourly) * self.scale * self.rate_per_client

    def _schedule_next(self, now: float) -> None:
        """Ogata thinning for the inhomogeneous Poisson process."""
        lam_max = self._peak_rate()
        if lam_max <= 0:
            return
        self._thin(now + self.rng.expovariate(lam_max), lam_max)

    def _thin(self, t: float, lam_max: float) -> None:
        """Accept or reject candidate ``t`` and the ones after it."""
        while t < self.until:
            if self.rng.random() <= self.rate_at(t) / lam_max:
                self.sim.schedule(t, self._fire)
                return
            t += self.rng.expovariate(lam_max)
        self._stopped_at = t

    def _fire(self, now: float) -> None:
        self.launched += 1
        client = self._get_client()
        name = self.mix.draw(self.rng, now)
        self.runner.launch(
            self.operations[name], client, now, application=self.application
        )
        self._schedule_next(now)

    def _get_client(self) -> Client:
        # round-robin over a small pool: client-side agents are shared so
        # the agent count stays bounded at scale
        if len(self._client_pool) < 32:
            c = Client(
                f"{self.dc_name}.pool{len(self._client_pool)}",
                self.dc_name,
                seed=self.rng.randrange(2**31),
            )
            self.sim.add_holon(c)
            self._client_pool.append(c)
            return c
        return self._client_pool[self.launched % len(self._client_pool)]
