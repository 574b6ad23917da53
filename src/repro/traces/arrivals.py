"""Open-loop arrival processes for the discrete-event engine.

The closed-loop traces of :mod:`repro.traces.generator` say *what* requests
look like; the processes here say *when* they arrive.  Three classic shapes
cover the load regimes an FL metadata store sees in production:

* :class:`PoissonArrivals` — memoryless arrivals at a constant rate (the
  M/G/c baseline),
* :class:`BurstyArrivals` — a two-state ON/OFF modulated Poisson process
  (interrupted Poisson): quiet background traffic punctuated by bursts,
* :class:`DiurnalArrivals` — a nonhomogeneous Poisson process whose rate
  follows a sinusoidal day/night cycle, sampled by Lewis-Shedler thinning.

Every process is a pure function of ``(seed, parameters)`` via
:func:`repro.common.rng.derive_rng`, so a load sweep is reproducible end to
end: same seed, same arrival instants, same queueing behaviour.

Every process exposes two equivalent APIs: :meth:`ArrivalProcess.times`
(a list of Python floats, which the event path submits one arrival at a
time) and :meth:`ArrivalProcess.times_array` (one float64 ndarray, the bulk
interface the vectorized fast path consumes).  Both produce byte-identical
instants, equal to the original scalar loops': Poisson draws its gaps in
one batch off the same stream, while bursty and diurnal run those loops
one draw at a time, writing into the array.  ``tests/test_arrivals_vectorized.py``
pins all three against independent reference copies of the loops.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from repro.common.rng import derive_rng

class ArrivalProcess(abc.ABC):
    """Base class: a deterministic generator of non-decreasing arrival times."""

    #: Machine-friendly identifier (used by the CLI and report labels).
    name: str = "arrivals"

    def __init__(self, rate_rps: float, seed: int = 7) -> None:
        if rate_rps <= 0:
            raise ValueError(f"rate_rps must be positive, got {rate_rps}")
        self.rate_rps = float(rate_rps)
        self.seed = seed

    def times(self, num_requests: int) -> list[float]:
        """The first ``num_requests`` arrival instants, starting at >= 0."""
        if num_requests <= 0:
            return []
        return self.times_array(num_requests).tolist()

    @abc.abstractmethod
    def times_array(self, num_requests: int) -> np.ndarray:
        """The same instants as :meth:`times`, as one float64 ndarray."""

    def _rng(self, *streams: object) -> np.random.Generator:
        return derive_rng(self.seed, "arrivals", self.name, self.rate_rps, *streams)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(rate_rps={self.rate_rps}, seed={self.seed})"


class PoissonArrivals(ArrivalProcess):
    """Homogeneous Poisson arrivals: i.i.d. exponential inter-arrival gaps."""

    name = "poisson"

    def times_array(self, num_requests: int) -> np.ndarray:
        """One batched draw and one in-place cumsum: the fully vectorized case."""
        if num_requests <= 0:
            return np.empty(0, dtype=np.float64)
        gaps = self._rng().exponential(scale=1.0 / self.rate_rps, size=num_requests)
        return np.cumsum(gaps, out=gaps)

    @property
    def mean_rate_rps(self) -> float:
        """Long-run average arrival rate."""
        return self.rate_rps


class BurstyArrivals(ArrivalProcess):
    """Interrupted Poisson process: ON periods burst, OFF periods idle.

    The process alternates exponentially distributed ON and OFF sojourns.
    During ON periods requests arrive as a Poisson stream whose rate is
    scaled so the *long-run average* rate equals ``rate_rps`` — a bursty and
    a Poisson process at the same nominal rate offer the same load, but the
    bursty one concentrates it (and therefore queues much harder).
    """

    name = "bursty"

    def __init__(
        self,
        rate_rps: float,
        seed: int = 7,
        mean_on_seconds: float = 5.0,
        mean_off_seconds: float = 15.0,
    ) -> None:
        super().__init__(rate_rps, seed)
        if mean_on_seconds <= 0 or mean_off_seconds < 0:
            raise ValueError("mean_on_seconds must be > 0 and mean_off_seconds >= 0")
        self.mean_on_seconds = mean_on_seconds
        self.mean_off_seconds = mean_off_seconds
        duty_cycle = mean_on_seconds / (mean_on_seconds + mean_off_seconds)
        #: Arrival rate while the source is ON (compensates the OFF idle time).
        self.burst_rate_rps = rate_rps / duty_cycle

    @property
    def mean_rate_rps(self) -> float:
        """Long-run average arrival rate (the nominal ``rate_rps``)."""
        return self.rate_rps

    def times_array(self, num_requests: int) -> np.ndarray:
        """ON/OFF window sampling, one scalar draw at a time.

        Per window: one ON draw, the in-window gap draws plus the single
        terminating draw (the first instant past the window), then one OFF
        draw, with every instant accumulated left to right.  The loop writes
        straight into a float64 array.  It is slower than the vectorized
        window walk it replaced, measured best-of-200 on a 2-core x86
        machine: +0.3 ms per 1,500 arrivals at ``hotkey-replicated``'s rate
        and +0.7 ms per 1,000 at ``noisy-neighbor``'s bursty tenant, about
        0.2-0.4 % of those runs.  10⁶ arrivals at ``million-request``'s rate
        take 1.3-1.4 s instead of 0.4 s, but no workload draws that many
        bursty arrivals.
        """
        if num_requests <= 0:
            return np.empty(0, dtype=np.float64)
        rng = self._rng(self.mean_on_seconds, self.mean_off_seconds)
        exponential = rng.exponential
        gap_scale = 1.0 / self.burst_rate_rps
        mean_on = self.mean_on_seconds
        mean_off = self.mean_off_seconds
        out = np.empty(num_requests, dtype=np.float64)
        produced = 0
        clock = 0.0
        while produced < num_requests:
            on_duration = exponential(mean_on)
            t = clock + exponential(gap_scale)
            while t <= clock + on_duration and produced < num_requests:
                out[produced] = t
                produced += 1
                t += exponential(gap_scale)
            clock += on_duration + exponential(mean_off)
        return out


class DiurnalArrivals(ArrivalProcess):
    """Nonhomogeneous Poisson arrivals with a sinusoidal day/night cycle.

    The instantaneous rate is ``rate_rps * (1 + amplitude * sin(2*pi*t /
    period))``, sampled exactly by Lewis-Shedler thinning against the peak
    rate.  ``period_seconds`` defaults to a compressed "day" so laptop-scale
    sweeps see both the peak and the trough.
    """

    name = "diurnal"

    def __init__(
        self,
        rate_rps: float,
        seed: int = 7,
        amplitude: float = 0.8,
        period_seconds: float = 120.0,
    ) -> None:
        super().__init__(rate_rps, seed)
        if not 0.0 <= amplitude < 1.0:
            raise ValueError("amplitude must be in [0, 1)")
        if period_seconds <= 0:
            raise ValueError("period_seconds must be positive")
        self.amplitude = amplitude
        self.period_seconds = period_seconds

    @property
    def mean_rate_rps(self) -> float:
        """Long-run average arrival rate (the sinusoid integrates to zero)."""
        return self.rate_rps

    def _rate_at(self, t: float) -> float:
        return self.rate_rps * (
            1.0 + self.amplitude * np.sin(2.0 * np.pi * t / self.period_seconds)
        )

    def times_array(self, num_requests: int) -> np.ndarray:
        """Lewis-Shedler thinning into a preallocated ndarray.

        Thinning interleaves an exponential candidate draw with a uniform
        accept draw per candidate, and the ziggurat exponential consumes a
        *variable* number of raw words — so unlike Poisson and bursty there
        is no way to pre-draw a block without shifting the bit stream.  The
        loop therefore stays sequential (bit-for-bit the original), but
        writes straight into a float64 array (no per-request Python list)
        with the trigonometry hoisted to ``math.sin`` — the same libm call
        ``np.sin`` makes for a scalar, at a fraction of the overhead.
        """
        if num_requests <= 0:
            return np.empty(0, dtype=np.float64)
        rng = self._rng(self.amplitude, self.period_seconds)
        exponential = rng.exponential
        random = rng.random
        sin = math.sin
        peak_rate = self.rate_rps * (1.0 + self.amplitude)
        mean_scale = 1.0 / peak_rate
        rate_rps = self.rate_rps
        amplitude = self.amplitude
        period = self.period_seconds
        two_pi = 2.0 * np.pi
        out = np.empty(num_requests, dtype=np.float64)
        filled = 0
        t = 0.0
        while filled < num_requests:
            t += exponential(mean_scale)
            rate = rate_rps * (1.0 + amplitude * sin(two_pi * t / period))
            if random() <= rate / peak_rate:
                out[filled] = t
                filled += 1
        return out


#: Registry of arrival-process kinds understood by the CLI and experiments.
ARRIVAL_KINDS: tuple[str, ...] = ("poisson", "bursty", "diurnal")


def make_arrival_process(kind: str, rate_rps: float, seed: int = 7, **kwargs) -> ArrivalProcess:
    """Build the arrival process called ``kind`` at ``rate_rps``.

    Extra keyword arguments pass through to the process constructor (e.g.
    ``mean_on_seconds`` for ``bursty``, ``amplitude`` for ``diurnal``).
    """
    if kind == "poisson":
        return PoissonArrivals(rate_rps, seed=seed, **kwargs)
    if kind == "bursty":
        return BurstyArrivals(rate_rps, seed=seed, **kwargs)
    if kind == "diurnal":
        return DiurnalArrivals(rate_rps, seed=seed, **kwargs)
    raise ValueError(f"unknown arrival process {kind!r}; expected one of {ARRIVAL_KINDS}")
