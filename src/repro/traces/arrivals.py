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
instants: the vectorized generators consume the underlying
``standard_exponential`` stream in exactly the order the original scalar
loops did, which ``tests/test_arrivals_vectorized.py`` pins against
reference copies of the pre-vectorization loops at seed 7.
"""

from __future__ import annotations

import abc
import math

import numpy as np

from repro.common.rng import derive_rng

#: Block size for pre-drawn `standard_exponential` values.  Large enough to
#: amortize numpy call overhead, small enough that a million-request
#: generation never holds more than ~1 MB of scratch beside its output.
_CHUNK = 65536

#: Gap draws a bursty ON window walks as Python floats; each further segment
#: of the same window is a numpy cumsum of twice the previous length, up to
#: ``_CHUNK``.
_FIRST_SEGMENT = 32

#: Draws converted to Python floats at a time for those walks: sparse windows
#: share one conversion, and a dense window wastes at most this many.
_WALK_DRAWS = 8 * _FIRST_SEGMENT


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
        """Vectorized ON/OFF window sampling, byte-identical to the scalar loop.

        Every draw the original loop made was ``rng.exponential(scale)`` —
        which numpy implements as ``scale * standard_exponential()`` off the
        same bit stream — so the whole process can be generated from one
        pre-drawn ``standard_exponential`` block consumed through a cursor:
        per window, one ON draw, the in-window gap draws plus the single
        terminating draw (the first instant past the window), then one OFF
        draw.  Arrival instants accumulate with the same float operations in
        the same order as the scalar loop (((clock + g1) + g2) + ...), so the
        output is bit-for-bit equal.

        Each window first walks up to ``_FIRST_SEGMENT`` gap draws as Python
        floats (read from ``_WALK_DRAWS``-long slices of the block converted
        once), so a sparse window — most of them at low rates — costs no
        numpy call.  A window still open after that continues in numpy
        segments, each a cumsum seeded with the running instant, doubling up
        to ``_CHUNK``: a dense window costs a few numpy calls per segment,
        and time and scratch stay linear in ``num_requests``.  Draws past
        the final arrival cannot change the output, so it returns as soon
        as it is full.
        """
        if num_requests <= 0:
            return np.empty(0, dtype=np.float64)
        rng = self._rng(self.mean_on_seconds, self.mean_off_seconds)
        standard_exponential = rng.standard_exponential
        gap_scale = 1.0 / self.burst_rate_rps
        mean_on = self.mean_on_seconds
        mean_off = self.mean_off_seconds

        buf = standard_exponential(_CHUNK)
        cursor = 0
        # ``buf[base : base + len(draws)]`` as Python floats, for the walk.
        draws: list[float] = []
        base = 0
        out = np.empty(num_requests, dtype=np.float64)
        produced = 0
        clock = 0.0

        def refill(at_least: int) -> None:
            nonlocal buf, cursor, draws, base
            if buf.size - cursor < at_least:
                buf = np.concatenate([buf[cursor:], standard_exponential(_CHUNK)])
                cursor = base = 0
                draws = []

        while True:
            # The walk reads the window's ON draw, its first segment of gap
            # draws and, after a terminating draw there, the OFF draw.
            at = cursor - base
            if at + _FIRST_SEGMENT + 2 > len(draws):
                refill(_WALK_DRAWS)
                draws = buf[cursor : cursor + _WALK_DRAWS].tolist()
                base, at = cursor, 0
            on_duration = draws[at] * mean_on
            window_end = clock + on_duration
            t = clock
            for used in range(at + 1, at + _FIRST_SEGMENT + 1):
                t = t + draws[used] * gap_scale
                if t > window_end:
                    off_duration = draws[used + 1] * mean_off
                    cursor = base + used + 2
                    break
                out[produced] = t
                produced += 1
                if produced == num_requests:
                    return out
            else:
                # The window outlasted its first segment: continue in numpy
                # segments up to its terminating draw.
                cursor = base + at + _FIRST_SEGMENT + 1
                segment = 2 * _FIRST_SEGMENT
                while True:
                    want = min(num_requests - produced, segment)
                    refill(want)
                    # Seed the cumsum with the running instant so each
                    # instant is built by the walk's own additions.
                    seg = np.empty(want + 1, dtype=np.float64)
                    seg[0] = t
                    np.multiply(buf[cursor : cursor + want], gap_scale, out=seg[1:])
                    instants = np.cumsum(seg, out=seg)[1:]
                    in_window = int(np.searchsorted(instants, window_end, side="right"))
                    out[produced : produced + in_window] = instants[:in_window]
                    produced += in_window
                    if produced == num_requests:
                        return out
                    cursor += in_window
                    if in_window < want:
                        cursor += 1  # the terminating draw
                        break
                    t = float(instants[-1])
                    segment = min(2 * segment, _CHUNK)
                refill(1)
                off_duration = float(buf[cursor]) * mean_off
                cursor += 1
            clock = clock + (on_duration + off_duration)


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
