"""Fault-tolerance primitives: retry policies and structured failure reports.

The characterization-as-a-service north star means long-lived, heavy-traffic
runs, but until this module every layer of the stack was fail-fast: one
transient exception, crashed worker or non-finite row aborted a whole
library characterization.  The resilience layer splits fault handling into
three reusable pieces that the engines thread through their existing
execution substrate:

* :class:`RetryPolicy` / :func:`run_with_retry` -- bounded retries with
  exponential backoff and *deterministic seeded jitter* (same policy, same
  site, same delays -- reproducibility is a load-bearing property of this
  codebase, so even the backoff schedule is replayable);
* :class:`FailureReport` -- the structured record of one failed unit of
  work (which arc, which stage, what raised, how many attempts), recorded
  on the :class:`~repro.runtime.accounting.RunLedger` and rendered by
  :func:`repro.analysis.reporting.format_ledger`;
* :func:`resolve_strict` -- the ``strict=True|False`` switch of the library
  flows: strict preserves the historical fail-fast behavior, non-strict
  degrades per row/arc and returns partial results plus failure reports;
* :class:`CircuitBreaker` -- a three-state (closed / open / half-open)
  failure latch for flaky dependencies; the characterization service wraps
  the durable disk tier in one so a failing disk degrades the service to
  memory-only instead of failing requests.

**Cooperative-cancellation contract.**  Python cannot preempt running
code, so every deadline in this codebase is *cooperative*: work is never
killed mid-flight, it is abandoned at the next yield point.  The two
deadline holders follow the same rules:

* :attr:`RetryPolicy.deadline_s` bounds the retry loop *end to end* on
  ``time.monotonic()`` -- attempts, backoff sleeps and all.  An attempt
  that is still running when the deadline passes is allowed to finish
  (cooperative: it cannot be interrupted), but no further attempt starts,
  and a backoff sleep that would overrun the deadline is skipped in favor
  of failing immediately.  Wall-clock jumps (NTP steps, suspend/resume)
  cannot mis-time attempts because no wall clock is consulted anywhere in
  the loop.
* :class:`DeadlineExceeded` is how the characterization service reports a
  request whose deadline passed while it waited for (or cooperatively
  finished) a batch: the request is dropped from the *next* batch, never
  yanked out of a running one -- rows its batch already integrated still
  land in the caches for the next caller.

A retry policy is always explicit: a flow retries only when its caller
passes ``retry_policy=RetryPolicy(max_attempts=..., backoff_s=...)``.  The
one environment variable read here is ``REPRO_STRICT``, the default
strictness of the library flows (``0``, ``false``, ``no`` or ``off``
degrades; anything else, and an unset or empty variable, is strict).  It is
read on every :func:`resolve_strict` call, not once at import, so a process
may set it after importing the library.
"""

from __future__ import annotations

import os
import threading
import time
import zlib
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

__all__ = [
    "CircuitBreaker",
    "DeadlineExceeded",
    "FailureReport",
    "RetryError",
    "RetryPolicy",
    "deterministic_uniform",
    "resolve_strict",
    "run_with_retry",
]

#: The environment variable behind ``strict=None`` (README, library behaviour).
ENV_STRICT = "REPRO_STRICT"

_FALSE_STRINGS = ("0", "false", "no", "off")


def deterministic_uniform(seed: int, *parts) -> float:
    """A reproducible uniform draw in ``[0, 1)`` keyed by ``(seed, *parts)``.

    CRC32 of the rendered key -- platform-independent and stable across
    runs, unlike ``hash()`` (randomized per process) or a shared RNG stream
    (order-dependent).  Both the retry jitter and the fault-injection
    schedule derive from this, which is what makes fault runs replayable.
    """
    key = ":".join([str(int(seed))] + [str(part) for part in parts])
    return zlib.crc32(key.encode("utf-8")) / 2.0 ** 32


def resolve_strict(strict: Optional[bool]) -> bool:
    """Resolve a flow's ``strict`` switch (``None`` defers to ``REPRO_STRICT``).

    An unset or empty ``REPRO_STRICT`` means strict.
    """
    if strict is not None:
        return bool(strict)
    return os.environ.get(ENV_STRICT, "").strip().lower() not in _FALSE_STRINGS


class DeadlineExceeded(TimeoutError):
    """A deadline passed before the work could be (or finish being) served.

    Raised to the *caller* of an expired request -- never into the work
    itself, which is cooperative and runs to its next yield point (see the
    module docstring's cooperative-cancellation contract).  The
    characterization service completes an expired request's future with
    this; results its batch already computed stay cached for the next
    caller.
    """


class RetryError(RuntimeError):
    """Raised when a retried task exhausts its attempts (or its deadline).

    Attributes
    ----------
    site:
        The caller-supplied task label.
    attempts:
        Attempts actually made; the last failure is chained as ``__cause__``.
    """

    def __init__(self, site: str, attempts: int, error: BaseException):
        super().__init__(
            f"{site} failed after {attempts} attempt{'s' if attempts != 1 else ''}: "
            f"{type(error).__name__}: {error}")
        self.site = site
        self.attempts = attempts


@dataclass(frozen=True)
class RetryPolicy:
    """How often, and with what spacing, a failed task is re-attempted.

    Attributes
    ----------
    max_attempts:
        Total attempts including the first (1 = no retries, the default --
        a ``RetryPolicy()`` is behaviorally a no-op).
    backoff_s:
        Delay before the first retry, in seconds.
    backoff_factor:
        Multiplier applied to the delay after every retry (exponential
        backoff).
    jitter:
        Fractional jitter on each delay: delay ``i`` is scaled by
        ``1 + jitter * u_i`` with ``u_i`` a deterministic uniform in
        ``[0, 1)`` derived from ``seed`` -- spreading a fleet's retries
        without sacrificing replayability.
    seed:
        Seed of the jitter schedule.
    deadline_s:
        End-to-end deadline of the whole retry loop, in seconds, measured
        on ``time.monotonic()`` from the start of the first attempt --
        attempts *and* backoff sleeps count against it.  The deadline is
        cooperative (Python cannot preempt a running attempt): an attempt
        that fails after the deadline passed is not retried, and a backoff
        sleep that would overrun the deadline is skipped in favor of
        failing immediately.  ``None`` disables the check.  Because the
        loop never consults the wall clock, NTP steps or suspend/resume
        cannot mis-time attempts.
    """

    max_attempts: int = 1
    backoff_s: float = 0.0
    backoff_factor: float = 2.0
    jitter: float = 0.0
    seed: int = 0
    deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_s < 0.0:
            raise ValueError("backoff_s must be non-negative")
        if self.backoff_factor <= 0.0:
            raise ValueError("backoff_factor must be positive")
        if not (0.0 <= self.jitter <= 1.0):
            raise ValueError("jitter must be in [0, 1]")
        if self.deadline_s is not None and self.deadline_s <= 0.0:
            raise ValueError("deadline_s must be positive (or None)")

    @property
    def is_noop(self) -> bool:
        """Whether the policy never retries (single attempt)."""
        return self.max_attempts <= 1

    def delays(self) -> List[float]:
        """The deterministic backoff delay before each retry, in order.

        ``max_attempts - 1`` entries; entry ``i`` spaces attempt ``i + 1``
        from attempt ``i + 2``.  Identical for identical policies.
        """
        delays = []
        for index in range(self.max_attempts - 1):
            base = self.backoff_s * self.backoff_factor ** index
            scale = 1.0 + self.jitter * deterministic_uniform(self.seed, index)
            delays.append(base * scale)
        return delays


def run_with_retry(
    fn: Callable[[], object],
    policy: Optional[RetryPolicy] = None,
    *,
    site: str = "task",
    retry_on: Tuple[type, ...] = (Exception,),
    ledger=None,
    on_retry: Optional[Callable[[int, BaseException], None]] = None,
    sleep: Callable[[float], None] = time.sleep,
    clock: Callable[[], float] = time.monotonic,
) -> object:
    """Run ``fn`` under a retry policy; the core helper of the resilience layer.

    Parameters
    ----------
    fn:
        Zero-argument callable (bind payloads with a closure or
        ``functools.partial``).
    policy:
        ``None`` or a no-op policy runs ``fn`` once with no wrapping at all
        -- the first failure propagates unchanged, preserving pre-resilience
        semantics exactly.
    site:
        Label used in error messages and ledger metrics.
    retry_on:
        Exception classes that are retried; anything else propagates
        immediately.
    ledger:
        Optional :class:`~repro.runtime.accounting.RunLedger`; every retry
        adds 1 to the ``retries`` metric (and ``retries:<site>``).
    on_retry:
        Optional callback ``(attempt_index, error)`` invoked before each
        retry (the executors count their retries through it).
    sleep, clock:
        Injectable for tests (deterministic fake time).

    Raises
    ------
    RetryError
        When every attempt failed (or the per-attempt deadline was
        exceeded); the last failure is chained as ``__cause__``.
    """
    if policy is None or policy.is_noop:
        return fn()
    delays = policy.delays()
    last_error: Optional[BaseException] = None
    # The deadline is end-to-end: one monotonic origin for the whole loop,
    # never re-based per attempt and never read from the wall clock (see
    # the module docstring's cooperative-cancellation contract).
    origin = clock()
    for attempt in range(1, policy.max_attempts + 1):
        try:
            return fn()
        except retry_on as error:
            last_error = error
            elapsed = clock() - origin
            delay = delays[attempt - 1] if attempt < policy.max_attempts else 0.0
            overdue = (policy.deadline_s is not None
                       and elapsed + delay > policy.deadline_s)
            if attempt == policy.max_attempts or overdue:
                raise RetryError(site, attempt, error) from error
            if ledger is not None:
                ledger.add_metric("retries", 1)
                ledger.add_metric(f"retries:{site}", 1)
            if on_retry is not None:
                on_retry(attempt, error)
            if delay > 0.0:
                sleep(delay)
    raise RetryError(site, policy.max_attempts, last_error)  # pragma: no cover


@dataclass(frozen=True)
class FailureReport:
    """One failed unit of work, in the shape the ledger and reports render.

    Attributes
    ----------
    unit:
        What failed -- the library flows use ``"<cell>:<arc name>"``.
    stage:
        Pipeline stage that failed (``"simulate"``, ``"extract"``, ...).
    error:
        Human-readable error message.
    error_type:
        Exception class name (or a symbolic tag such as
        ``"QuarantinedRows"`` for per-row quarantine).
    attempts:
        Attempts made before giving up.
    """

    unit: str
    stage: str
    error: str
    error_type: str = ""
    attempts: int = 1

    @classmethod
    def from_exception(cls, unit: str, stage: str, error: BaseException,
                       attempts: int = 1) -> "FailureReport":
        """Build a report from a caught exception.

        A :class:`RetryError` is unwrapped to its cause (the actual
        failure) and contributes its attempt count.
        """
        if isinstance(error, RetryError):
            attempts = max(attempts, error.attempts)
            cause = error.__cause__
            if cause is not None:
                error = cause
        return cls(unit=unit, stage=stage, error=str(error),
                   error_type=type(error).__name__, attempts=int(attempts))

    def as_dict(self) -> dict:
        """Picklable/JSON form (the shape stored on the ledger)."""
        return {"unit": self.unit, "stage": self.stage, "error": self.error,
                "error_type": self.error_type, "attempts": int(self.attempts)}

    @classmethod
    def from_dict(cls, record: dict) -> "FailureReport":
        """Inverse of :meth:`as_dict`."""
        return cls(unit=str(record["unit"]), stage=str(record["stage"]),
                   error=str(record["error"]),
                   error_type=str(record.get("error_type", "")),
                   attempts=int(record.get("attempts", 1)))

    def describe(self) -> str:
        """One-line rendering used by reports."""
        kind = f" [{self.error_type}]" if self.error_type else ""
        tries = (f" after {self.attempts} attempts" if self.attempts != 1
                 else "")
        return f"{self.unit} failed at {self.stage}{kind}{tries}: {self.error}"


class CircuitBreaker:
    """Three-state failure latch for a flaky dependency.

    Closed (normal) -> open after ``failure_threshold`` consecutive
    failures; open -> half-open once ``cooldown_s`` has elapsed on the
    monotonic clock; half-open admits a single probe -- success closes the
    breaker, failure re-opens it and restarts the cooldown.

    The characterization service wraps the durable disk tier in one of
    these: a disk throwing ``ENOSPC`` or quarantining corrupt payloads in a
    storm trips the breaker and the service degrades to memory-only caching
    instead of failing (or slowing) every request.  All methods are
    thread-safe.

    Parameters
    ----------
    failure_threshold:
        Consecutive failures (while closed) that trip the breaker.
    cooldown_s:
        Seconds the breaker stays open before admitting a half-open probe.
    clock:
        Injectable monotonic clock (tests substitute a fake).
    """

    def __init__(self, failure_threshold: int = 3, cooldown_s: float = 30.0,
                 clock: Callable[[], float] = time.monotonic):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1, got "
                             f"{failure_threshold}")
        if cooldown_s < 0.0:
            raise ValueError(f"cooldown_s must be >= 0, got {cooldown_s}")
        self._failure_threshold = int(failure_threshold)
        self._cooldown_s = float(cooldown_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = "closed"
        self._failures = 0
        self._opened_at = 0.0
        self._trips = 0

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half_open"`` (cooldown-aware)."""
        with self._lock:
            self._maybe_half_open()
            return self._state

    @property
    def trips(self) -> int:
        """Times the breaker transitioned to open (monitoring counter)."""
        with self._lock:
            return self._trips

    def _maybe_half_open(self) -> None:
        if (self._state == "open"
                and self._clock() - self._opened_at >= self._cooldown_s):
            self._state = "half_open"

    def allow(self) -> bool:
        """Whether the protected dependency may be used right now.

        Closed and half-open admit the call (half-open as the single probe
        whose outcome decides the next state); open rejects it.
        """
        with self._lock:
            self._maybe_half_open()
            return self._state != "open"

    def record_success(self) -> None:
        """The dependency worked: close the breaker and reset the count."""
        with self._lock:
            self._state = "closed"
            self._failures = 0

    def record_failure(self, n: int = 1) -> None:
        """The dependency failed ``n`` times (a batch may observe several).

        A half-open probe failure re-opens immediately; closed failures
        accumulate until ``failure_threshold`` trips the breaker.
        """
        if n < 1:
            return
        with self._lock:
            self._maybe_half_open()
            self._failures += int(n)
            tripped = (self._state == "half_open"
                       or (self._state != "open"
                           and self._failures >= self._failure_threshold))
            if tripped:
                self._state = "open"
                self._opened_at = self._clock()
                self._trips += 1
                self._failures = 0
