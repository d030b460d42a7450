"""Fault-tolerant sweep execution: timeouts, quarantine, fault hook.

A multi-hour sweep must survive the failure modes of its own harness — a
hung cell, a crashed worker process, a poisoned cell that raises — without
losing the work it already did.  This module carries the pieces the
executors (:mod:`repro.experiments.executors`) and the sweep driver
(:mod:`repro.experiments.sweep`) compose into that guarantee:

* :class:`ResiliencePolicy` — the per-cell wall-clock timeout and the
  ``--max-cell-failures`` graceful-degradation budget.
* :func:`run_cell_guarded` — the guarded task body both executors use: it
  applies the fault hook, arms the timeout, and wraps a failed cell into
  :class:`CellExecutionError` carrying a typed :class:`CellFailure` record
  (the checkpoint journal's ``cell_error`` payload).
* The ``REPRO_FAULT_INJECT`` environment hook — the CI chaos gate's way to
  kill one worker or poison one cell mid-sweep without patching any code.

A failed cell runs again only on ``--resume``: the checkpoint journal keeps
it pending, and the resumed sweep rebuilds the *entire* stack (simulator,
RNG registry, network, deployment) from the cell's own derived seed, so a
cell that succeeds on resume is byte-identical to one that succeeded the
first time.
"""

from __future__ import annotations

import hashlib
import math
import os
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

if TYPE_CHECKING:  # imported for annotations only
    from repro.core.metrics import RunResult

#: Environment variable holding fault directives: ``;``-separated
#: ``kill:<key-substring>`` (the worker process exits hard, breaking the
#: pool) and ``poison:<key-substring>`` (the cell raises
#: :class:`InjectedFaultError`) entries, matched against the cell key.
FAULT_ENV = "REPRO_FAULT_INJECT"

#: Environment variable naming a directory for once-only fault markers.
#: With it set, each directive fires exactly once across every process of a
#: sweep *and its resumes* — the crash-recovery identity gate relies on the
#: resubmitted or resumed cell running clean.  Without it, directives fire on
#: every match (a deterministically-poisoned cell).
FAULT_STATE_ENV = "REPRO_FAULT_STATE"

#: Exit code of a ``kill:`` directive — distinguishable from a Python crash.
KILL_EXIT_CODE = 87


class CellTimeoutError(RuntimeError):
    """A cell exceeded its per-cell wall-clock timeout."""


class InjectedFaultError(RuntimeError):
    """A ``poison:`` directive of the fault hook fired for this cell."""


class FailureBudgetExceededError(ValueError):
    """More cells failed than ``--max-cell-failures`` allows."""


class PoolRecoveryError(RuntimeError):
    """The worker pool kept breaking beyond the rebuild cap."""


@dataclass(frozen=True)
class ResiliencePolicy:
    """How the executors respond to cell failures."""

    #: Per-cell wall-clock timeout in seconds (``None`` = unlimited).  Armed
    #: via ``SIGALRM`` where available (main thread, POSIX); elsewhere the
    #: timeout is silently unenforced rather than unsupported.
    cell_timeout: Optional[float] = None
    #: Failure budget: up to this many failed cells are quarantined as typed
    #: ``cell_error`` journal records and reported as gaps; one more aborts
    #: the sweep.
    max_cell_failures: int = 0

    def validate(self) -> "ResiliencePolicy":
        """Raise :class:`ValueError` on an inconsistent policy."""
        if self.cell_timeout is not None and not 0 < self.cell_timeout < math.inf:
            raise ValueError(f"cell_timeout must be positive and finite, got {self.cell_timeout!r}")
        if self.max_cell_failures < 0:
            raise ValueError(
                f"max_cell_failures must be >= 0, got {self.max_cell_failures!r}"
            )
        return self


#: The sweep's default: no timeout and no failure budget — the first failing
#: cell aborts the sweep.
DEFAULT_POLICY = ResiliencePolicy()


@dataclass(frozen=True)
class CellFailure:
    """One quarantined cell: the typed ``cell_error`` checkpoint record."""

    key: str
    #: Exception type name (``"CellTimeoutError"``, ``"InjectedFaultError"``, ...).
    error: str
    message: str

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (checkpoint journal / report payload)."""
        return {"key": self.key, "error": self.error, "message": self.message}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CellFailure":
        """Inverse of :meth:`to_dict`.

        Records written while the harness still retried cells in process
        also carry a retry count; it is ignored, so those journals resume as
        before.
        """
        return cls(key=data["key"], error=data["error"], message=data["message"])


class CellExecutionError(RuntimeError):
    """A cell failed (carries the original exception)."""

    def __init__(self, key: str, original: BaseException) -> None:
        super().__init__(f"cell {key!r} failed: {type(original).__name__}: {original}")
        self.key = key
        self.original = original

    def failure(self) -> CellFailure:
        """The typed quarantine record of this failure."""
        return CellFailure(
            key=self.key,
            error=type(self.original).__name__,
            message=str(self.original)[:500],
        )


# --------------------------------------------------------------------------- fault hook
def parse_fault_directives(text: str) -> List[Tuple[str, str]]:
    """Parse :data:`FAULT_ENV`: ``"kill:frodo3~5u@0.2#1;poison:upnp"`` ->
    ``[("kill", ...), ("poison", ...)]``.  Raises :class:`ValueError` on a
    malformed directive."""
    directives: List[Tuple[str, str]] = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        action, sep, pattern = part.partition(":")
        action = action.strip()
        if not sep or not pattern or action not in ("kill", "poison"):
            raise ValueError(
                f"bad {FAULT_ENV} directive {part!r}; expected "
                f"kill:<key-substring> or poison:<key-substring>"
            )
        directives.append((action, pattern))
    return directives


def _claim_fault(action: str, pattern: str) -> bool:
    """``True`` when the directive may fire now (once-only via the state dir).

    The marker is created *before* the fault fires, so a ``kill`` that takes
    the whole worker down has already burned its one shot — the resubmitted
    chunk runs clean, which is what lets a chaotic sweep converge to the
    undisturbed output.
    """
    state_dir = os.environ.get(FAULT_STATE_ENV)
    if not state_dir:
        return True
    os.makedirs(state_dir, exist_ok=True)
    digest = hashlib.sha1(pattern.encode("utf-8")).hexdigest()[:16]
    marker = os.path.join(state_dir, f"{action}-{digest}")
    try:
        with open(marker, "x"):
            return True
    except FileExistsError:
        return False


def maybe_inject_fault(key: str) -> None:
    """Fire any :data:`FAULT_ENV` directive matching ``key`` (test/CI hook).

    ``kill`` exits the process hard (``os._exit``), which in a pool worker
    surfaces as ``BrokenProcessPool`` in the parent; ``poison`` raises
    :class:`InjectedFaultError`, exercising the quarantine path.
    """
    spec = os.environ.get(FAULT_ENV)
    if not spec:
        return
    for action, pattern in parse_fault_directives(spec):
        if pattern not in key:
            continue
        if not _claim_fault(action, pattern):
            continue
        if action == "kill":
            os._exit(KILL_EXIT_CODE)
        raise InjectedFaultError(
            f"injected fault poisoned cell {key!r} (directive poison:{pattern})"
        )


# --------------------------------------------------------------------------- timeouts
@contextmanager
def cell_deadline(seconds: Optional[float]) -> Iterator[None]:
    """Raise :class:`CellTimeoutError` in the block after ``seconds`` of wall time.

    Implemented with ``SIGALRM``/``setitimer``, which both executor paths can
    use because cells always run on the main thread of their process (the
    serial executor in the caller's process, pool tasks in the worker's).
    Where signals are unavailable (non-POSIX, non-main thread) the block runs
    unguarded — a missing timeout only weakens resilience, never correctness.
    """
    if (
        not seconds
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum: int, frame: Any) -> None:
        raise CellTimeoutError(f"cell exceeded its {seconds:g}s wall-clock timeout")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# --------------------------------------------------------------------------- guarded runs
def run_cell_guarded(
    runner: Any,
    scenario: Any,
    key: str,
    policy: ResiliencePolicy = DEFAULT_POLICY,
) -> "RunResult":
    """Run one cell under ``policy`` and return its result.

    Applies the fault hook and arms the per-cell timeout.  A cell that
    raises an :class:`Exception` raises :class:`CellExecutionError` wrapping
    it; ``KeyboardInterrupt``/``SystemExit`` propagate unwrapped.
    """
    try:
        maybe_inject_fault(key)
        with cell_deadline(policy.cell_timeout):
            return runner.run(scenario)
    except Exception as exc:
        raise CellExecutionError(key, exc) from exc
