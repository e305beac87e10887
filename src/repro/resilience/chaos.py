"""Deterministic, seedable fault injection for the resilience subsystem.

Recovery code that is never exercised is recovery code that does not work.
This module turns the supervisor's failure modes into *test inputs*: a
:class:`ChaosConfig` (a seed plus an ordered tuple of :class:`ChaosRule`\\ s)
is installed process-wide, and instrumented **sites** across the pipeline
consult it:

=============  ==========================================================
site           where it fires
=============  ==========================================================
``store.load``   :class:`~repro.engine.store.TraceStore` reads
``store.save``   :class:`~repro.engine.store.TraceStore` writes
``store.discard``  deleting a corrupt :class:`TraceStore` entry
``worker``       a grid worker process's entry point (key ``bench@attempt``)
``kernel``       the vectorized fast path in ``Simulator.run_events``
``cell``         one supervised cell simulation (parent or worker), keyed
                 by its label (``bench:scheme:wpaN:icache=size/ways/line``)
=============  ==========================================================

Faults model the real failure surface: ``crash`` (the process dies with
``os._exit``), ``hang`` (sleeps until the supervisor's timeout kills it),
``raise`` (an :class:`InjectedFault`), ``enospc``/``eacces`` (environment
``OSError``\\ s), ``sanitizer`` (a mid-grid
:class:`~repro.errors.SanitizerError`), and ``truncate`` (a torn write:
the entry file is cut short before being published).

Determinism: a rule fires at most ``times`` times per process, and a
``probability < 1`` draw is seeded by ``(seed, rule, site, key, count)``
alone — never by wall clock or scheduling order — so a chaos run is exactly
reproducible from its seed.

The harness ships across process boundaries: the grid supervisor forwards
the active config to every worker it spawns, so injected faults follow the
work wherever it executes.
"""

from __future__ import annotations

import errno
import hashlib
import os
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ResilienceError, SanitizerError

__all__ = [
    "ChaosConfig",
    "ChaosRule",
    "InjectedFault",
    "active",
    "chaos_point",
    "corrupt_file",
    "current",
    "install",
    "uninstall",
]

_SITES = frozenset(
    {
        "store.load",
        "store.save",
        "store.discard",
        "worker",
        "kernel",
        "cell",
    }
)
_FAULTS = frozenset(
    {
        "crash",
        "hang",
        "raise",
        "enospc",
        "eacces",
        "sanitizer",
        "truncate",
    }
)

#: Exit code of a chaos-crashed process (recognisable in supervisor logs).
CRASH_EXIT_CODE = 86


class InjectedFault(RuntimeError):
    """A generic transient failure injected by a chaos rule."""


@dataclass(frozen=True)
class ChaosRule:
    """One injection: fire ``fault`` at ``site`` for keys containing ``match``.

    ``times`` bounds firings per process (``0`` disables the rule, negative
    means unlimited); ``probability`` gates each candidate firing with a
    deterministic seeded draw; ``delay_s`` is how long a ``hang`` sleeps.
    """

    site: str
    fault: str
    match: str = ""
    times: int = 1
    probability: float = 1.0
    delay_s: float = 30.0

    def validate(self) -> "ChaosRule":
        if self.site not in _SITES:
            raise ResilienceError(
                f"unknown chaos site {self.site!r}; choose from {sorted(_SITES)}"
            )
        if self.fault not in _FAULTS:
            raise ResilienceError(
                f"unknown chaos fault {self.fault!r}; choose from {sorted(_FAULTS)}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ResilienceError(
                f"chaos probability must be in [0, 1], got {self.probability}"
            )
        if self.delay_s < 0:
            raise ResilienceError(f"chaos delay_s must be >= 0, got {self.delay_s}")
        return self


@dataclass(frozen=True)
class ChaosConfig:
    """A seed plus the ordered rules to evaluate at every site."""

    seed: int = 0
    rules: Tuple[ChaosRule, ...] = ()

    def validate(self) -> "ChaosConfig":
        for rule in self.rules:
            rule.validate()
        return self


class _ChaosState:
    """The installed config plus per-rule fire counters (process-local)."""

    def __init__(self, config: ChaosConfig):
        self.config = config.validate()
        self.fired: Dict[int, int] = {index: 0 for index in range(len(config.rules))}

    def _draw(self, index: int, site: str, key: str, count: int) -> float:
        token = f"{self.config.seed}|{index}|{site}|{key}|{count}"
        digest = hashlib.sha256(token.encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "big")).random()

    def matching(self, site: str, key: str, faults: frozenset) -> Iterator[ChaosRule]:
        for index, rule in enumerate(self.config.rules):
            if rule.site != site or rule.match not in key:
                continue
            if rule.fault not in faults:
                continue
            if rule.times == 0 or 0 <= rule.times <= self.fired[index]:
                continue
            if rule.probability < 1.0:
                draw = self._draw(index, site, key, self.fired[index])
                if draw >= rule.probability:
                    continue
            self.fired[index] += 1
            yield rule


_ACTIVE: Optional[_ChaosState] = None


def install(config: ChaosConfig) -> None:
    """Activate ``config`` for this process (replacing any previous one)."""
    global _ACTIVE
    _ACTIVE = _ChaosState(config)


def uninstall() -> None:
    """Deactivate fault injection for this process."""
    global _ACTIVE
    _ACTIVE = None


def current() -> Optional[ChaosConfig]:
    """The installed config, if any (forwarded to grid workers)."""
    return _ACTIVE.config if _ACTIVE is not None else None


@contextmanager
def active(config: ChaosConfig) -> Iterator[ChaosConfig]:
    """Context manager scoping :func:`install`/:func:`uninstall` (tests)."""
    install(config)
    try:
        yield config
    finally:
        uninstall()


_RAISING_FAULTS = frozenset({"crash", "hang", "raise", "enospc", "eacces", "sanitizer"})


def chaos_point(site: str, key: str) -> None:
    """Evaluate the active rules at ``site``; may raise, sleep, or exit.

    A no-op (one ``None`` check) when no chaos config is installed, so the
    instrumented production paths pay nothing in normal operation.
    """
    state = _ACTIVE
    if state is None:
        return
    for rule in state.matching(site, key, _RAISING_FAULTS):
        if rule.fault == "crash":
            os._exit(CRASH_EXIT_CODE)
        if rule.fault == "hang":
            time.sleep(rule.delay_s)
            continue
        if rule.fault == "raise":
            raise InjectedFault(f"chaos: injected fault at {site} ({key})")
        if rule.fault == "enospc":
            raise OSError(errno.ENOSPC, f"chaos: no space left on device ({key})")
        if rule.fault == "eacces":
            raise OSError(errno.EACCES, f"chaos: permission denied ({key})")
        if rule.fault == "sanitizer":
            raise SanitizerError(f"chaos: injected invariant violation ({key})")


def corrupt_file(site: str, key: str, path: "os.PathLike[str]") -> None:
    """Apply any matching ``truncate`` rule to the file at ``path``.

    Called between writing a temp file and publishing it with
    ``os.replace`` — the published entry is then a torn write the loader
    must detect and treat as a miss.
    """
    state = _ACTIVE
    if state is None:
        return
    for _ in state.matching(site, key, frozenset({"truncate"})):
        try:
            size = os.path.getsize(path)
            with open(path, "r+b") as handle:
                handle.truncate(max(size // 2, 1))
        except OSError:
            pass


def describe_rules(rules: List[ChaosRule]) -> str:
    """One-line-per-rule summary for logs and docs examples."""
    return "\n".join(
        f"{rule.site}[{rule.match or '*'}] -> {rule.fault} "
        f"(times={rule.times}, p={rule.probability})"
        for rule in rules
    )
