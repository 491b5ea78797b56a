"""Wall-clock and work-count budgets for the search procedures."""

from __future__ import annotations

import time

from .errors import BudgetExceededError


class Budget:
    """Tracks elapsed time and two work counters against optional caps.

    A cap left as None is not enforced.  ``steps`` counts fine-grained
    work (trigger applications, search nodes) and ``items`` counts coarse units
    (factbases, derivations).
    """

    def __init__(self, max_ms: float | None = None, max_steps: int | None = None,
                 max_items: int | None = None):
        self.max_ms = max_ms
        self.max_steps = max_steps
        self.max_items = max_items
        self.steps = 0
        self.items = 0
        self._start = time.monotonic()
        self.stop = None  # an Event shared with another process; set, it fails the next poll

    @property
    def elapsed_ms(self) -> float:
        return (time.monotonic() - self._start) * 1000.0

    def _fail(self, what: str) -> None:
        raise BudgetExceededError(
            f"{what} limit reached after {self.steps} steps / {self.items} items",
            steps=self.steps, items=self.items, elapsed_ms=self.elapsed_ms)

    def _poll(self) -> None:
        if self.max_ms is not None and self.elapsed_ms > self.max_ms:
            self._fail("time")
        if self.stop is not None and self.stop.is_set():
            self._fail("stop")

    def spend_step(self, poll: bool = False) -> None:
        """One step; the clock and the stop flag are polled every 64 steps,
        so long item-free stretches cannot stall, or at this one with
        ``poll`` (a step that may itself take long)."""
        self.steps += 1
        if self.max_steps is not None and self.steps > self.max_steps:
            self._fail("steps")
        if poll or self.steps % 64 == 0:
            self._poll()

    def spend_item(self) -> None:
        self.items += 1
        if self.max_items is not None and self.items > self.max_items:
            self._fail("items")
        self._poll()

    def charge(self, steps: int, items: int) -> bool:
        """Add work spent on a copy of this budget; False if it crosses a cap."""
        steps, items = self.steps + steps, self.items + items
        if (self.max_steps is not None and steps > self.max_steps
                or self.max_items is not None and items > self.max_items):
            return False
        self.steps, self.items = steps, items
        return True
