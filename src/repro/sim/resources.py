"""Shared-resource primitive for the DES kernel.

In the SimPy idiom, :class:`Resource` is a counted semaphore:
processes ``yield resource.request()``, hold a slot, and ``release``
it (or use the request as a context manager).
:func:`repro.qos.queueing.simulate_mm1` models its M/M/1 server with
it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from repro.sim.core import Environment
from repro.sim.events import Event

__all__ = ["Resource", "Request"]


class Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        resource._grant_or_queue(self)

    def release(self) -> None:
        """Give the slot back (idempotent)."""
        self.resource._release(self)

    # Context-manager sugar: ``with resource.request() as req: yield req``
    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class Resource:
    """A counted semaphore with FIFO granting."""

    def __init__(self, env: Environment, capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self._holders: List[Request] = []
        self._waiting: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Slots currently held."""
        return len(self._holders)

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def request(self) -> Request:
        """Claim a slot; the returned event fires when granted."""
        return Request(self)

    def _grant_or_queue(self, request: Request) -> None:
        if len(self._holders) < self.capacity:
            self._holders.append(request)
            request.succeed(request)
        else:
            self._waiting.append(request)

    def _release(self, request: Request) -> None:
        if request in self._holders:
            self._holders.remove(request)
        elif request in self._waiting:
            self._waiting.remove(request)
            return
        else:
            return  # already released
        while self._waiting and len(self._holders) < self.capacity:
            nxt = self._waiting.popleft()
            self._holders.append(nxt)
            nxt.succeed(nxt)

