"""Mailboxes: blocking message queues with filtered receive.

CSIM mailboxes deliver untyped messages FIFO; MPI receive additionally
matches on (source, tag).  :meth:`Mailbox.receive` takes an optional
predicate — the first queued message satisfying it is delivered, or the
receiver blocks until a matching send arrives.  Unmatched messages stay
queued (MPI's unexpected-message queue).
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.sim.core import Event, Simulation


class Mailbox:
    def __init__(self, sim: Simulation, name: str) -> None:
        self.sim = sim
        self.name = name
        self._recv_name = name + ".recv"  # shared by all blocked receives
        self._messages: list[Any] = []
        self._receivers: list[tuple[Callable[[Any], bool] | None, Event]] = []

    def send(self, message) -> None:
        """Deposit a message; wakes the first matching blocked receiver.

        Sending never blocks (CSIM semantics); synchronous rendezvous is
        built on top with a reply event (see the MPI workload elements).
        """
        for index, (predicate, event) in enumerate(self._receivers):
            if predicate is None or predicate(message):
                del self._receivers[index]
                event.fire(message)
                return
        self._messages.append(message)

    def receive(self, match: Callable[[Any], bool] | None = None
                ) -> Generator:
        """Receive the first message satisfying ``match`` (or any message).

        ``msg = yield from mailbox.receive(...)``.
        """
        for index, message in enumerate(self._messages):
            if match is None or match(message):
                del self._messages[index]
                return message
        event = Event(self.sim, self._recv_name)
        self._receivers.append((match, event))
        yield event  # raw-Event wait (see sim.core command encoding)
        return event.payload

    def peek_count(self) -> int:
        """Messages currently queued (unmatched)."""
        return len(self._messages)

    def pending(self) -> list[Any]:
        """A snapshot of the queued (never-received) messages.

        Consumers inspect this after the simulation drains to surface
        messages that were sent but never matched by any receive.
        """
        return list(self._messages)

    @property
    def waiting_receivers(self) -> int:
        return len(self._receivers)

    def __repr__(self) -> str:
        return (f"<Mailbox {self.name!r} {len(self._messages)} queued, "
                f"{len(self._receivers)} waiting>")
