"""Per-client learned gathering behaviour (§8 future work).

"Jeff Mogul has suggested a scheme where the server builds a small database
of 'learned' information about individual clients, and uses this to direct
gathering behavior."

The worst case for write gathering is the single-threaded (dumb PC) client:
added latency for no gain (§6.10).  This database watches, per client, how
often that client's writes end up in multi-write batches; a client whose
recent writes consistently gather alone stops earning procrastination, so
the 15% single-threaded penalty disappears after a short learning period.
The knowledge ages so a client that starts running biods is re-learned.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict

__all__ = ["LearnedClientDb"]


class LearnedClientDb:
    """Tracks recent gather-batch sizes per client."""

    def __init__(self, window: int = 16, threshold: int = 8) -> None:
        if window < 1 or threshold < 1:
            raise ValueError("window and threshold must be >= 1")
        self.window = window
        self.threshold = threshold
        self._history: Dict[str, Deque[int]] = {}

    def observe_batch(self, client: str, batch_size: int) -> None:
        """Record that one of ``client``'s writes completed in a batch of
        ``batch_size`` gathered writes."""
        history = self._history.setdefault(client, deque(maxlen=self.window))
        history.append(batch_size)

    def should_procrastinate(self, client: str) -> bool:
        """False once the client's recent writes overwhelmingly gather alone."""
        history = self._history.get(client)
        if history is None or len(history) < self.threshold:
            return True  # not enough evidence; give gathering a chance
        singletons = sum(1 for size in history if size <= 1)
        return singletons < self.threshold
