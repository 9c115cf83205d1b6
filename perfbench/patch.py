"""Reversible class-attribute patching.

Both the light probe (every run) and the tracer (the traced run) wrap
methods of ``repro`` classes from outside.  A :class:`Patcher` remembers
each function it replaced, so :meth:`Patcher.restore` puts back exactly
the original ``__dict__`` entries and leaves no wrapper behind.
"""

from __future__ import annotations

import functools
import inspect
from typing import Callable, List, Tuple


class Patcher:
    """Install wrappers around class methods and undo them all at once."""

    def __init__(self) -> None:
        self._saved: List[Tuple[type, str, object]] = []

    def wrap(self, owner: type, name: str, make_wrapper: Callable) -> None:
        """Replace ``owner.name``, a function ``owner`` itself defines, with
        ``make_wrapper(original)``."""
        original = vars(owner).get(name)
        if not inspect.isfunction(original):
            raise TypeError(f"{owner.__qualname__} defines no function {name!r}")
        self._saved.append((owner, name, original))
        setattr(owner, name, functools.wraps(original)(make_wrapper(original)))

    def restore(self) -> None:
        """Undo every wrap, newest first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)
