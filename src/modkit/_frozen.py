"""The base of modkit's ``__slots__`` records: the ones that check their fields."""

from __future__ import annotations


class Frozen:
    """Refuses assigning and deleting attributes. A subclass's ``__init__``
    checks its fields and sets its slots through ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
