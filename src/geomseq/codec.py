"""The one JSON layout of the frozen report dataclasses.

A report is written field by field in declaration order: a :class:`GNum`
as its log, an enum as its value, a nested report through this same codec,
anything else as it is.  A field whose JSON key is not its name declares
the key on the field with :func:`json_key`, as a path when the value sits
in a nested object.  The derived properties a class names in ``derived``
are appended on output and ignored on input.

Reading back casts each value to its field's declared type.  A missing key
falls back to the field's default, or to None when the field is optional.
"""

from __future__ import annotations

import dataclasses
import typing
from enum import Enum
from typing import Any, ClassVar

from .garith import GNum

__all__ = ["Report", "json_key"]


def json_key(*path: str) -> dict:
    """Field metadata naming the JSON key (or key path) of a field."""
    return {"json_key": path}


def _encode(value: Any) -> Any:
    if isinstance(value, GNum):
        return value.log_value
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Report):
        return value.to_dict()
    return value


def _optional(tp: Any) -> bool:
    return typing.get_origin(tp) is typing.Union


def _decode(tp: Any, raw: Any) -> Any:
    if _optional(tp):
        if raw is None:
            return None
        (tp,) = [t for t in typing.get_args(tp) if t is not type(None)]
    if tp is GNum:
        return GNum(float(raw))
    if isinstance(tp, type) and issubclass(tp, Report):
        return tp.from_dict(raw)
    return tp(raw)


class Report:
    """Mixin giving a frozen dataclass its ``to_dict``/``from_dict``."""

    derived: ClassVar[tuple[str, ...]] = ()

    def to_dict(self) -> dict:
        """The report as JSON-ready data."""
        out: dict = {}
        for f in dataclasses.fields(self):
            *outer, key = f.metadata.get("json_key", (f.name,))
            target = out
            for part in outer:
                target = target.setdefault(part, {})
            target[key] = _encode(getattr(self, f.name))
        for name in self.derived:
            out[name] = _encode(getattr(self, name))
        return out

    @classmethod
    def from_dict(cls, d: dict):
        """Rebuild a report from what :meth:`to_dict` wrote."""
        hints = typing.get_type_hints(cls)
        kwargs = {}
        for f in dataclasses.fields(cls):
            *outer, key = f.metadata.get("json_key", (f.name,))
            src = d
            for part in outer:
                src = src[part]
            if key in src:
                kwargs[f.name] = _decode(hints[f.name], src[key])
            elif f.default is dataclasses.MISSING:
                if not _optional(hints[f.name]):
                    raise KeyError(key)
                kwargs[f.name] = None
        return cls(**kwargs)
