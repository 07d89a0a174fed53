"""The frozen record base of the library's value classes, and the JSON field
readers of every input format, which raise ValueError rather than coerce.
"""


class _Record:
    """A frozen value record whose fields are its ``__slots__``.

    Equality holds only between instances of the same class with equal
    fields, the hash is over the fields and the repr has the dataclass form.
    Assignment raises, so a subclass's ``__init__`` sets its fields with
    ``object.__setattr__``, as a frozen dataclass does; copies and pickles
    rebuild a record through that ``__init__``.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


_set = object.__setattr__  # how a record's __init__ sets its fields


def _json_int(value, what: str) -> int:
    """An integer from a JSON integer or decimal string; anything else raises ValueError."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"{what} must be an integer or a decimal string, got {value!r}")


def _json_id(value, what: str):
    """A vertex, edge or leg id: a JSON string or integer; anything else raises ValueError."""
    if isinstance(value, str) or (isinstance(value, int) and not isinstance(value, bool)):
        return value
    raise ValueError(f"{what} must be a string or an integer, got {value!r}")


def _json_ids_apart(ids, what: str) -> None:
    """Raise ValueError when two different ids print alike, such as 1 and "1".

    Such ids would collide as JSON object keys; exact repeats are left to the
    caller's duplicate checks.
    """
    seen: dict = {}
    for i in ids:
        first = seen.setdefault(str(i), i)
        if first != i:
            raise ValueError(f"{what}s {first!r} and {i!r} share the JSON key {str(i)!r}")


def _json_str(value, what: str) -> str:
    """A JSON string; anything else raises ValueError."""
    if not isinstance(value, str):
        raise ValueError(f"{what} must be a string, got {value!r}")
    return value


def _json_object(value, what: str) -> dict:
    """A JSON object; anything else raises ValueError."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be an object, got {type(value).__name__}")
    return value


def _json_list(value, what: str) -> list:
    """A JSON list; anything else raises ValueError."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list, got {type(value).__name__}")
    return value


def _json_objects(value, what: str, each: str) -> list:
    """A JSON list of objects; anything else raises ValueError."""
    for item in _json_list(value, what):
        _json_object(item, f"each {each}")
    return value
