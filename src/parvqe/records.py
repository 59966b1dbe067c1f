"""Record classes: dataclasses' semantics, with methods written once in source.

A record class subclasses Record and declares its fields as annotated
class attributes, with plain defaults or factory(fn) for a fresh default
per instance, and checks them in __post_init__. Records construct by
position or keyword, repr as `Name(field=value, ...)` and equal only
records of their own class. `frozen=True` refuses assignment and deletion
and hashes by value; a mutable record is unhashable; `eq=False` keeps identity.
"""


class FrozenInstanceError(AttributeError):
    """An assignment to or deletion of an attribute of a frozen record."""


class factory:
    """A field default made by calling fn() for each instance that omits it."""

    def __init__(self, fn):
        self.fn = fn


def _refuse(self, name, *value):
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


class Record:
    field_names: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, frozen: bool = False, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls.field_names = (*cls.field_names, *own)
        defaults = {name: cls.__dict__[name] for name in own if name in cls.__dict__}
        cls._defaults = {**cls._defaults, **defaults}
        for name, value in defaults.items():
            if isinstance(value, factory):
                delattr(cls, name)
        if frozen:
            cls.__setattr__ = cls.__delattr__ = _refuse
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__
        elif not frozen:
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        self.__dict__.update(self._bind(args, kwargs))
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def _bind(self, args, kwargs) -> dict:
        """Field values, in order: args by position, then kwargs, then defaults."""
        names, defaults = self.field_names, self._defaults
        values = dict(zip(names, args))
        unknown = [name for name in kwargs if name not in names or name in values]
        missing = [name for name in names
                   if name not in values and name not in kwargs and name not in defaults]
        if len(args) > len(names) or unknown or missing:
            raise TypeError(f"{type(self).__qualname__}() takes {len(names)} fields, got "
                            f"{len(args)} positional; unknown or repeated: {unknown}; "
                            f"missing: {missing}")
        values.update(kwargs)
        for name in names:
            if name not in values:
                default = defaults[name]
                values[name] = default.fn() if isinstance(default, factory) else default
        return {name: values[name] for name in names}

    def _astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self.field_names)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.field_names)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())
