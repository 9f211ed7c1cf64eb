"""Frozen records without the ``dataclasses`` machinery, which costs a
CLI start its ``inspect`` import and an ``exec`` per generated method.

``record`` takes a class's own annotations as its fields, in order, and
class attributes of those names as defaults; it adds ``__init__`` (one
write of the instance ``__dict__``, then ``self.__post_init__()``),
equality, hashing and a repr over the fields, and refuses every write.
Copies, pickles and ``cached_property`` use the ``__dict__``.  What a
record keeps besides its fields has no annotation: ``__post_init__`` or
a constructor sets it, and it takes no part in equality or the repr.
"""

from operator import attrgetter


def record(cls):
    names = tuple(cls.__annotations__)
    fields = frozenset(names)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    n = len(names)
    get = attrgetter(*names)
    key = get if n > 1 else lambda self: (get(self),)

    def __init__(self, *args, **kwargs):
        if len(args) == n and not kwargs:
            values = dict(zip(names, args))
        elif not args and kwargs.keys() == fields:
            values = kwargs
        else:  # defaults fill in, or the call is refused
            values = {**defaults, **dict(zip(names, args)), **kwargs}
            if len(args) > n or values.keys() != fields or not kwargs.keys().isdisjoint(names[: len(args)]):
                given = f"{len(args)} by position and {', '.join(kwargs) or 'none'} by keyword"
                raise TypeError(f"{cls.__name__}() takes {', '.join(names)}; got {given}")
        object.__setattr__(self, "__dict__", values)
        self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        return f"{cls.__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in names)})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{cls.__name__} is frozen: cannot set or delete {name!r}")

    cls.__init__, cls.__eq__, cls.__hash__, cls.__repr__ = __init__, __eq__, __hash__, __repr__
    cls.__setattr__ = cls.__delattr__ = __setattr__
    if not hasattr(cls, "__post_init__"):
        cls.__post_init__ = lambda self: None
    return cls
