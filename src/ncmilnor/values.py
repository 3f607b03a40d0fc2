"""Immutable value classes with ``__slots__``.

``value_class`` completes a class that lists its fields in ``__slots__``
the way ``@dataclass(frozen=True)`` would, at a fraction of the import
cost.  The fields are the public names in ``__slots__``, in order, at
least two of them; a slot whose name starts with an underscore holds
derived state (an index, a memo) and takes no part in equality, hashing,
the repr or pickling.

The decorated class gets:

* ``__init__(self, field, ...)``, positional or keyword, unless the class
  writes its own (which then sets each slot with ``object.__setattr__``);
* ``==`` true only between instances of the same class with equal fields,
  and the matching ``hash``, both on the tuple of field values;
* the dataclass repr, ``Name(field=value!r, ...)``;
* ``AttributeError`` on assignment and deletion;
* ``__reduce__``, which rebuilds an instance by calling the class with its
  field values, so ``pickle``, ``copy`` and ``deepcopy`` work.
"""

from __future__ import annotations

from operator import attrgetter


def value_class(cls: type) -> type:
    fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
    if len(fields) < 2:  # attrgetter of one name returns the bare value, not a tuple
        raise TypeError(f"{cls.__qualname__} needs at least two public slots")
    values = attrgetter(*fields)

    if "__init__" not in cls.__dict__:
        # a generated signature, as dataclasses writes one: positional and
        # keyword calls bind at C speed, and each slot is set through its
        # descriptor, past the __setattr__ that refuses assignment
        setters = {f"set_{name}": cls.__dict__[name].__set__ for name in fields}
        source = f"def __init__(self, {', '.join(fields)}):\n" + "".join(
            f"    set_{name}(self, {name})\n" for name in fields)
        exec(source, setters)
        init = setters["__init__"]
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in zip(fields, values(self)))
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, values(self)

    for method in (__eq__, __hash__, __repr__, __setattr__, __delattr__, __reduce__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    cls.__match_args__ = fields
    return cls
