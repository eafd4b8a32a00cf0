"""Base classes for the library's plain records.

A record's fields are the attributes its ``__init__`` sets, in that order.
Records of one class are equal when their fields are, and print as a
constructor call.  They need no import, where the standard library's record
decorator pulls ``inspect`` and ``ast`` into every job process.
"""


class Record:
    """A mutable record; unhashable, as it compares by value."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __repr__(self):
        fields = ", ".join("%s=%r" % item for item in self.__dict__.items())
        return "%s(%s)" % (type(self).__name__, fields)


class FrozenRecord(Record):
    """A record whose ``__init__`` sets its fields once, through
    ``self.__dict__``; hashed by its fields."""

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __setattr__(self, name, value=None):
        raise AttributeError("%s is frozen: field %r cannot change" % (type(self).__name__, name))

    __delattr__ = __setattr__
