"""Immutable records with named fields.

A Record subclass lists its fields in __slots__.  Instances are built
positionally or by field name, compare equal when their classes and field
values are equal, hash by their field values, print as
Class(field=value, ...) and refuse attribute assignment.  This is the
behaviour of a frozen dataclass, without importing dataclasses (and with it
inspect) on every start of the command line.
"""


class Record:
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        cls = type(self).__name__
        fields = self.__slots__
        if len(args) > len(fields):
            raise TypeError("%s() takes %d arguments, got %d" % (cls, len(fields), len(args)))
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields or name in values:
                raise TypeError("%s() got an unexpected or repeated argument %r" % (cls, name))
            values[name] = value
        missing = [name for name in fields if name not in values]
        if missing:
            raise TypeError("%s() missing arguments: %s" % (cls, ", ".join(missing)))
        for name in fields:
            object.__setattr__(self, name, values[name])

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__,
                           ", ".join("%s=%r" % (name, getattr(self, name))
                                     for name in self.__slots__))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of %s" % (name, type(self).__name__))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of %s" % (name, type(self).__name__))

    def __reduce__(self):
        return type(self), self._values()
