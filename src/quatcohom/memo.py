"""One memo for the methods whose results an object computes once.

Each result is kept on the instance itself, keyed by the call's arguments,
as `functools.cached_property` keeps an attribute: nothing is shared
between instances and no result refers back to its instance, where
`functools.cache` on a method would keep every instance alive.  A raised
`EngineError` is kept and raised again, so every reader fails with the
same detail; its traceback does refer back, a cycle the collector frees.
"""

from functools import wraps
from inspect import signature

from .errors import EngineError

_NONE = object()  # with the arguments, the key of a kept error


def memo(method):
    """The method, run once per instance and arguments; `results(instance)`
    is that instance's store, for the tests that inject a fault into it."""
    key = f"memo {method.__qualname__}"  # a space keeps it off attribute names

    def results(instance):
        if not hasattr(instance, key):
            object.__setattr__(instance, key, {})  # frozen dataclasses too
        return getattr(instance, key)

    @wraps(method)
    def cached(self, *args, **kwargs):
        if kwargs:  # one key for a call however its arguments are passed
            args = signature(method).bind(self, *args, **kwargs).args[1:]
        try:  # the hit path, kept short: `rank` comes here on every call
            return getattr(self, key)[args]
        except (AttributeError, KeyError):
            pass
        store = results(self)
        if (_NONE, args) in store:
            raise store[_NONE, args]
        try:
            outcome = store[args] = method(self, *args)
        except EngineError as exc:
            store[_NONE, args] = exc
            raise
        return outcome

    cached.results = results
    return cached
