"""NumPy on first need: each rigid3d module's ``np`` is this module until a name is first read from it.

That first read imports NumPy, rebinds ``np`` to NumPy itself in the
module that made the read and returns the name, so that module's later
reads cost what they cost with a plain ``import numpy as np``. A module
passes through here only on its own first read. The reading module is
found by its globals, not by name, so a copy of the package loaded under
other ``sys.modules`` keys, or whose modules have left ``sys.modules``,
works too.
``import numpy`` runs under the import lock: a thread that arrives while
another is importing waits until NumPy is whole, and no stub module ever
enters ``sys.modules``.
"""

import sys

_this = sys.modules[__name__]


def __getattr__(name: str):
    if name.startswith("__"):  # introspection probes dunders (doctest's finder, inspect.unwrap): it loads nothing
        raise AttributeError(name)
    import numpy as np

    reader = sys._getframe(1).f_globals  # the globals of the code that read np.<name>
    if reader.get("np") is _this:
        reader["np"] = np
    return getattr(np, name)
