"""NumPy on first need: each rigid3d module's ``np`` is this module until a name is first read from it.

That first read imports NumPy, rebinds ``np`` to NumPy itself in the
module that made the read and in every loaded module that still holds
this one, and returns the name, so later reads cost what they cost with a
plain ``import numpy as np``. The modules are found by what they hold, not
by name, so a copy of the package loaded under other ``sys.modules`` keys
works too, and the reading module is found by its globals, so a copy whose
modules have left ``sys.modules`` is rebound on its first read as well.
``import numpy`` runs under the import lock: a thread that arrives while
another is importing waits until NumPy is whole, and no stub module ever
enters ``sys.modules``.
"""

import sys
import types

_this = sys.modules[__name__]


def __getattr__(name: str):
    if name.startswith("__"):  # introspection probes dunders (doctest's finder, inspect.unwrap): it loads nothing
        raise AttributeError(name)
    import numpy as np

    reader = sys._getframe(1).f_globals  # the globals of the code that read np.<name>
    for space in [reader, *(vars(m) for m in list(sys.modules.values()) if isinstance(m, types.ModuleType))]:
        if space.get("np") is _this:
            space["np"] = np
    return getattr(np, name)
