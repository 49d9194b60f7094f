"""Modules that are bound at import time but executed on first use.

`scipy.integrate` serves only `dependence.kendall_tau_numeric` and
`scipy.optimize` only the second-kind beta law's generator, and importing
them costs more than the rest of riskmix (`scipy.integrate` alone adds
about 26 MB and 0.27 s to a process that has imported `riskmix.cli`, on a
2-vCPU host).  `lazy_import` puts the module object in `sys.modules` (and
under the caller's name) without running it; the first attribute access executes it in place, so
every holder sees the same, then real, module.

Before Python 3.12 the first access is not thread-safe.  The only threads
riskmix starts, simulate's sampling workers, draw random numbers and touch
neither module.
"""

import importlib.util
import sys


def lazy_import(name):
    """Module `name`, executed on first attribute access (the stdlib
    `importlib.util.LazyLoader` recipe).  An already imported module is
    returned as it is."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module
