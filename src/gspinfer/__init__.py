"""Value-per-click inference from repeated GSP auction data under no-regret play.

Submodules load on first use (PEP 562): ``import gspinfer`` imports none of
them, and ``from gspinfer import X`` imports the module that defines ``X``.
"""

import importlib

__version__ = "0.1.0"

#: The modules whose public classes and functions ``gspinfer`` re-exports, searched in this order.
_MODULES = ("auction", "auctionlog", "inference", "pipeline", "simulate", "geometry")


def __getattr__(name: str):
    if name in _MODULES or name == "cli":
        return importlib.import_module(f"{__name__}.{name}")
    if not name.startswith("_"):
        for modname in _MODULES:
            module = importlib.import_module(f"{__name__}.{modname}")
            value = getattr(module, name, None)
            if callable(value) and value.__module__ == module.__name__:
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
