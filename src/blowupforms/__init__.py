"""Exact-arithmetic blow-up Whitney forms on simplices and triangulations.

The package root holds only ``__version__``: import each name from the module
that defines it (``blowupforms.symexpr``, ``blowupforms.mesh``, ...).  Only
``blowupforms.mcoracle`` imports numpy, and only ``mc-verify`` loads it.
"""

__version__ = "0.1.0"
