"""Exact-arithmetic blow-up Whitney forms on simplices and triangulations.

The package root holds only ``__version__``: import each name from the module
that defines it (``blowupforms.symexpr``, ``blowupforms.mesh``, ...).  Only
``blowupforms.mcoracle`` imports numpy, for the Monte Carlo face integral, so
only ``mc-verify --target dof`` loads it; the races draw from ``random``.
"""

__version__ = "0.1.0"
