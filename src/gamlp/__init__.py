"""Scalable graph learning: propagate once, then train an attention MLP.

Importing the package loads no submodule, so the CLI can pin thread counts
before the numerics libraries load. Import names from the submodules.
"""

__version__ = "0.1.0"
