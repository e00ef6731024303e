"""The search kernel's name table: there is one kernel, ``_kernel_py``.

These three names exist only for ``perfbench/``, which imports them, until
ROADMAP direction 1 moves the benchmark onto ``search.analyze`` and removes
them; the package itself calls ``_kernel_py.bfs`` directly.
"""

from __future__ import annotations

from . import _kernel_py
from .encoding import CompiledInstance

HAVE_COMPILED = False


def compiled_supports(ci: CompiledInstance) -> bool:
    return False


def select(ci: CompiledInstance, kernel: str = "auto"):
    """``_kernel_py`` for "auto" and "python"; no other kernel is built."""
    if kernel in ("auto", "python"):
        return _kernel_py
    if kernel == "compiled":
        raise RuntimeError("compiled kernel is not available in this build")
    raise ValueError(f"unknown kernel {kernel!r}")
