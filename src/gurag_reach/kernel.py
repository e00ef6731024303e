"""Search-kernel selection: the compiled kernel when built, pure Python otherwise.

The compiled kernel is ``_kernel.c``, built by ``setup.py`` into a shared
library next to this module and called through ``ctypes`` (imported only when
that library exists, as it costs start-up time).  Both kernels take states of
any width.  Outcomes are identical by contract (tested), only throughput
differs.
"""

from __future__ import annotations

import os
from importlib.machinery import EXTENSION_SUFFIXES
from typing import Optional

from . import _kernel_py
from .encoding import CompiledInstance


def load(path: str):
    """The compiled kernel in the shared library at ``path``."""
    from ._kernel_ctypes import CKernel

    return CKernel(path)


def _installed():
    here = os.path.dirname(os.path.abspath(__file__))
    for suffix in EXTENSION_SUFFIXES:
        path = os.path.join(here, "_kernel" + suffix)
        if os.path.exists(path):
            try:
                return load(path)
            except (OSError, AttributeError):  # not loadable, or not built from _kernel.c
                return None
    return None


_compiled = _installed()

HAVE_COMPILED = _compiled is not None


# Neither function reads ``ci``, as both kernels take every instance.  They keep
# it because perfbench/worker.py calls both with it and perfbench/pipeline.py
# calls ``select``.
def compiled_supports(ci: CompiledInstance) -> bool:
    return _compiled is not None


def select(ci: CompiledInstance, engine: Optional[str] = None):
    """Pick the kernel; ``engine`` may force one."""
    if engine in (None, "auto"):
        return _kernel_py if _compiled is None else _compiled
    if engine == "python":
        return _kernel_py
    if engine == "compiled":
        if _compiled is None:
            raise RuntimeError("compiled kernel is not available in this build")
        return _compiled
    raise ValueError(f"unknown kernel {engine!r}")
