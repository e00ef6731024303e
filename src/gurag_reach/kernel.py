"""Search-kernel selection: the compiled kernel when built, pure Python otherwise.

The compiled kernel is ``_kernel.c``, built by ``setup.py`` into a shared
library next to this module and called through ``ctypes`` (imported only when
that library exists, as it costs start-up time).  Both kernels take states of
any width.  Outcomes are identical by contract (tested), only throughput
differs: the compiled kernel's per-call marshalling makes it the slower one on
small searches, and it is faster on large ones.  "auto" picks it whenever it
is built.
"""

from __future__ import annotations

import os
from importlib.machinery import EXTENSION_SUFFIXES

from . import _kernel_py
from .encoding import CompiledInstance


def load(path: str):
    """The compiled kernel in the library at ``path``; OSError unless built from ``_kernel.c``."""
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
# calls ``select``; tests/test_benchmark_imports.py fails if either is removed.
def compiled_supports(ci: CompiledInstance) -> bool:
    return _compiled is not None


def select(ci: CompiledInstance, kernel: str = "auto"):
    """The kernel named ``kernel``: "auto" is the compiled one when it is
    built and the pure one otherwise; "python" and "compiled" force one."""
    if kernel == "auto":
        return _kernel_py if _compiled is None else _compiled
    if kernel == "python":
        return _kernel_py
    if kernel == "compiled":
        if _compiled is None:
            raise RuntimeError("compiled kernel is not available in this build")
        return _compiled
    raise ValueError(f"unknown kernel {kernel!r}")
