"""Build script: compiles the optional search kernel.

``_kernel.c`` is plain C without the Python C-API; the package loads the
resulting shared library with ctypes.  The package is fully functional without
it (the pure-Python kernel is selected at import time), so a failed compile
only warns; set GURAG_REACH_PURE=1 to skip compilation.
"""

import os

from setuptools import Extension, setup

ext_modules = []
if os.environ.get("GURAG_REACH_PURE") != "1":
    ext_modules = [Extension("gurag_reach._kernel", ["src/gurag_reach/_kernel.c"],
                             extra_compile_args=["-O2"], optional=True)]

setup(ext_modules=ext_modules)
