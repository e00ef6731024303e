"""Build script: compiles the optional search kernel.

``_kernel.c`` is plain C without the Python C-API; the package loads the
resulting shared library with ctypes.  The package is fully functional without
it (the pure-Python kernel is selected at import time), so a failed compile
only warns.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("gurag_reach._kernel", ["src/gurag_reach/_kernel.c"],
                             extra_compile_args=["-O2"], optional=True)])
