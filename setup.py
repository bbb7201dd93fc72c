"""Build the optional compiled kernel.

The extension is a speedup only: if Cython is unavailable the package
installs pure-Python and selects the fallback kernels at import time.
"""

from setuptools import Extension, setup


def extensions():
    try:
        from Cython.Build import cythonize
    except ImportError:
        return []
    ext = Extension(
        "entmac._kernels._fast",
        ["src/entmac/_kernels/_fast.pyx"],
        # no fast-math, no fp contraction: the compiled kernels must match the
        # pure backend bit for bit
        extra_compile_args=["-O2", "-ffp-contract=off"],
    )
    return cythonize([ext], compiler_directives={"language_level": "3"})


setup(ext_modules=extensions())
