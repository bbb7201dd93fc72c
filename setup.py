"""``python setup.py build`` entry point; the configuration is in pyproject.toml.

The build is pure Python. The compiled kernel is a separate step:
``python src/entmac/_kernels/build.py``.
"""

from setuptools import setup

setup()
