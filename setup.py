"""``python setup.py build`` entry point; the configuration is in pyproject.toml.

The build is pure Python. The compiled kernel is a separate step:
``python -m entmac._kernels.build``.
"""

from setuptools import setup

setup()
