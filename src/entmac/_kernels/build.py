"""Build the compiled kernel from the hand-written ``_fast.c``.

``python src/entmac/_kernels/build.py`` compiles it next to itself, as the
extension module ``_fast`` that ``entmac._kernels`` imports when present.
Nothing in the package imports this module: the build is a step of its own,
and the package runs on the pure backend until it has been taken.

Run it by its path. Run so, it imports only the standard library, so it
replaces a ``_fast`` that cannot load, such as one built for a sanitizer
whose runtime is not preloaded. ``python -m entmac._kernels.build`` first
imports the package ``entmac._kernels``, which loads the ``_fast`` already
built, and a module that aborts as it loads stops the rebuild too.
"""

from __future__ import annotations

import shutil
import subprocess
import sysconfig
from pathlib import Path

SOURCE = Path(__file__).with_name("_fast.c")


def build(target: Path | None = None, flags: tuple[str, ...] = ()) -> Path:
    """Compile ``_fast.c`` into the extension ``target`` (default: next to the source).

    ``flags`` are appended to the compiler command. Raises FileNotFoundError
    when there is no C compiler (gcc or cc) or no Python headers, and
    subprocess.CalledProcessError when the compiler fails.
    """
    compiler = shutil.which("gcc") or shutil.which("cc")
    include = sysconfig.get_paths()["include"]
    if compiler is None or not Path(include, "Python.h").exists():
        raise FileNotFoundError("building _fast.c needs gcc or cc and the Python headers")
    if target is None:
        target = SOURCE.with_name("_fast" + sysconfig.get_config_var("EXT_SUFFIX"))
    subprocess.run([compiler, "-O2", "-shared", "-fPIC", f"-I{include}",
                    str(SOURCE), "-o", str(target), *flags], check=True)
    return Path(target)


if __name__ == "__main__":
    print(build())
