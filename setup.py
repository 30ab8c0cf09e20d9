"""Build script: compiles the optional kernel extension.

The package works without the extension (a numpy fallback with identical
arithmetic is selected at import time), so any failure to compile is
downgraded to a warning instead of aborting the install.
"""

import os

from setuptools import setup
from setuptools.command.build_ext import build_ext
from setuptools.extension import Extension


class OptionalBuildExt(build_ext):
    """Skip the compiled kernels when no working C toolchain is available."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # toolchain missing entirely
            self._skip(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # compile/link failure
            self._skip(exc)

    @staticmethod
    def _skip(exc):
        print(f"warning: skipping compiled kernels ({exc}); "
              f"the pure-Python fallback will be used")


def _extensions():
    if os.environ.get("ENSYTH_NO_EXT"):
        return []
    # -ffp-contract=off keeps mul/add rounding separate so the compiled
    # kernels are bit-identical to the numpy fallback.  -g0 drops the debug
    # information Python's own compile flags ask for: nothing reads it, and
    # it costs a quarter of the compile time.
    return [
        Extension(
            "ensyth._kernels._ckernels",
            sources=[os.path.join("src", "ensyth", "_kernels", "_ckernels.c")],
            extra_compile_args=["-O3", "-ffp-contract=off", "-g0"],
        )
    ]


setup(ext_modules=_extensions(), cmdclass={"build_ext": OptionalBuildExt})
