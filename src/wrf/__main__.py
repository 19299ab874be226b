"""The `wrf` command: wrf.cli with one BLAS thread when none is set.

OpenBLAS reads OPENBLAS_NUM_THREADS before OMP_NUM_THREADS, so when any
of the three variables is set none is changed. Imports no numpy.
"""

import os
import sys

from .worker import _BLAS_THREAD_VARS


def main(argv=None) -> int:
    if not any(os.environ.get(var) for var in _BLAS_THREAD_VARS):
        os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    from .cli import main as cli_main  # numpy loads here

    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main())
