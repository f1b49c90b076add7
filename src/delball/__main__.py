"""``python -m delball`` and the ``delball`` script: ``cli.main`` returns a code, ``run`` owns the exit."""

import os
import sys

from .cli import main


def run():
    """Run ``main``, flush stdout and then stderr, and end the process with
    ``main``'s code by ``os._exit``: no interpreter teardown, no ``atexit`` handler."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            try:
                stream.flush()
            except (OSError, ValueError):  # main has already made a failed write its exit code
                pass
    os._exit(code)


if __name__ == "__main__":
    run()
