"""``python -m pfg``: the ``pfg`` command line, without an install."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
