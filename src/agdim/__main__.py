"""``python -m agdim``: the same command line as the ``agdim`` script."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
