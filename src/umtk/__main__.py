"""Run the command line as `python -m umtk`."""

from .cli import entry

if __name__ == "__main__":
    entry()
