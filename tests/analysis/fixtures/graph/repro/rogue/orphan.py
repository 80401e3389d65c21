"""DEAD002 bait: no entrypoint, example, benchmark or module imports this."""

__all__ = ["lonely"]


def lonely():
    """Never reached."""
    return 42
