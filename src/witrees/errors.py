"""The package's three error types: a bug, and the two ways tree text can
be bad.  Every other usage error is a plain `ValueError`."""


class InternalError(RuntimeError):
    """A broken invariant: a bug in witrees, never bad input.  Raised
    instead of `assert` so the check survives `python -O`."""


class TreeSyntaxError(ValueError):
    """Malformed plane or binary tree text; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InvalidTreeError(ValueError):
    """Well-formed plane or binary tree text that violates a tree invariant."""
