"""The one error type for broken internal invariants."""


class InternalError(RuntimeError):
    """A broken invariant: a bug in witrees, never bad input.  Raised
    instead of `assert` so the check survives `python -O`."""
