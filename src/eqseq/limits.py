"""Resource budget shared across modules.

The environment variable EQSEQ_MAX_PERIOD caps the sequence period (and with it
the degree of any polynomial this package will materialize).  All arithmetic is
exact at any size thanks to Python integers; the cap guards memory and runtime,
not correctness.
"""

import os

from .errors import ResourceError

DEFAULT_MAX_PERIOD = 10**6

_ENV_VAR = "EQSEQ_MAX_PERIOD"


def max_period() -> int:
    """Current period/degree budget (reads EQSEQ_MAX_PERIOD on every call)."""
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_PERIOD
    try:
        value = int(raw)
    except ValueError:
        raise ResourceError(f"{_ENV_VAR} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ResourceError(f"{_ENV_VAR} must be positive, got {value}")
    return value


def check_budget(label: str, size: int) -> None:
    """Raise ResourceError when `size` (named by `label`) exceeds the budget."""
    budget = max_period()
    if size > budget:
        raise ResourceError(f"{label} {size} exceeds budget {budget} ({_ENV_VAR})")
