"""Resource budget, exact range and block size shared across modules.

The environment variable EQSEQ_MAX_PERIOD caps the sequence period (and with it
the degree of any polynomial this package will materialize).  Polynomial
arithmetic runs on Python integers and the Euler-quotient lift widens to int64
where int32 would overflow, so both are exact at any size.  The structural
audit multiplies two residues below the period N in int64, exact only while
N^2 < 2^63: check_exact refuses a longer period.  Within that range
q^2 = N/p <= N/3 (p is an odd prime), so q < 2^15 and every coset label fits
int16.
"""

import math
import os

from .errors import ResourceError

DEFAULT_MAX_PERIOD = 10**6

# the longest period whose products of two residues below it fit int64
EXACT_PERIOD = math.isqrt(2**63 - 1)

# entries per block of the two streamed passes, the psi lift (eulerq._psi_rows)
# and lemma 7's claims (residues._q2_claims), so that each reader holds one
# block (at least one row of its view), not period-length temporaries
BLOCK = 1 << 13

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


def check_exact(period: int) -> None:
    """Raise ResourceError past EXACT_PERIOD, where the audit's int64
    products of two residues below the period would wrap."""
    if period > EXACT_PERIOD:
        raise ResourceError(f"period {period} exceeds the audit's exact range {EXACT_PERIOD}: "
                            "products of two residues below it overflow int64")


def per_block(row_len: int) -> int:
    """Rows of row_len entries per block of the streamed passes, at least one."""
    return max(1, BLOCK // row_len)
