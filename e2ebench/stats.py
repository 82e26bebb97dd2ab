"""Summary statistics shared by run.py, spread.py and the self-tests."""

import re
import statistics

# Metric and workload names: a letter or digit, then up to 63 of
# letters, digits, '_', '.', '-'.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# The tail is this nearest-rank percentile of a run's op times. A
# --trace 0 run measures at least TAIL_MIN_OPS ops, so at least
# TAIL_BEYOND of them always lie beyond it.
TAIL_PCT = 75
TAIL_BEYOND = 10
TAIL_MIN_OPS = TAIL_BEYOND * 100 // (100 - TAIL_PCT)


def valid_name(name):
    return NAME_RE.fullmatch(name) is not None


def median(values):
    return statistics.median(values)


def tail(values, pct=TAIL_PCT, beyond=TAIL_BEYOND):
    """Nearest-rank `pct` percentile, which needs >= `beyond` samples above it.

    Returns (value, samples beyond it, samples). With n samples sorted
    ascending the percentile is the k-th smallest (1-based), k = ceil(pct *
    n / 100), and n - k samples lie beyond it.
    """
    n = len(values)
    k = -(-pct * n // 100)
    if n - k < beyond:
        raise ValueError(f"p{pct} of {n} samples has {n - k} beyond it, "
                         f"fewer than {beyond}")
    return sorted(values)[k - 1], n - k, n


def quartile_spread(values):
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
