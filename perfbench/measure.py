"""Pure helpers shared by the benchmark, its compare mode and its self-tests:
order statistics, the tail percentile, span self time and import-time totals."""

from __future__ import annotations

import re
import statistics


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values) -> tuple[float, float, int]:
    """The highest percentile that has at least ten samples beyond it, as
    (value, percentile, samples beyond); "beyond" means strictly greater.

    The value is the largest sample with ten or more samples above it, and
    its percentile is the share of samples at or below it. With fewer than 20
    samples that percentile would lie below the median, so the samples show
    no tail: the median is returned instead, with its percentile 50 and its
    count beyond (under ten), and the caller reports it as such.
    """
    s = sorted(values)
    n = len(s)
    for i in range(n - 11, -1, -1):
        if s[i] < s[i + 1]:
            if 2 * (i + 1) >= n:
                return s[i], 100.0 * (i + 1) / n, n - 1 - i
            break
    med = statistics.median(s)
    return med, 50.0, sum(v > med for v in s)


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    that its direct child spans cover.

    ``spans`` is a sequence of (start, end, parent) with parent the index of
    the enclosing span, or -1 for a root.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(idx, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


_IMPORTTIME = re.compile(r"^import time:\s+\d+\s+\|\s+(\d+)\s+\|( *)(\S+)\s*$")


def import_seconds(importtime_log: str, package: str) -> float:
    """Cumulative seconds spent importing ``package`` and its submodules.

    Reads the stderr of ``python -X importtime``: a module's line follows the
    lines of everything it imported, indented two spaces deeper. Entries of
    the package nested inside another entry of the same package are already
    counted in their parent's cumulative figure.
    """
    rows = []
    for line in importtime_log.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            rows.append((int(m.group(1)), len(m.group(2)), m.group(3)))
    mine = lambda name: name == package or name.startswith(package + ".")
    total_us = 0
    # walk backwards: a line's parent is the nearest later line that is shallower
    open_parents: list[tuple[int, bool]] = []  # (depth, belongs to package)
    for cum_us, depth, name in reversed(rows):
        while open_parents and open_parents[-1][0] >= depth:
            open_parents.pop()
        inside = any(own for _, own in open_parents)
        if mine(name) and not inside:
            total_us += cum_us
        open_parents.append((depth, mine(name)))
    return total_us / 1e6
