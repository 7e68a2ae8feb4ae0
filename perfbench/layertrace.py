"""Spans and counters recorded from outside the program.

The tracer wraps public functions of the wreathlitt modules by replacing
module and class attributes.  Several modules import functions by name
(``from .symfunc import plethysm`` in ``branching``, and so on), so each
wrapper is installed in every namespace that calls it; the original objects
are put back by ``uninstall``.

Spans are aggregated per name while they run: call count, total time and
self time (total minus the time covered by child spans).  A span's parent
is the innermost span open when it started; the program is single-threaded
on every traced path, so child spans never overlap.
"""

from __future__ import annotations

import functools
import time
from collections import Counter


class _Stat:
    __slots__ = ("calls", "total", "self_time", "durations")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.durations: list[float] | None = None


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.counts: Counter[str] = Counter()
        self.maxima: dict[str, int] = {}
        self._child_time = [0.0]  # time covered by children of each open span
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def keep_durations(self, name: str) -> None:
        """Keep every duration of the named span, not only the aggregates."""
        stat = self._stat(name)
        if stat.durations is None:
            stat.durations = []

    def _stat(self, name: str) -> _Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = _Stat()
        return stat

    def timed(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        stack = self._child_time
        stack.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            children = stack.pop()
            stack[-1] += elapsed
            stat = self._stat(name)
            stat.calls += 1
            stat.total += elapsed
            stat.self_time += elapsed - children
            if stat.durations is not None:
                stat.durations.append(elapsed)

    def note_max(self, name: str, value: int) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    # -- patching -------------------------------------------------------

    def _replace(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def span(self, name: str, original, owners, attr: str | None = None, after=None) -> None:
        """Wrap original in a span wherever owners expose it under attr.

        ``after`` sees each result before it is returned.
        """
        def wrapper(*args, **kwargs):
            result = self.timed(name, original, *args, **kwargs)
            if after is not None:
                after(result)
            return result

        functools.update_wrapper(wrapper, original)
        for owner in owners:
            self._replace(owner, attr or original.__name__, wrapper)

    def count(self, name: str, original, owners, attrs) -> None:
        """Count calls to original under each of attrs of every owner."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        functools.update_wrapper(wrapper, original)
        for owner in owners:
            for attr in attrs:
                self._replace(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _bit_length(value) -> int:
    # Branching series are rational: numerator and denominator, whichever is longer.
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of every wreathlitt module."""
    from wreathlitt import branching, exactnum, oracle, partitions, symfunc, wreath

    # partitions
    tracer.span("partitions.character_table", partitions.character_table, [partitions])
    tracer.count("partitions.centralizer_order", partitions.centralizer_order, [partitions], ["centralizer_order"])
    tracer.count("partitions.character", partitions.symmetric_group_character, [partitions], ["symmetric_group_character"])

    # symfunc
    tracer.span("symfunc.plethysm", symfunc.plethysm, [symfunc, branching])
    tracer.span("symfunc.readoff", symfunc.hall_inner_product, [branching])
    series_mul = symfunc.SymSeries.__mul__

    def mul(self, other):
        if isinstance(other, symfunc.SymSeries):
            return tracer.timed("symfunc.product", series_mul, self, other)
        return series_mul(self, other)

    tracer._replace(symfunc.SymSeries, "__mul__", mul)

    # branching
    def series_size(series) -> None:
        tracer.note_max("symfunc.series_terms", len(series.terms))
        tracer.note_max("symfunc.coeff_bits", max(map(_bit_length, series.terms.values()), default=0))

    tracer.span("branching.series", branching.branching_series, [branching], after=series_size)
    tracer.keep_durations("branching.row")
    tracer.span("branching.row", branching._table_row, [branching])

    # wreath
    tracer.span("wreath.schur_at_eigenvalues", wreath.schur_at_eigenvalues, [wreath, oracle])
    tracer.span("wreath.frobenius_characteristic", wreath.frobenius_characteristic, [wreath, oracle])
    tracer.span("wreath.inner_product", wreath.wreath_inner_product, [wreath, oracle])

    # exactnum
    cyclotomic = exactnum.Cyclotomic
    tracer.count("exactnum.cyclotomic_mul", cyclotomic.__mul__, [cyclotomic], ["__mul__", "__rmul__"])
    tracer.count("exactnum.cyclotomic_add", cyclotomic.__add__, [cyclotomic], ["__add__", "__radd__"])
    tracer.count("exactnum.to_rational", exactnum.to_rational, [exactnum, branching, oracle], ["to_rational"])

    # oracle
    tracer.span("oracle.main", branching.branching_coefficient, [oracle])
    tracer.span("oracle.path_a", oracle.branching_by_pairing, [oracle])
    tracer.span("oracle.path_b", oracle.branching_by_character_average, [oracle])
    tracer.span("oracle.path_c", oracle.numeric_branching_estimate, [oracle])
