"""Exact relative cohomology of the reduced complex, over the rationals.

Ranks of the (integer) incidence matrices are computed exactly: a sparse
elimination that only ever pivots on +-1 entries (row operations stay in Z),
with a dense Fraction-arithmetic sweep for whatever survives.  No floating
point is involved, so the dimension table is an exact integer object that the
spectral kernel counts can be checked against.
"""

from __future__ import annotations

import heapq
import json
import re
from dataclasses import dataclass
from fractions import Fraction

import scipy.sparse as sp

from .forms import DecOperators
from .geometries import CANNED


def integer_rank(mat) -> int:
    """Exact rank over Q of an integer sparse matrix."""
    mat = sp.coo_matrix(mat)
    rows: dict[int, dict[int, int]] = {}
    colrows: dict[int, set[int]] = {}
    for r, c, v in zip(mat.row, mat.col, mat.data):
        v = int(v)
        if v == 0:
            continue
        rows.setdefault(int(r), {})[int(c)] = rows.get(int(r), {}).get(int(c), 0) + v
    for r in list(rows):
        rows[r] = {c: v for c, v in rows[r].items() if v != 0}
        if not rows[r]:
            del rows[r]
    for r, rd in rows.items():
        for c in rd:
            colrows.setdefault(c, set()).add(r)

    rank = 0
    heap = [(len(rd), r) for r, rd in rows.items()]
    heapq.heapify(heap)
    stale: list[int] = []
    while heap:
        ln, r = heapq.heappop(heap)
        rd = rows.get(r)
        if rd is None:
            continue
        if len(rd) != ln:
            heapq.heappush(heap, (len(rd), r))
            continue
        # best unit pivot in this row
        best = None
        for c, v in rd.items():
            if v in (1, -1):
                cost = len(colrows[c])
                if best is None or cost < best[0]:
                    best = (cost, c, v)
        if best is None:
            stale.append(r)
            continue
        _, c, v = best
        rank += 1
        pivot = rows.pop(r)
        for cc in pivot:
            colrows[cc].discard(r)
        for r2 in list(colrows.get(c, ())):
            rd2 = rows.get(r2)
            if rd2 is None or c not in rd2:
                continue
            factor = rd2[c] * v  # pivot value is +-1
            for cc, vv in pivot.items():
                new = rd2.get(cc, 0) - factor * vv
                if new == 0:
                    rd2.pop(cc, None)
                    colrows[cc].discard(r2)
                else:
                    if cc not in rd2:
                        colrows.setdefault(cc, set()).add(r2)
                    rd2[cc] = new
            if rd2:
                heapq.heappush(heap, (len(rd2), r2))
            else:
                rows.pop(r2, None)
        colrows.pop(c, None)

    # rows without unit entries left over: small dense Fraction elimination
    leftovers = [rows[r] for r in stale if r in rows and rows[r]]
    leftovers += [rd for r, rd in rows.items() if r not in stale and rd]
    if leftovers:
        cols = sorted({c for rd in leftovers for c in rd})
        cmap = {c: i for i, c in enumerate(cols)}
        if len(leftovers) * len(cols) > 4_000_000:
            raise RuntimeError("integer rank fallback block unexpectedly large")
        dense = [[Fraction(0)] * len(cols) for _ in leftovers]
        for i, rd in enumerate(leftovers):
            for c, v in rd.items():
                dense[i][cmap[c]] = Fraction(v)
        rank += _fraction_rank(dense)
    return rank


def _fraction_rank(a: list[list[Fraction]]) -> int:
    m = len(a)
    n = len(a[0]) if m else 0
    rank = 0
    row = 0
    for col in range(n):
        piv = None
        for r in range(row, m):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        pv = a[row][col]
        for r in range(row + 1, m):
            if a[r][col] != 0:
                f = a[r][col] / pv
                a[r] = [x - f * y for x, y in zip(a[r], a[row])]
        rank += 1
        row += 1
        if row == m:
            break
    return rank


@dataclass
class CohomologyReport:
    """Per-degree relative cohomology dimensions with optional cross-checks."""

    dims: dict[int, int]
    harmonic_dims: dict[int, int] | None = None
    expected: dict[int, int] | None = None

    def match_flags(self) -> dict[int, bool]:
        if self.harmonic_dims is None:
            return {}
        top = max(self.dims)
        return {
            p: self.dims[p] == self.harmonic_dims.get(p)
            for p in sorted(self.harmonic_dims)
            if 1 <= p <= top - 1
        }

    def to_json(self) -> str:
        rows = []
        for p in sorted(self.dims):
            rows.append(
                {
                    "p": p,
                    "dim_rel": self.dims[p],
                    "dim_harmonic": None
                    if self.harmonic_dims is None
                    else self.harmonic_dims.get(p),
                    "expected": None if self.expected is None else self.expected.get(p),
                    "match": self.match_flags().get(p),
                }
            )
        return json.dumps(rows, sort_keys=True, indent=1)


def relative_cohomology_dims(ops: DecOperators) -> CohomologyReport:
    """Exact dims of H^p of the relative (fully masked) cochain complex."""
    d = ops.complex.dim
    ranks = {p: integer_rank(ops.d(p)) for p in range(d)}  # rank d_p; d_d = 0
    dims = {p: ops.n(p) - ranks.get(p, 0) - ranks.get(p - 1, 0) for p in range(d + 1)}
    return CohomologyReport(dims=dims)


def expected_dims(geometry_id: str) -> dict[int, int]:
    """The expected dims of H^1 and H^2 of a canned geometry (``balls(N)`` means ``balls:N``)."""
    geo = CANNED.get(re.sub(r"^balls\((\d+)\)$", r"balls:\1", geometry_id))
    if geo is None:
        raise KeyError(f"no expected dimension table for {geometry_id!r}")
    return {1: geo.expected_h1, 2: geo.expected_h2}


def check_harmonic_match(
    report: CohomologyReport, kernel_dims: dict[int, int]
) -> dict[int, bool]:
    """Equality flags dim H^p == dim ker Delta_p for 1 <= p <= d-1."""
    report.harmonic_dims = dict(kernel_dims)
    return report.match_flags()
