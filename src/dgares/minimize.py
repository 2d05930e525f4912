"""Gaussian cancellation of unit differential entries, with transfer data.

Cancelling a pair (g, h) with an invertible entry (equal multidegrees,
nonzero scalar) produces a homotopy-equivalent complex on the remaining
basis.  The inclusion/projection/homotopy triple is accumulated across
steps so the final minimal complex comes with exact maps back and forth:

    proj ∘ incl = id,     incl ∘ proj - id = d∘H + H∘d.

This is a reduction by algebraic discrete Morse theory (Sköldberg 2006;
Jöllenbeck–Welker 2009).  One engine, `_Reduction`, runs every
cancellation.  `minimize` searches its own pivots with a fixed policy:
the live unit entry with the smallest (hdeg of source, source id,
target id) goes first, or the largest with order="reversed".  A heap
holds those entries under the invariant "every live unit entry is in
the heap; stale ones are dropped on pop".  `cancel_pairs` feeds
prescribed pivots (a Morse matching) to the same engine without a heap.
"""

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .complexes import FreeComplex, apply, grading_fault, is_chain_map, is_homotopy

ONE = Fraction(1)


def _combo_sub(row, factor, other):
    out = dict(row)
    for k, v in other.items():
        out[k] = out.get(k, 0) - factor * v
        if not out[k]:
            del out[k]
    return out


class _Largest(tuple):
    """Heap key whose < is reversed, so heapq pops the largest first."""

    __slots__ = ()

    def __lt__(self, other):
        return tuple.__lt__(other, self)


class _Reduction:
    """The one cancellation engine behind `minimize` and `cancel_pairs`.

    `by_id` holds the live basis.  `into` (target -> sources) indexes the
    columns of `diff` and `holders` (target -> rows) those of `proj`, so
    a cancellation touches only the rows that hold g or h.  The pivot
    heap is built only for an `order`; without one the caller
    prescribes the pivots.
    """

    def __init__(self, complex_, order=None):
        self.base = complex_
        self.by_id = dict(complex_.by_id)
        self.diff = {g: dict(row) for g, row in complex_.diff.items()}
        self.into = {}
        for g, row in self.diff.items():
            for h in row:
                self.into.setdefault(h, set()).add(g)
        ids = list(complex_.by_id)
        self.position = {g: n for n, g in enumerate(ids)}
        self.incl = {g: {g: ONE} for g in ids}
        self.proj = {g: {g: ONE} for g in ids}
        self.holders = {g: {g} for g in ids}
        self.homotopy = {}
        self.heap = None
        if order is not None:
            self.key = _Largest if order == "reversed" else tuple
            self.heap = [
                self.key((self.by_id[g].hdeg, g, h))
                for g, row in self.diff.items()
                for h in row
                if self.is_unit(g, h)
            ]
            heapq.heapify(self.heap)

    def is_unit(self, g, h):
        """Is the h-component of d(g) nonzero with mdeg h = mdeg g?"""
        return h in self.diff.get(g, ()) and self.by_id[g].mdeg == self.by_id[h].mdeg

    def next_unit(self):
        """Pop the next live unit entry (g, h) of the pivot order, or None."""
        while self.heap:
            _, g, h = heapq.heappop(self.heap)
            if self.is_unit(g, h):
                return g, h
        return None

    def cancel(self, g, h):
        """Cancel the invertible entry h-component of d(g)."""
        if not self.is_unit(g, h):
            raise ValueError(f"d({g}) has no invertible entry at {h} to cancel")
        c = self.diff[g][h]
        dg = dict(self.diff[g])
        gamma = {k: v for k, v in dg.items() if k != h}
        incl_g = self.incl[g]
        # proj rows holding h, in basis order (the order homotopy rows appear)
        at_h = sorted(self.holders.pop(h), key=self.position.__getitem__)
        # homotopy: h |-> -(1/c) g, composed into the running totals
        for x in at_h:
            alpha = self.proj[x][h] / c
            acc = self.homotopy.setdefault(x, {})
            for b, v in incl_g.items():
                acc[b] = acc.get(b, 0) - alpha * v
                if not acc[b]:
                    del acc[b]
            if not acc:
                del self.homotopy[x]
        # projection: g |-> 0, h |-> -(1/c) gamma
        for x in self.holders.pop(g):
            del self.proj[x][g]
        for x in at_h:
            prow = self.proj[x]
            ch = prow.pop(h) / c
            for t, v in gamma.items():
                prow[t] = prow.get(t, 0) - ch * v
                if prow[t]:
                    self.holders[t].add(x)
                else:
                    del prow[t]
                    self.holders[t].discard(x)
        # inclusion of the survivors picks up a correction along g
        for gp in list(self.into[h]):
            if gp == g:
                continue
            beta = self.diff[gp][h] / c
            self.incl[gp] = _combo_sub(self.incl[gp], beta, incl_g)
            old = self.diff[gp]
            new = _combo_sub(old, beta, dg)
            if new:
                self.diff[gp] = new
            else:
                del self.diff[gp]
            self.into[h].discard(gp)
            for t in gamma:
                if t in old and t not in new:
                    self.into[t].discard(gp)
                elif t in new and t not in old:
                    self.into.setdefault(t, set()).add(gp)
                    if self.heap is not None and self.is_unit(gp, t):
                        heapq.heappush(self.heap, self.key((self.by_id[gp].hdeg, gp, t)))
        del self.incl[g], self.incl[h]
        # drop g from differentials of the level above
        for u in self.into.pop(g, ()):
            row = self.diff[u]
            del row[g]
            if not row:
                del self.diff[u]
        # remove the pair
        for t in self.diff.pop(g):
            self.into[t].discard(g)
        for t in self.diff.pop(h, {}):
            self.into[t].discard(h)
        self.into.pop(h, None)
        del self.by_id[g], self.by_id[h]

    def result(self):
        bases = {
            i: [b for b in blist if b.bid in self.by_id]
            for i, blist in self.base.bases.items()
        }
        small = FreeComplex(
            self.base.num_vars, bases, self.diff, augmented=self.base.augmented
        )
        return small, TransferData(self.base, small, self.incl, self.proj, self.homotopy)


@dataclass
class TransferData:
    """Homotopy equivalence between a complex and its reduction.

    incl maps small basis ids to coefficient rows over the big basis;
    proj the other way; homotopy raises hdeg by one on the big complex.
    All rows are scalar coefficients with implied monomial factors.
    """

    big: FreeComplex
    small: FreeComplex
    incl: dict
    proj: dict
    homotopy: dict

    def verify(self):
        """Exact check, on basis rows, that incl, proj and H (raising hdeg
        by one) are graded (`grading_fault`), of proj∘incl = id and
        incl∘proj - id = dH + Hd, and that incl is a chain map.

        Then proj is one too.  Write i, p for incl, proj and d, e for the
        differentials of big and small (dd = 0, big is a FreeComplex).
        p(ip - 1) = 0 = pdH + pHd, so ep = (pi)ep = p(di)p = pd(1 + dH +
        Hd) = pd + pdHd = pd - pHdd = pd."""
        big, small, incl, proj = self.big, self.small, self.incl, self.proj
        if (
            grading_fault(small, big, incl, 0)
            or grading_fault(big, small, proj, 0)
            or grading_fault(big, big, self.homotopy, 1)
        ):
            return False
        if any(apply(proj, incl.get(g, {})) != {g: ONE} for g in small.by_id):
            return False
        lhs = {g: apply(incl, proj.get(g, {})) for g in big.by_id}
        for g, row in lhs.items():
            row[g] = row.get(g, 0) - ONE
        return is_homotopy(big, self.homotopy, lhs) and is_chain_map(small, big, incl)


def minimize(complex_, order="forward"):
    """Cancel unit entries until none remain.

    Pivot policy: always cancel the live unit entry with the smallest
    (hdeg of source, source id, target id); order="reversed" takes the
    largest instead, used to confirm rank independence.  The pivots come
    from a heap that holds every live unit entry (stale ones are dropped
    on pop), so each step costs the rows it touches, not a rescan.
    Returns (minimal complex, TransferData).
    """
    red = _Reduction(complex_, order)
    while True:
        pivot = red.next_unit()
        if pivot is None:
            break
        red.cancel(*pivot)
    return red.result()


def cancel_pairs(complex_, pairs):
    """Cancel exactly the given (lower, upper) pairs, in any order that
    keeps the pivots invertible.  Returns (small, transfer, leftover)
    where leftover lists pairs that never became cancellable."""
    red = _Reduction(complex_)
    remaining = sorted(pairs)
    while remaining:
        progress = set()
        for lower, upper in remaining:
            if red.is_unit(upper, lower):
                red.cancel(upper, lower)
                progress.add((lower, upper))
        if not progress:
            break
        remaining = [p for p in remaining if p not in progress]
    small, transfer = red.result()
    return small, transfer, remaining


@dataclass
class MinimalResolution:
    taylor: FreeComplex
    complex: FreeComplex
    transfer: TransferData


def minimal_resolution(ideal, cap=16):
    """Taylor complex reduced to a minimal free resolution."""
    from .complexes import taylor_complex

    t = taylor_complex(ideal, cap=cap)
    small, transfer = minimize(t)
    return MinimalResolution(t, small, transfer)
