"""Batched multi-origin Gao-Rexford routing over shared CSR arrays.

Every sweep in this reproduction — resilience tables, surveillance
observer sets, the hijack/interception grids — needs routes from many
origins over the *same* topology.  :func:`compute_routes_fast` answers
one announcement set per call, so a 100-origin sweep pays 100 separate
propagations over the same adjacency arrays, each dominated by pure
Python loop overhead.

:func:`compute_routes_many` runs **one propagation for all origins at
once**: per-node state becomes an ``(origins x nodes)`` flat block
(cell ``r*n + v`` is node ``v`` in row ``r``), and each stage advances a
mixed frontier of cells level-by-level with vectorised numpy passes over
the shared CSR adjacency.  The per-level tiebreak (shortest total path,
then lowest next-hop dense index == lowest ASN) is preserved exactly:

- frontier cells are kept **descending**, so the ragged CSR expansion
  emits the candidates for any given destination cell in descending
  next-hop order, and a plain fancy-index assignment (last write wins)
  leaves the *minimum* next hop in the parent array;
- candidate path lengths are monotone per level (a level-``L`` source
  only produces length-``L+1`` candidates), so finalising every offered
  cell at the end of its level reproduces the serial kernel's bucket
  queue, including per-row ``targets`` early exit at level granularity.

Each row is an announcement *set* of plain origin ASNs (so the
resilience sweep's ``[origin, attacker]`` two-seed rows batch
naturally); forged-path announcements are not supported here — use
:func:`compute_routes_fast` for those.  The result is a
:class:`BatchOutcome` whose per-origin views are zero-copy
:class:`~repro.asgraph.fastpath.CompactOutcome` rows, so everything
downstream of the existing ``RoutingOutcome`` API runs unchanged.
Every row equals its own :func:`compute_routes_fast` run bit for bit,
which ``tests/test_batch.py`` and ``benchmarks/bench_kernel.py`` pin
against the path-tuple reference kernel in ``tests/oracle/routing.py``.
"""

from __future__ import annotations

import time
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    MutableMapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.asgraph.fastpath import CompactOutcome
from repro.asgraph.index import GraphIndex, graph_index
from repro.asgraph.relationships import RouteKind
from repro.asgraph.topology import ASGraph

__all__ = ["BatchOutcome", "compute_routes_many"]

_ORIGIN = int(RouteKind.ORIGIN)
_CUSTOMER = int(RouteKind.CUSTOMER)
_PEER = int(RouteKind.PEER)
_PROVIDER = int(RouteKind.PROVIDER)

#: One row of a batch: a single origin ASN or an iterable of origin ASNs
#: (announced as plain single-hop paths, like the list form of
#: ``compute_routes_fast``' ``origins`` argument).
_SpecArg = Union[int, Iterable[int]]
_TargetsArg = Union[
    None, FrozenSet[int], Sequence[Optional[FrozenSet[int]]]
]


def _normalise_spec(spec: _SpecArg) -> Tuple[int, ...]:
    """One row's announcement set as a sorted tuple of distinct ASNs."""
    if isinstance(spec, Mapping):
        for asn, path in spec.items():
            path = tuple(path)
            if path != (asn,):
                raise ValueError(
                    "forged announced paths are not supported by "
                    "compute_routes_many; use compute_routes_fast for "
                    f"AS{asn}: {path}"
                )
        seeds = tuple(sorted(int(asn) for asn in spec))
    elif isinstance(spec, int):
        seeds = (spec,)
    else:
        seeds = tuple(sorted({int(asn) for asn in spec}))
    if not seeds:
        raise ValueError("at least one origin is required per batch row")
    return seeds


def _normalise_targets(
    targets: _TargetsArg, num_rows: int
) -> List[Optional[FrozenSet[int]]]:
    """Per-row target sets: a shared frozenset applies to every row."""
    if targets is None:
        return [None] * num_rows
    if isinstance(targets, (frozenset, set)):
        shared = frozenset(targets)
        return [shared] * num_rows
    tlist = [frozenset(t) if t is not None else None for t in targets]
    if len(tlist) != num_rows:
        raise ValueError(
            f"targets sequence has {len(tlist)} entries for {num_rows} rows"
        )
    return tlist


class BatchOutcome:
    """Per-origin routing outcomes over one shared multi-origin pass.

    ``outcome(r)`` materialises row ``r`` as a memoised
    :class:`~repro.asgraph.fastpath.CompactOutcome` view — zero-copy (the
    row arrays alias the batch block, so a cached view keeps the block
    alive).
    """

    __slots__ = (
        "_gi",
        "_specs",
        "_plen",
        "_parent",
        "_kind",
        "_seed",
        "_views",
    )

    def __init__(
        self,
        gi: GraphIndex,
        specs: Sequence[Tuple[int, ...]],
        plen,
        parent,
        kind,
        seed,
    ) -> None:
        self._gi = gi
        self._specs = tuple(specs)
        self._plen = plen
        self._parent = parent
        self._kind = kind
        self._seed = seed
        self._views: Dict[int, CompactOutcome] = {}

    @classmethod
    def _from_outcomes(
        cls,
        gi: GraphIndex,
        specs: Sequence[Tuple[int, ...]],
        outcomes: Sequence[CompactOutcome],
    ) -> "BatchOutcome":
        """Wrap per-row outcomes computed by separate batches."""
        batch = cls(gi, specs, None, None, None, None)
        batch._views = dict(enumerate(outcomes))
        return batch

    def __len__(self) -> int:
        return len(self._specs)

    def origins(self, row: int) -> Tuple[int, ...]:
        """The (sorted) announcement set of ``row``."""
        return self._specs[row]

    def outcome(self, row: int) -> CompactOutcome:
        """Row ``row`` as a ``RoutingOutcome``-compatible view."""
        view = self._views.get(row)
        if view is not None:
            return view
        spec = self._specs[row]  # IndexError on a bad row, like a list
        plen = self._plen[row]
        # Single-seed rows share one all-zeros seed row: every routed node
        # descends from seed 0, and CompactOutcome never reads the seed of
        # an unrouted node.
        if self._seed is not None:
            seed = self._seed[row]
        else:
            seed = np.zeros(self._gi.n, dtype=np.int16)
        view = CompactOutcome(
            self._gi,
            plen,
            self._parent[row],
            self._kind[row],
            seed,
            tuple((asn,) for asn in spec),
            spec,
            int(np.count_nonzero(plen)),
        )
        self._views[row] = view
        return view

    def outcomes(self) -> List[CompactOutcome]:
        """Every row materialised, in input order."""
        return [self.outcome(r) for r in range(len(self._specs))]

    def __iter__(self):
        return iter(self.outcomes())


def compute_routes_many(
    graph: Union[ASGraph, GraphIndex],
    origins: Sequence[_SpecArg],
    *,
    targets: _TargetsArg = None,
    excluded_links: Optional[Iterable[FrozenSet[int]]] = None,
    origin_export_scopes: Optional[Mapping[int, FrozenSet[int]]] = None,
    stage_timings: Optional[MutableMapping[str, float]] = None,
) -> BatchOutcome:
    """All of ``origins`` routed in one shared propagation.

    Row ``r`` of the result equals
    ``compute_routes_fast(graph, origins[r], ...)`` exactly (lengths,
    parents, kinds, seeds, tiebreaks), with ``excluded_links`` applied
    batch-wide, ``origin_export_scopes`` applied to the rows whose
    announcement set contains the scoped ASN, and ``targets`` either one
    shared frozenset or a per-row sequence (``None`` entries disable the
    early exit for that row).  ``graph`` may be the :class:`ASGraph` or
    its compiled :class:`GraphIndex`.
    """
    specs = [_normalise_spec(spec) for spec in origins]
    if not specs:
        raise ValueError("at least one origin spec is required")
    gi = graph if isinstance(graph, GraphIndex) else graph_index(graph)
    idx = gi.idx
    for spec in specs:
        for asn in spec:
            if asn not in idx:
                raise ValueError(f"origin AS{asn} not in topology")
    excluded = (
        frozenset(frozenset(link) for link in excluded_links)
        if excluded_links
        else frozenset()
    )
    scopes = dict(origin_export_scopes) if origin_export_scopes else {}
    if scopes:
        all_seeds = set()
        for spec in specs:
            all_seeds.update(spec)
        for asn in scopes:
            if asn not in all_seeds:
                raise ValueError(f"export scope given for non-origin AS{asn}")
    tlist = _normalise_targets(targets, len(specs))

    # The flat cell index r*n + v must fit int32; chunk huge batches.
    max_rows = max(1, (2**31 - 1) // max(1, gi.n))
    if len(specs) > max_rows:

        def chunk_scopes(chunk: List[Tuple[int, ...]]):
            # Scopes are validated against the chunk's own seeds.
            present = {asn for spec in chunk for asn in spec}
            sub = {asn: s for asn, s in scopes.items() if asn in present}
            return sub or None

        first = compute_routes_many(
            graph,
            specs[:max_rows],
            targets=tlist[:max_rows],
            excluded_links=excluded or None,
            origin_export_scopes=chunk_scopes(specs[:max_rows]),
            stage_timings=stage_timings,
        )
        rest = compute_routes_many(
            graph,
            specs[max_rows:],
            targets=tlist[max_rows:],
            excluded_links=excluded or None,
            origin_export_scopes=chunk_scopes(specs[max_rows:]),
            stage_timings=stage_timings,
        )
        merged = BatchOutcome._from_outcomes(
            gi, specs, first.outcomes() + rest.outcomes()
        )
        return merged

    return _compute_many_vector(gi, specs, tlist, excluded, scopes, stage_timings)


def _dense_blocked(gi: GraphIndex, excluded: FrozenSet[FrozenSet[int]]):
    """Excluded links as directed dense pairs (both orientations)."""
    pairs = set()
    idx = gi.idx
    for link in excluded:
        if len(link) != 2:
            continue
        a, b = link
        ia = idx.get(a)
        ib = idx.get(b)
        if ia is not None and ib is not None:
            pairs.add((ia, ib))
            pairs.add((ib, ia))
    return pairs


def _compute_many_vector(
    gi: GraphIndex,
    specs: List[Tuple[int, ...]],
    tlist: List[Optional[FrozenSet[int]]],
    excluded: FrozenSet[FrozenSet[int]],
    scopes: Mapping[int, FrozenSet[int]],
    stage_timings: Optional[MutableMapping[str, float]],
) -> BatchOutcome:
    n = gi.n
    num_rows = len(specs)
    size = num_rows * n
    idx = gi.idx
    I32 = np.int32
    # Node indices and path lengths fit int16 on realistic topologies —
    # half the memory traffic on the hottest arrays (parent writes and the
    # winner-detection re-read).  Cell indices stay int32.
    IP = np.int16 if n < 2**15 - 1 else I32

    def csr(start, adj):
        s = np.frombuffer(start, dtype=np.intc).astype(I32, copy=False)
        a = np.frombuffer(adj, dtype=np.intc).astype(I32, copy=False)
        return s, a, s[1:] - s[:-1]

    prov_start, prov_adj, prov_deg = csr(gi.prov_start, gi.prov_adj)
    cust_start, cust_adj, cust_deg = csr(gi.cust_start, gi.cust_adj)
    peer_start, peer_adj, peer_deg = csr(gi.peer_start, gi.peer_adj)

    blocked = _dense_blocked(gi, excluded) if excluded else set()
    if blocked:

        def drop_blocked(start, adj, deg):
            src = np.repeat(np.arange(n, dtype=I32), deg)
            keep = np.ones(adj.shape[0], dtype=bool)
            for u, v in blocked:
                keep &= ~((src == u) & (adj == v))
            new_adj = adj[keep]
            new_deg = np.bincount(src[keep], minlength=n).astype(I32)
            new_start = np.zeros(n + 1, dtype=I32)
            np.cumsum(new_deg, out=new_start[1:])
            return new_start, new_adj, new_deg

        prov_start, prov_adj, prov_deg = drop_blocked(
            prov_start, prov_adj, prov_deg
        )
        cust_start, cust_adj, cust_deg = drop_blocked(
            cust_start, cust_adj, cust_deg
        )
        peer_start, peer_adj, peer_deg = drop_blocked(
            peer_start, peer_adj, peer_deg
        )

    # Export scopes as (dense source node, allowed-destination bool mask).
    scope_items: List[Tuple[int, object]] = []
    for asn, allowed in scopes.items():
        mask = np.zeros(n, dtype=bool)
        for b in allowed:
            bi = idx.get(b)
            if bi is not None:
                mask[bi] = True
        scope_items.append((idx[asn], mask))

    plen = np.zeros(size, dtype=IP)
    parent = np.full(size, -1, dtype=IP)
    kind = np.zeros(size, dtype=np.int8)
    # ``avail`` is inverted routed-ness (True = still unrouted): candidate
    # filtering is then a plain gather, with no per-level invert pass.
    avail = np.ones(size, dtype=bool)
    need_seed = any(len(spec) > 1 for spec in specs)
    seed = np.full(size, -1, dtype=np.int16) if need_seed else None

    seed_cells: List[int] = []
    for row, spec in enumerate(specs):
        base = row * n
        for sid, asn in enumerate(spec):  # spec is sorted, so sid order holds
            cell = base + idx[asn]
            plen[cell] = 1
            kind[cell] = _ORIGIN
            avail[cell] = False
            if seed is not None:
                seed[cell] = sid
            seed_cells.append(cell)

    # Per-row targets: remaining counts (out-of-topology targets count once
    # and never resolve, pinning the row active — the serial sentinel), the
    # still-unrouted target cells, and the frozen mask (row finished early).
    has_targets = any(t is not None for t in tlist)
    frozen = np.zeros(num_rows, dtype=bool)
    if has_targets:
        has_t = np.zeros(num_rows, dtype=bool)
        remaining_count = np.zeros(num_rows, dtype=np.int64)
        tgt_mask = np.zeros(size, dtype=bool)
        tcell_list: List[int] = []
        for row, t in enumerate(tlist):
            if t is None:
                continue
            has_t[row] = True
            dense = {idx.get(asn, -1) for asn in t}
            for asn in specs[row]:
                dense.discard(idx[asn])  # seeds are already routed
            remaining_count[row] = len(dense)
            for v in dense:
                if v >= 0:
                    cell = row * n + v
                    tgt_mask[cell] = True
                    tcell_list.append(cell)
        frozen |= has_t & (remaining_count == 0)
        tcells_all = np.array(sorted(tcell_list), dtype=I32)
    else:
        has_t = None
        remaining_count = None
        tgt_mask = None
        tcells_all = None

    def drop_frozen(cells):
        if has_targets and frozen.any():
            return cells[~frozen[cells // n]]
        return cells

    def expand(f_cells, start, adj, deg, with_rep=False):
        """Ragged CSR expansion of a (descending) frontier of cells.

        Returns per-candidate arrays: destination cell, source node,
        row base (``cell - node``), and optionally the frontier index
        each candidate came from.  Descending frontier order makes the
        candidates for any one destination cell appear in descending
        source order — the invariant the min-next-hop dedup relies on.
        """
        f_nodes = f_cells % n
        d = deg[f_nodes]
        total = int(d.sum())
        if total == 0:
            return None
        rep_src = np.arange(f_cells.shape[0], dtype=I32) if with_rep else None
        nz = d > 0
        if not nz.all():
            # Stub-heavy frontiers: drop zero-degree cells (most ASes have
            # no customers) before paying the per-cell repeat machinery.
            f_cells = f_cells[nz]
            f_nodes = f_nodes[nz]
            d = d[nz]
            if rep_src is not None:
                rep_src = rep_src[nz]
        cum = np.cumsum(d, dtype=I32)
        base = np.repeat(start[f_nodes] - cum + d, d)
        pos = np.arange(total, dtype=I32) + base
        dsts = adj[pos]
        rowbase = np.repeat(f_cells - f_nodes, d)
        srcs = np.repeat(f_nodes.astype(IP), d)
        flat = np.add(rowbase, dsts, out=dsts)
        rep = np.repeat(rep_src, d) if with_rep else None
        return flat, srcs, rowbase, rep

    def scope_filter(flat, srcs, rowbase):
        """Drop candidates a scoped origin would not export."""
        keep = None
        for s, allow in scope_items:
            sel = srcs == s
            if not sel.any():
                continue
            rb = rowbase[sel]
            # Scopes bind only the origin's own announcement: the source
            # cell must still carry kind ORIGIN (it always does for seeds).
            bad = (kind[rb + s] == _ORIGIN) & ~allow[flat[sel] - rb]
            if bad.any():
                if keep is None:
                    keep = np.ones(flat.shape[0], dtype=bool)
                keep[np.nonzero(sel)[0][bad]] = False
        if keep is None:
            return flat, srcs, rowbase
        return flat[keep], srcs[keep], rowbase[keep]

    def finalize(flat, srcs, rowbase, kind_val, new_len):
        """Finalise one level's candidates; returns the next frontier."""
        m = avail[flat]
        flat = flat[m]
        if flat.shape[0] == 0:
            return None
        srcs = srcs[m]
        parent[flat] = srcs  # descending per cell: last write = min next hop
        win = parent[flat] == srcs
        wf = flat[win]
        avail[wf] = False
        plen[wf] = new_len
        kind[wf] = kind_val
        if seed is not None:
            rb = rowbase[m][win]
            seed[wf] = seed[rb + srcs[win]]
        if has_targets:
            hit = tgt_mask[wf]
            if hit.any():
                hc = wf[hit]
                tgt_mask[hc] = False
                np.subtract.at(remaining_count, hc // n, 1)
                frozen[:] |= has_t & (remaining_count == 0)
        wf.sort()
        return wf[::-1].copy()  # contiguous descending frontier

    def stamp(stage: str, started: float) -> None:
        if stage_timings is not None:
            stage_timings[stage] = stage_timings.get(stage, 0.0) + (
                time.perf_counter() - started
            )

    def by_level(cells):
        """Split routed cells into ascending-plen groups of descending cells."""
        ps = plen[cells]
        order = np.argsort(ps, kind="stable")
        sorted_cells = cells[order]
        ps = ps[order]
        max_len = int(ps[-1])
        bounds = np.searchsorted(ps, np.arange(1, max_len + 2, dtype=I32))
        groups = {}
        for level in range(1, max_len + 1):
            lo, hi = bounds[level - 1], bounds[level]
            if lo != hi:
                groups[level] = sorted_cells[lo:hi][::-1]
        return groups

    # -- stage 1: customer routes climb provider links -----------------------
    t0 = time.perf_counter()
    frontier = drop_frozen(np.sort(np.array(seed_cells, dtype=I32))[::-1])
    level = 1
    while frontier is not None and frontier.shape[0]:
        frontier = drop_frozen(frontier)
        out = expand(frontier, prov_start, prov_adj, prov_deg)
        if out is None:
            break
        flat, srcs, rowbase, _ = out
        if scope_items:
            flat, srcs, rowbase = scope_filter(flat, srcs, rowbase)
        frontier = finalize(flat, srcs, rowbase, _CUSTOMER, level + 1)
        level += 1
    stamp("customer", t0)

    # -- stage 2: one peering hop from the stage-1 snapshot ------------------
    t0 = time.perf_counter()
    stage1_cells = np.nonzero(~avail)[0].astype(I32)
    if tcells_all is not None and tcells_all.shape[0]:
        # Targets first, scanned from their own peer rows against the
        # stage-1 state: a row whose targets complete here never pays for
        # the full peer frontier or stage 3 (the serial early return).
        tc = tcells_all[avail[tcells_all]]
        if tc.shape[0]:
            out = expand(tc, peer_start, peer_adj, peer_deg, with_rep=True)
            if out is not None:
                # Inverted expansion: ``flat`` is the *source* cell (the
                # target's peer), ``srcs`` the target node itself.
                src_cell, tnode, rowbase, rep = out
                lu = plen[src_cell]
                ok = lu > 0
                if scope_items:
                    peer_node = src_cell - rowbase
                    for s, allow in scope_items:
                        sel = ok & (peer_node == s) & (kind[src_cell] == _ORIGIN)
                        if sel.any():
                            ok = ok & ~(sel & ~allow[tnode])
                if ok.any():
                    sentinel = np.iinfo(np.int64).max
                    key = (lu[ok].astype(np.int64) + 1) * (n + 1) + (
                        src_cell[ok] - rowbase[ok]
                    )
                    best = np.full(tc.shape[0], sentinel, dtype=np.int64)
                    np.minimum.at(best, rep[ok], key)
                    found = best != sentinel
                    if found.any():
                        cells = tc[found]
                        new_len = (best[found] // (n + 1)).astype(I32)
                        via = (best[found] % (n + 1)).astype(I32)
                        plen[cells] = new_len.astype(IP)
                        parent[cells] = via.astype(IP)
                        kind[cells] = _PEER
                        avail[cells] = False
                        if seed is not None:
                            seed[cells] = seed[cells - cells % n + via]
                        tgt_mask[cells] = False
                        np.subtract.at(remaining_count, cells // n, 1)
                        frozen[:] |= has_t & (remaining_count == 0)
    sources = drop_frozen(stage1_cells)
    if sources.shape[0]:
        for level, group in by_level(sources).items():
            out = expand(group, peer_start, peer_adj, peer_deg)
            if out is None:
                continue
            flat, srcs, rowbase, _ = out
            if scope_items:
                flat, srcs, rowbase = scope_filter(flat, srcs, rowbase)
            finalize(flat, srcs, rowbase, _PEER, level + 1)
    stamp("peer", t0)

    # -- stage 3: provider routes descend customer links ---------------------
    t0 = time.perf_counter()
    all_routed = drop_frozen(np.nonzero(~avail)[0].astype(I32))
    if all_routed.shape[0]:
        groups = by_level(all_routed)
        max_level = max(groups)
        carry = None
        level = 1
        while level <= max_level or (carry is not None and carry.shape[0]):
            parts = []
            group = groups.get(level)
            if group is not None:
                parts.append(group)
            if carry is not None and carry.shape[0]:
                parts.append(carry)
            carry = None
            if not parts:
                level += 1
                continue
            if len(parts) == 1:
                frontier = parts[0]
            else:
                frontier = np.sort(np.concatenate(parts))[::-1].copy()
            frontier = drop_frozen(frontier)
            if frontier.shape[0]:
                out = expand(frontier, cust_start, cust_adj, cust_deg)
                if out is not None:
                    flat, srcs, rowbase, _ = out
                    if scope_items:
                        flat, srcs, rowbase = scope_filter(flat, srcs, rowbase)
                    carry = finalize(flat, srcs, rowbase, _PROVIDER, level + 1)
            level += 1
    stamp("provider", t0)

    return BatchOutcome(
        gi,
        specs,
        plen.reshape(num_rows, n),
        parent.reshape(num_rows, n),
        kind.reshape(num_rows, n),
        seed.reshape(num_rows, n) if seed is not None else None,
    )
