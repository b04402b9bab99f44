"""Equivalence and API tests for the multi-origin batch kernel.

``compute_routes_many`` must be invisible per row: element-wise identical
to ``compute_routes_fast`` — lengths, parents, kinds, seeds, tiebreaks —
for every combination of origin sets, excluded links, export scopes and
(shared or per-row) early-exit targets.  The property test sweeps random
Internets through random batch shapes; every row is also checked route
for route against the path-tuple reference kernel in
``tests/oracle/routing.py``.  The unit tests pin the ``BatchOutcome`` API
and the input validation.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.asgraph import (
    ASGraph,
    BatchOutcome,
    CompactOutcome,
    TopologyConfig,
    compute_routes_fast,
    compute_routes_many,
    generate_topology,
)
from repro.asgraph.index import graph_index
from tests.oracle.routing import compute_routes


def diamond() -> ASGraph:
    g = ASGraph()
    g.add_peer_link(1, 2)
    g.add_provider_link(customer=3, provider=1)
    g.add_provider_link(customer=3, provider=2)
    g.add_provider_link(customer=4, provider=3)
    return g


def assert_row_matches(batch, row, fast, graph):
    """Row ``row`` of ``batch`` must equal the per-origin ``fast`` outcome
    element-wise (seeds compared at routed nodes only: single-seed batch
    rows share one all-zeros seed array, and no reader ever consults the
    seed of an unrouted node)."""
    got = batch.outcome(row)
    assert isinstance(got, CompactOutcome)
    n = len(fast._plen)
    for i in range(n):
        assert int(got._plen[i]) == fast._plen[i], (row, i)
        assert int(got._parent[i]) == fast._parent[i], (row, i)
        assert int(got._kind[i]) == fast._kind[i], (row, i)
        if fast._plen[i]:
            assert int(got._seed[i]) == fast._seed[i], (row, i)
    assert got.origins == fast.origins
    assert len(got) == len(fast)
    for asn in sorted(graph.ases)[::9]:
        assert got.path(asn) == fast.path(asn), (row, asn)


class TestEquivalenceProperty:
    @settings(deadline=None, max_examples=30)
    @given(
        st.integers(min_value=0, max_value=10_000),
        st.randoms(use_true_random=False),
    )
    def test_batch_matches_per_origin_fast(self, seed, rng):
        """Random topologies x random origin sets / excluded links /
        export scopes / shared-or-per-row targets: each batch row equals
        its own ``compute_routes_fast`` run, tiebreaks included."""
        g = generate_topology(
            TopologyConfig(num_ases=90, num_tier1=3, num_tier2=15, seed=seed)
        )
        ases = sorted(g.ases)

        specs = []
        for _ in range(rng.randint(1, 6)):
            k = 2 if rng.random() < 0.25 else 1
            specs.append(tuple(sorted(rng.sample(ases, k))))

        excluded = None
        if rng.random() < 0.5:
            links = [frozenset((a, b)) for a, b, _ in g.links()]
            excluded = rng.sample(links, min(len(links), rng.randint(1, 6)))

        scopes = None
        if rng.random() < 0.4:
            scoped = rng.choice(sorted({a for s in specs for a in s}))
            nbrs = sorted(g.neighbours(scoped))
            if nbrs:
                scopes = {
                    scoped: frozenset(rng.sample(nbrs, rng.randint(1, len(nbrs))))
                }

        targets = None
        shape = rng.random()
        if shape < 0.3:
            targets = frozenset(rng.sample(ases, rng.randint(1, 5)))
        elif shape < 0.6:
            targets = [
                frozenset(rng.sample(ases, rng.randint(1, 5)))
                if rng.random() < 0.7
                else None
                for _ in specs
            ]

        batch = compute_routes_many(
            g,
            specs,
            targets=targets,
            excluded_links=excluded,
            origin_export_scopes=scopes,
        )
        assert len(batch) == len(specs)
        for row, spec in enumerate(specs):
            row_scopes = {
                a: s for a, s in (scopes or {}).items() if a in spec
            }
            if targets is None or isinstance(targets, frozenset):
                row_targets = targets
            else:
                row_targets = targets[row]
            fast = compute_routes_fast(
                g,
                spec,
                excluded_links=excluded,
                origin_export_scopes=row_scopes or None,
                targets=row_targets,
            )
            assert_row_matches(batch, row, fast, g)

    def test_backends_agree(self):
        """Every row, single- and two-origin, routes exactly as the
        reference kernel does, with and without excluded links."""
        g = generate_topology(
            TopologyConfig(num_ases=80, num_tier1=3, num_tier2=15, seed=11)
        )
        ases = sorted(g.ases)
        specs = [(a,) for a in ases[::7]] + [(ases[3], ases[40])]
        links = sorted((frozenset((a, b)) for a, b, _ in g.links()), key=sorted)
        for excluded in (None, links[::17]):
            batch = compute_routes_many(g, specs, excluded_links=excluded)
            for row, spec in enumerate(specs):
                want = compute_routes(g, spec, excluded_links=excluded)
                got = batch.outcome(row)
                assert dict(got.items()) == dict(want.items()), (row, spec)
                assert got.origins == want.origins


class TestBatchOutcomeAPI:
    def test_views_are_memoised_and_ordered(self):
        g = diamond()
        batch = compute_routes_many(g, [1, 2, (3, 4)])
        assert len(batch) == 3
        assert batch.origins(2) == (3, 4)
        first = batch.outcome(0)
        assert batch.outcome(0) is first
        materialised = batch.outcomes()
        assert materialised[0] is first
        assert [o.origins for o in batch] == [(1,), (2,), (3, 4)]

    def test_bad_row_raises(self):
        batch = compute_routes_many(diamond(), [1])
        with pytest.raises(IndexError):
            batch.outcome(5)

    def test_rows_match_capture_set_api(self):
        g = diamond()
        batch = compute_routes_many(g, [(1, 4)])
        fast = compute_routes_fast(g, (1, 4))
        got = batch.outcome(0)
        for origin in (1, 4):
            assert got.capture_set(origin) == fast.capture_set(origin)


class TestValidation:
    def test_empty_origins_rejected(self):
        with pytest.raises(ValueError, match="at least one origin"):
            compute_routes_many(diamond(), [])

    def test_unknown_origin_rejected(self):
        with pytest.raises(ValueError, match="AS99"):
            compute_routes_many(diamond(), [99])

    def test_forged_paths_rejected(self):
        with pytest.raises(ValueError, match="forged announced paths"):
            compute_routes_many(diamond(), [{4: (4, 3)}])

    def test_scope_for_non_origin_rejected(self):
        with pytest.raises(ValueError, match="non-origin AS2"):
            compute_routes_many(
                diamond(), [1], origin_export_scopes={2: frozenset({1})}
            )

    def test_targets_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="2 entries for 1 rows"):
            compute_routes_many(
                diamond(), [1], targets=[frozenset({3}), frozenset({4})]
            )

    def test_vector_backend_accepts_bare_index(self):
        g = diamond()
        batch = compute_routes_many(graph_index(g), [1])
        fast = compute_routes_fast(g, (1,))
        assert_row_matches(batch, 0, fast, g)
