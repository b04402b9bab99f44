"""Reference population kernel: one user at a time in pure python.

This is the per-user loop :mod:`repro.core.population` ran when numpy was
optional.  It evaluates the same counter-based draw lattice with scalar
integer arithmetic and ``bisect_right`` instead of uint64 arrays and
``np.searchsorted``, and walks each user's guard slots and circuits in
order, so every per-user outcome and aggregate must equal the vector
kernel's bit for bit.  :func:`loop_tier` swaps it into
``simulate_population`` so whole runs (sharded, checkpointed, through the
runner) can be compared.
"""

from __future__ import annotations

from bisect import bisect_right
from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.core import population
from repro.core.population import (
    _INV_2_53,
    _MASK,
    _MIX_1,
    _MIX_2,
    _MULT_USER,
    _STREAM_CLIENT,
    _STREAM_DEST,
    _STREAM_EXIT,
    _STREAM_GUARD,
    _STREAM_LIFETIME,
    _STREAM_SLOT,
    PopulationAggregate,
    UserOutcome,
    _BlockResult,
    _draw_base,
    _ExposureTables,
    _PopulationContext,
)

__all__ = ["draw", "simulate_block_loop", "loop_tier"]


def draw(base: int, user: int) -> float:
    """One uniform in [0, 1): the SplitMix64 finalizer over python ints."""
    z = (base + user * _MULT_USER) & _MASK
    z ^= z >> 30
    z = (z * _MIX_1) & _MASK
    z ^= z >> 27
    z = (z * _MIX_2) & _MASK
    z ^= z >> 31
    return (z >> 11) * _INV_2_53


def _client_indices(ctx: _PopulationContext, start: int, end: int):
    """Per-user client registry index."""
    if ctx.client_index is not None:
        return ctx.client_index[start:end]
    base = _draw_base(ctx.draw_seed, 0, 0, _STREAM_CLIENT)
    cum, pick = ctx.client_cum, ctx.client_pick
    last = len(cum) - 1
    out = []
    for user in range(start, end):
        index = bisect_right(cum, draw(base, user))
        out.append(pick[index if index <= last else last])
    return out


def simulate_block_loop(
    ctx: _PopulationContext, tables: _ExposureTables, start: int, end: int
) -> _BlockResult:
    """``repro.core.population._simulate_block`` one user at a time."""
    days, per_day, num_guards = ctx.days, ctx.circuits_per_day, ctx.num_guards
    seed, rotation = ctx.draw_seed, ctx.rotation_days
    mixes = ctx.day_mixes
    entry, exit_table = tables.entry.tolist(), tables.exit.tolist()
    num_dests = len(ctx.destination_asns)
    alive_sets = [frozenset(mix.guard_reg) for mix in mixes]
    # Hoist the (day, slot/circuit, stream) key prefixes out of the user
    # loop — the inner loop then only folds in the user term.
    guard_bases = [
        [_draw_base(seed, day, s, _STREAM_GUARD) for s in range(num_guards)]
        for day in range(days + 1)
    ]
    life_bases = [
        [_draw_base(seed, day, s, _STREAM_LIFETIME) for s in range(num_guards)]
        for day in range(days + 1)
    ]
    slot_bases = [
        [_draw_base(seed, day, c, _STREAM_SLOT) for c in range(per_day)]
        for day in range(days + 1)
    ]
    exit_bases = [
        [_draw_base(seed, day, c, _STREAM_EXIT) for c in range(per_day)]
        for day in range(days + 1)
    ]
    dest_bases = [
        [_draw_base(seed, day, c, _STREAM_DEST) for c in range(per_day)]
        for day in range(days + 1)
    ]

    first_hist = [0] * (days + 1)
    count_hist = [0] * (days * per_day + 1)
    outcomes: Optional[List[UserOutcome]] = [] if ctx.keep_outcomes else None
    client_indices = _client_indices(ctx, start, end)

    mix0 = mixes[0]
    glen0 = len(mix0.guard_cum)
    for offset, user in enumerate(range(start, end)):
        client = client_indices[offset]
        entry_row = entry[client]
        slots = [0] * num_guards
        expiry = [0.0] * num_guards
        for s in range(num_guards):
            index = bisect_right(mix0.guard_cum, draw(guard_bases[0][s], user))
            slots[s] = mix0.guard_reg[index if index < glen0 else glen0 - 1]
            expiry[s] = rotation * (1.0 + draw(life_bases[0][s], user))
        hits = 0
        first = 0
        for day in range(1, days + 1):
            mix = mixes[day - 1]
            alive = alive_sets[day - 1]
            now = float(day - 1)
            glen = len(mix.guard_cum)
            for s in range(num_guards):
                if expiry[s] <= now or slots[s] not in alive:
                    index = bisect_right(
                        mix.guard_cum, draw(guard_bases[day][s], user)
                    )
                    slots[s] = mix.guard_reg[index if index < glen else glen - 1]
                    expiry[s] = now + rotation * (
                        1.0 + draw(life_bases[day][s], user)
                    )
            elen = len(mix.exit_cum)
            for c in range(per_day):
                pick = int(draw(slot_bases[day][c], user) * num_guards)
                if pick >= num_guards:
                    pick = num_guards - 1
                index = bisect_right(
                    mix.exit_cum, draw(exit_bases[day][c], user)
                )
                exit_idx = mix.exit_reg[index if index < elen else elen - 1]
                dest = int(draw(dest_bases[day][c], user) * num_dests)
                if dest >= num_dests:
                    dest = num_dests - 1
                if entry_row[slots[pick]] and exit_table[exit_idx][dest]:
                    hits += 1
                    if first == 0:
                        first = day
        first_hist[first] += 1
        count_hist[hits] += 1
        if outcomes is not None:
            outcomes.append(
                UserOutcome(
                    client_asn=ctx.client_registry[client],
                    circuits_built=days * per_day,
                    compromised_circuits=hits,
                    first_compromise_day=first or None,
                )
            )
    users = end - start
    aggregate = PopulationAggregate(
        users=users,
        circuits_built=users * days * per_day,
        compromised_circuits=sum(
            count * bucket for count, bucket in enumerate(count_hist)
        ),
        first_day_hist=tuple(first_hist),
        comp_count_hist=tuple(count_hist),
    )
    return _BlockResult(
        aggregate=aggregate,
        outcomes=tuple(outcomes) if outcomes is not None else None,
    )


@contextmanager
def loop_tier() -> Iterator[None]:
    """Run every population block through :func:`simulate_block_loop`
    while active.  Blocks run in this process (``jobs=1``) or in forked
    workers see the swap; a spawned worker would not."""
    vector = population._simulate_block
    population._simulate_block = simulate_block_loop
    try:
        yield
    finally:
        population._simulate_block = vector
