"""Experiment specifications: trial enumeration and deterministic seeding.

An :class:`ExperimentSpec` declares a Monte-Carlo sweep as data: a name, a
root seed, experiment-level parameters, and an ordered enumeration of
**trials** — the independent units of work a
:class:`~repro.runner.runner.Runner` executes, shards, checkpoints, and
resumes.  The split mirrors what every §4 sweep in this reproduction
already looked like implicitly (an outer loop over origins / clients /
adoption rates with an ad-hoc RNG), made explicit so the loop body can run
anywhere:

- ``trial_fn(context, trial)`` must be a **module-level pure function**:
  its result may depend only on ``context``, ``trial.params``, and
  ``trial.seed``.  Module-level is what makes it picklable for the
  process-pool backend; purity is what makes ``jobs=1`` and ``jobs=8``
  produce identical reports.
- ``context`` is the read-only world the trials share (graph, consensus,
  attacker sample, ...).  It ships to each pool worker exactly once via
  the executor initializer.

Seed spawning
-------------

Each trial gets its own ``random.Random`` seed via
:func:`spawn_trial_seed`, a keyed hash of ``(experiment name, root seed,
trial id)``.  Crucially the spawned seed does **not** depend on the
trial's position in the enumeration, the shard it lands on, or the
``jobs`` value — so resharding, resuming, or reordering a sweep can never
change any trial's randomness.  Two experiments with different names (or
root seeds) draw fully decorrelated streams.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Mapping, Optional, Tuple

__all__ = ["ExperimentSpec", "Trial", "TransientFields", "spawn_trial_seed"]


def spawn_trial_seed(root_seed: int, experiment: str, trial_id: str) -> int:
    """Deterministic per-trial seed, stable under resharding.

    A keyed blake2b of ``(experiment, root_seed, trial_id)`` truncated to
    63 bits.  Depends on nothing but those three values — in particular
    not on the trial's index, the shard, or ``jobs`` — so a trial keeps
    the same randomness wherever and whenever it runs.
    """
    data = f"{experiment}\x1f{root_seed}\x1f{trial_id}".encode()
    digest = hashlib.blake2b(data, digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


@dataclass(frozen=True)
class Trial:
    """One independent unit of a sweep.

    ``params`` is an arbitrary picklable payload (an origin ASN, a client
    ASN, an adoption rate, ...); ``seed`` is the spawned per-trial seed —
    use :meth:`rng` for a fresh generator seeded with it.
    """

    index: int
    id: str
    params: object
    seed: int

    def rng(self) -> random.Random:
        """A fresh ``random.Random`` seeded with this trial's seed."""
        return random.Random(self.seed)


class TransientFields:
    """Mixin for contexts carrying process-local state (e.g. an engine).

    Fields named in ``_transient`` are replaced with ``None`` when the
    context is pickled to a pool worker; the trial function falls back to
    a worker-local substitute (conventionally
    :func:`repro.asgraph.engine.shared_engine`).  Everything else ships
    as-is.
    """

    _transient: ClassVar[Tuple[str, ...]] = ()

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        for name in self._transient:
            if name in state:
                state[name] = None
        return state


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative sweep: name + seed + context + trial enumeration.

    ``trials`` is an ordered tuple of ``(trial_id, params)`` pairs; ids
    must be unique — they are the checkpoint/resume identity of each
    trial.  ``params`` (experiment-level) is echoed into the checkpoint
    header for provenance.  ``encode_result`` / ``decode_result`` convert
    a trial result to/from the JSON-serialisable form stored in the
    checkpoint; they must be exact inverses or a resumed run would differ
    from an uninterrupted one.
    """

    name: str
    trial_fn: Callable[[object, Trial], object]
    trials: Tuple[Tuple[str, object], ...]
    context: object = None
    seed: int = 0
    params: Mapping[str, object] = field(default_factory=dict)
    encode_result: Optional[Callable[[object], object]] = None
    decode_result: Optional[Callable[[object], object]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("experiment name must be non-empty")
        if not self.trials:
            raise ValueError(f"experiment {self.name!r} enumerates no trials")
        seen = set()
        for trial_id, _params in self.trials:
            if trial_id in seen:
                raise ValueError(
                    f"experiment {self.name!r}: duplicate trial id {trial_id!r}"
                )
            seen.add(trial_id)

    def enumerate(self) -> Tuple[Trial, ...]:
        """Materialise the trials, spawning each one's seed."""
        return tuple(
            Trial(
                index=index,
                id=trial_id,
                params=params,
                seed=spawn_trial_seed(self.seed, self.name, trial_id),
            )
            for index, (trial_id, params) in enumerate(self.trials)
        )

    def header(self) -> dict:
        """The checkpoint-header identity of this spec."""
        return {
            "experiment": self.name,
            "seed": self.seed,
            "total_trials": len(self.trials),
            "params": dict(self.params),
        }

    def encode(self, result: object) -> object:
        return self.encode_result(result) if self.encode_result else result

    def decode(self, encoded: object) -> object:
        return self.decode_result(encoded) if self.decode_result else encoded
