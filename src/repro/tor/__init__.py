"""Tor network model: relays, consensus, path selection, clients."""

from repro.tor.relay import Flag, Relay
from repro.tor.consensus import Consensus, BandwidthWeights
from repro.tor.circuit import Circuit
from repro.tor.index import RelayIndex, relay_index
from repro.tor.pathsel import GuardManager, PathSelector, PathConstraints
from repro.tor.client import TorClient
from repro.tor.generator import ConsensusConfig, SyntheticTorNetwork, generate_consensus
from repro.tor.directory import (
    AuthorityPolicy,
    DirectoryAuthority,
    ServerDescriptor,
    compute_consensus,
)
from repro.tor.exitpolicy import DEFAULT_EXIT_POLICY, REJECT_ALL, ExitPolicy, PolicyRule
from repro.tor.onion import CircuitCrypto, RelayCrypto, circuit_handshake
from repro.tor.churn import ChurnConfig, evolve_consensus, guard_survival
from repro.tor.clientdist import ClientASDistribution

__all__ = [
    "Flag",
    "Relay",
    "Consensus",
    "BandwidthWeights",
    "Circuit",
    "RelayIndex",
    "relay_index",
    "GuardManager",
    "PathSelector",
    "PathConstraints",
    "TorClient",
    "ConsensusConfig",
    "SyntheticTorNetwork",
    "generate_consensus",
    "AuthorityPolicy",
    "DirectoryAuthority",
    "ServerDescriptor",
    "compute_consensus",
    "ExitPolicy",
    "PolicyRule",
    "DEFAULT_EXIT_POLICY",
    "REJECT_ALL",
    "CircuitCrypto",
    "RelayCrypto",
    "circuit_handshake",
    "ChurnConfig",
    "evolve_consensus",
    "guard_survival",
    "ClientASDistribution",
]
