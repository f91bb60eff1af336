"""Recognition and vulnerability analysis of strictly chordal graphs.

The package recognizes strictly chordal graphs (block graphs with true twins
added), computes their toughness, scattering number and a scattering set in
near-linear time, and ships exponential brute-force oracles plus a
reproducible random generator for validating the fast path.
"""

from .chordal import (
    CliqueTree,
    Separators,
    build_clique_tree,
    mcs_order,
    minimal_vertex_separators,
    verify_peo,
)
from .errors import (
    CompleteGraphError,
    GraphError,
    InternalError,
    NotChordalError,
    NotConnectedError,
    NotStrictlyChordalError,
    ParseError,
    TooLargeError,
)
from .generator import GenParams, random_strictly_chordal
from .graph import Graph, connected_components, parse_graph, serialize_graph
from .oracle import (
    OracleResult,
    brute_force_scattering,
    brute_force_toughness,
    restricted_scattering,
    restricted_toughness,
)
from .vulnerability import (
    CASE_COMPLETE,
    CASE_SINGLE_MVS,
    CASE_TOUGH_GE_1,
    CASE_TYPE_A,
    CASE_TYPE_B,
    VulnerabilityReport,
    analyze,
    classify,
    scattering_set_type_b,
    scattering_tough_ge_1,
    toughness,
)

__version__ = "0.1.0"

__all__ = [
    "CASE_COMPLETE",
    "CASE_SINGLE_MVS",
    "CASE_TOUGH_GE_1",
    "CASE_TYPE_A",
    "CASE_TYPE_B",
    "CliqueTree",
    "CompleteGraphError",
    "GenParams",
    "Graph",
    "GraphError",
    "InternalError",
    "NotChordalError",
    "NotConnectedError",
    "NotStrictlyChordalError",
    "OracleResult",
    "ParseError",
    "Separators",
    "TooLargeError",
    "VulnerabilityReport",
    "analyze",
    "brute_force_scattering",
    "brute_force_toughness",
    "build_clique_tree",
    "classify",
    "connected_components",
    "mcs_order",
    "minimal_vertex_separators",
    "parse_graph",
    "random_strictly_chordal",
    "restricted_scattering",
    "restricted_toughness",
    "scattering_set_type_b",
    "scattering_tough_ge_1",
    "serialize_graph",
    "toughness",
    "verify_peo",
]
