"""The public API is a decided list: ``strictchordal.__all__`` must equal it,
and README must name every entry.  Adding, removing or renaming a public
name fails here until this list and README are changed with it."""

import re
from pathlib import Path

import strictchordal

PUBLIC = [
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


def test_public_names_are_the_decided_list():
    assert PUBLIC == sorted(PUBLIC)
    assert strictchordal.__all__ == PUBLIC
    assert all(hasattr(strictchordal, name) for name in PUBLIC)


def test_readme_names_every_public_name():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    quoted = set(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)", readme))
    assert [name for name in PUBLIC if name not in quoted] == []
