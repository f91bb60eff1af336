"""Recognition and vulnerability analysis of strictly chordal graphs.

The package recognizes strictly chordal graphs (block graphs with true twins
added), computes their toughness, scattering number and a scattering set in
near-linear time, and ships exponential brute-force oracles plus a
reproducible random generator for validating the fast path.
"""

from importlib import import_module

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


# each public name and the submodule that defines it: ``__getattr__``
# imports the submodule on first access, so a call loads only what it uses
_MODULE_OF = {
    "CASE_COMPLETE": "vulnerability",
    "CASE_SINGLE_MVS": "vulnerability",
    "CASE_TOUGH_GE_1": "vulnerability",
    "CASE_TYPE_A": "vulnerability",
    "CASE_TYPE_B": "vulnerability",
    "CliqueTree": "chordal",
    "CompleteGraphError": "errors",
    "GenParams": "generator",
    "Graph": "graph",
    "GraphError": "errors",
    "InternalError": "errors",
    "NotChordalError": "errors",
    "NotConnectedError": "errors",
    "NotStrictlyChordalError": "errors",
    "OracleResult": "oracle",
    "ParseError": "errors",
    "Separators": "chordal",
    "TooLargeError": "errors",
    "VulnerabilityReport": "vulnerability",
    "analyze": "vulnerability",
    "brute_force_scattering": "oracle",
    "brute_force_toughness": "oracle",
    "build_clique_tree": "chordal",
    "classify": "vulnerability",
    "connected_components": "graph",
    "mcs_order": "chordal",
    "minimal_vertex_separators": "chordal",
    "parse_graph": "graph",
    "random_strictly_chordal": "generator",
    "restricted_scattering": "oracle",
    "restricted_toughness": "oracle",
    "scattering_set_type_b": "vulnerability",
    "scattering_tough_ge_1": "vulnerability",
    "serialize_graph": "graph",
    "toughness": "vulnerability",
    "verify_peo": "chordal",
}


def __getattr__(name):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
