"""Recognition and vulnerability analysis of strictly chordal graphs.

The package recognizes strictly chordal graphs (block graphs with true twins
added), computes their toughness, scattering number and a scattering set in
near-linear time, and ships exponential brute-force oracles plus a
reproducible random generator for validating the fast path.
"""

from importlib import import_module

__version__ = "0.1.0"

# each public name and the submodule that defines it: ``__getattr__``
# imports the submodule on first access, so a call loads only what it uses
_MODULE_OF = {name: module for module, names in {
    "chordal": "CliqueTree Separators build_clique_tree mcs_order minimal_vertex_separators"
               " verify_peo",
    "errors": "CompleteGraphError GraphError InternalError NotChordalError NotConnectedError"
              " NotStrictlyChordalError ParseError TooLargeError",
    "generator": "GenParams random_strictly_chordal",
    "graph": "Graph connected_components parse_graph serialize_graph",
    "oracle": "OracleResult brute_force_scattering brute_force_toughness restricted_scattering"
              " restricted_toughness",
    "vulnerability": "CASE_COMPLETE CASE_SINGLE_MVS CASE_TOUGH_GE_1 CASE_TYPE_A CASE_TYPE_B"
                     " VulnerabilityReport analyze classify scattering_set_type_b"
                     " scattering_tough_ge_1 toughness",
}.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


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
