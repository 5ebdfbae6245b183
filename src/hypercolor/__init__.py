"""Exact complete-coloring toolkit for k-uniform hypergraphs.

A complete t-coloring assigns one of t colors to every vertex so that no
hyperedge repeats a color, every color class is nonempty, and every
k-subset of the t colors appears as the color set of some hyperedge.
The package constructs the hypergraph families where complete colorings
behave badly (gaps between the chromatic and achromatic numbers),
decides existence exactly, and searches for small counterexamples.
"""

from .core import (
    Coloring,
    DocumentError,
    Hypergraph,
    HypergraphError,
    SimplicityError,
    SpectrumReport,
    UniformityError,
    VertexRangeError,
    covers_all,
    incidence_graph,
    independent_sets,
    is_complete,
    is_proper,
    parse_hypergraph,
    serialize_hypergraph,
)
from .solver import (
    BudgetExhaustedError,
    EnumerationCapExceeded,
    InvalidWitnessError,
    SolveResult,
    VertexLimitError,
    achromatic_number,
    brute_force_spectrum,
    chromatic_number,
    exists_complete,
    exists_proper,
    psi_upper_bound,
    spectrum,
)
from .constructions import (
    GridParams,
    SplitPattern,
    complete_uniform,
    grid_part_coloring,
    grid_position_coloring,
    grid_transversal,
    regular15,
    split_lift,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExhaustedError",
    "Coloring",
    "DocumentError",
    "EnumerationCapExceeded",
    "GridParams",
    "Hypergraph",
    "HypergraphError",
    "InvalidWitnessError",
    "SimplicityError",
    "SolveResult",
    "SpectrumReport",
    "SplitPattern",
    "UniformityError",
    "VertexLimitError",
    "VertexRangeError",
    "achromatic_number",
    "brute_force_spectrum",
    "chromatic_number",
    "complete_uniform",
    "covers_all",
    "exists_complete",
    "exists_proper",
    "grid_part_coloring",
    "grid_position_coloring",
    "grid_transversal",
    "incidence_graph",
    "independent_sets",
    "is_complete",
    "is_proper",
    "parse_hypergraph",
    "psi_upper_bound",
    "regular15",
    "serialize_hypergraph",
    "spectrum",
    "split_lift",
]
