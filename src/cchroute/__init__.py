"""Customizable contraction hierarchies routing toolkit."""

from .errors import CchError, ConsistencyError, FormatError, ParseError, StateError
from .graph import INFINITY, Coordinates, InputGraph, dijkstra
from .turns import FORBIDDEN, TurnExpansion, TurnTable, expand_turns, expanded_coordinates
from .order import (RankOrder, Separator, SeparatorDecomposition,
                    dfs_postorder_reorder, inertial_flow_separator, nested_dissection_order,
                    reconstruct_separator_decomposition)
from .preprocess import (Cch, SENTINEL, UpwardGraph, build_cch,
                         build_elimination_tree, contract, graph_elimination_tree)
from .customize import (Customized, CustomizedMetric, SearchGraph, SearchGraphs,
                        build_reduced, customize, query_input_graph)
from .formats import (export_order, import_order, load_cch, load_customized, load_dimacs_co,
                      load_dimacs_gr, load_metric, load_turn_table, save_cch, save_customized,
                      store_dimacs_gr)
from .query import (PoiIndex, QueryState, RphastState, astar_with_cch_potential,
                    knn_dijkstra, knn_query, knn_select, query, rphast_distance,
                    rphast_source, unpack_path)

__all__ = [
    "CchError", "ConsistencyError", "FormatError", "ParseError", "StateError",
    "INFINITY", "Coordinates", "InputGraph", "dijkstra",
    "FORBIDDEN", "load_dimacs_co", "load_dimacs_gr", "load_metric",
    "load_turn_table", "store_dimacs_gr",
    "TurnExpansion", "TurnTable", "expand_turns", "expanded_coordinates",
    "RankOrder", "Separator", "SeparatorDecomposition", "dfs_postorder_reorder",
    "export_order", "import_order", "inertial_flow_separator",
    "nested_dissection_order", "reconstruct_separator_decomposition",
    "Cch", "SENTINEL", "UpwardGraph", "build_cch", "build_elimination_tree",
    "contract", "graph_elimination_tree", "load_cch", "save_cch",
    "Customized", "CustomizedMetric", "SearchGraph", "SearchGraphs",
    "build_reduced", "customize", "load_customized", "query_input_graph",
    "save_customized",
    "PoiIndex", "QueryState", "RphastState", "astar_with_cch_potential",
    "knn_dijkstra", "knn_query", "knn_select", "query", "rphast_distance",
    "rphast_source", "unpack_path",
]

__version__ = "0.1.0"
