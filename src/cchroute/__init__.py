"""Customizable contraction hierarchies routing toolkit."""

from .errors import CchError, ConsistencyError, FormatError, ParseError, StateError
from .graph import INFINITY, Coordinates, InputGraph, dijkstra, saturating_add
from .dimacs import (FORBIDDEN, load_dimacs_co, load_dimacs_gr, load_metric,
                     load_turn_table, store_dimacs_gr)
from .turns import TurnExpansion, expand_turns, expanded_coordinates
from .order import (RankOrder, Separator, SeparatorDecomposition,
                    dfs_postorder_reorder, export_order, import_order,
                    inertial_flow_separator, nested_dissection_order)
from .preprocess import (Cch, SENTINEL, UpwardGraph, build_cch,
                         build_elimination_tree, contract, load_cch,
                         permute_to_rank_ids, reconstruct_separator_decomposition,
                         save_cch)
from .customize import (Customized, CustomizedMetric, SearchGraph, SearchGraphs,
                        build_reduced, customize, load_customized, query_input_graph,
                        save_customized)
from .query import (PoiIndex, QueryState, RphastState, astar_with_cch_potential,
                    knn_dijkstra, knn_query, knn_select, query, rphast_distance,
                    rphast_source, unpack_path)

__all__ = [
    "CchError", "ConsistencyError", "FormatError", "ParseError", "StateError",
    "INFINITY", "Coordinates", "InputGraph", "dijkstra", "saturating_add",
    "FORBIDDEN", "load_dimacs_co", "load_dimacs_gr", "load_metric",
    "load_turn_table", "store_dimacs_gr",
    "TurnExpansion", "expand_turns", "expanded_coordinates",
    "RankOrder", "Separator", "SeparatorDecomposition", "dfs_postorder_reorder",
    "export_order", "import_order", "inertial_flow_separator",
    "nested_dissection_order",
    "Cch", "SENTINEL", "UpwardGraph", "build_cch", "build_elimination_tree",
    "contract", "load_cch", "permute_to_rank_ids",
    "reconstruct_separator_decomposition", "save_cch",
    "Customized", "CustomizedMetric", "SearchGraph", "SearchGraphs",
    "build_reduced", "customize", "load_customized", "query_input_graph",
    "save_customized",
    "PoiIndex", "QueryState", "RphastState", "astar_with_cch_potential",
    "knn_dijkstra", "knn_query", "knn_select", "query", "rphast_distance",
    "rphast_source", "unpack_path",
]

__version__ = "0.1.0"
