"""Turn-cost modeling by graph expansion.

Turn costs and restrictions become part of the graph itself: every stored
arc of the input becomes a vertex of the expanded graph, and every
permitted turn (in-arc, out-arc) at a shared via vertex becomes an arc
weighted with the in-arc's travel cost plus the turn cost. All other
algorithms then run on the expanded graph unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConsistencyError
from .graph import Coordinates, InputGraph

FORBIDDEN = -1
"""Turn-table cost sentinel: the (in, out) arc pair may not be taken."""


@dataclass
class TurnExpansion:
    """Expanded graph plus the input arc of every arc-vertex. Arc-vertex i
    is input arc i, so ``arc_of_vertex`` is ``range(m)``."""

    graph: InputGraph
    arc_of_vertex: range


def expand_turns(g: InputGraph, turns: dict[tuple[int, int], int]) -> TurnExpansion:
    """Expand ``g`` into its turn-aware graph.

    ``turns`` maps (in-arc id, out-arc id) to a cost, or FORBIDDEN to drop
    the turn entirely; pairs absent from the table are free. Both arcs of
    a pair must share a via vertex: head(in) == tail(out).

    The permitted pairs come out grouped by in-arc with out-arcs strictly
    ascending, the order ``InputGraph.from_sorted_arcs`` takes, so they
    stream into it one at a time and are never held as a list. Its rules
    hold here too: a weight at or above INFINITY raises, and the (a, a)
    turn of a self-loop arc a is dropped and counted in
    ``dropped_self_loops``.
    """
    m = g.arc_count
    for (a, b), cost in turns.items():
        if not (0 <= a < m and 0 <= b < m):
            raise ConsistencyError(f"turn ({a}, {b}) references nonexistent arc")
        if g.head[a] != g.tail[b]:
            raise ConsistencyError(
                f"turn ({a}, {b}) does not share a via vertex: "
                f"head {g.head[a]} != tail {g.tail[b]}")
        if cost != FORBIDDEN and cost < 0:
            raise ConsistencyError(f"turn ({a}, {b}) has negative cost {cost}")
    expanded = InputGraph.from_sorted_arcs(m, _permitted_turns(g, turns))
    return TurnExpansion(graph=expanded, arc_of_vertex=range(m))


def _permitted_turns(g: InputGraph, turns: dict[tuple[int, int], int]):
    """(in-arc, out-arc, weight) of every turn ``turns`` does not forbid,
    by in-arc, then out-arc."""
    first_out, head, weight = g.first_out, g.head, g.weight
    for a in range(g.arc_count):
        via, la = head[a], weight[a]
        for b in range(first_out[via], first_out[via + 1]):
            cost = turns.get((a, b), 0)
            if cost != FORBIDDEN:
                yield a, b, la + cost


def expanded_coordinates(g: InputGraph, coords):
    """Midpoint coordinates for arc-vertices, usable by inertial ordering:
    arc-vertex i is input arc i of ``g``."""
    return Coordinates(x=[(coords.x[t] + coords.x[h]) // 2 for t, h in zip(g.tail, g.head)],
                       y=[(coords.y[t] + coords.y[h]) // 2 for t, h in zip(g.tail, g.head)])
