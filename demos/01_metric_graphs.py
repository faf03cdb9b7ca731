"""Tour of the core graph model: points, distances, regions, thickenings.

Run: python3 demos/01_metric_graphs.py
"""

import math

import ghgraph as gg

# A metric graph is a finite multigraph with positive edge lengths, carrying
# the shortest-path metric over all points of its edges, not just vertices.
# Self-loops and parallel edges are allowed and meaningful.
G = gg.build_graph(
    ["u", "v", "w"],
    [
        ("long", "u", "v", 3.0),
        ("short", "u", "v", 1.0),
        ("loop", "v", "v", 2.0),
        ("spur", "v", "w", 0.5),
    ],
)
print("vertices:", G.vertices)
# Each edge view is a named tuple (id, u, v, length): the same 4-tuple
# build_graph reads.
print("edges:", [tuple(e) for e in G.edges])
print("first edge:", G.edges[0], "length", G.edges[0].length)

# Points live on edges (edge id + offset) or at vertices. Offsets at an
# endpoint canonicalize to the vertex.
p = gg.edge_point(G, "long", 0.5)
q = gg.edge_point(G, "long", 2.9)
print("\nd(p, q) along the edge would be 2.4, but the short parallel edge")
print("gives a faster route:", gg.point_distance(G, p, q))

a = gg.edge_point(G, "loop", 0.1)
b = gg.edge_point(G, "loop", 1.9)
print("self-loop wraps around:", gg.point_distance(G, a, b))

# Global quantities.
print("\ngraph diameter:", gg.graph_diameter(G))
print("boundary (degree-1 vertices):", gg.boundary(G))
print("smallest non-terminal edge:", gg.smallest_nonterminal_edge(G))
print(
    "simple loops:",
    [(l.length, l.steps) for l in gg.enumerate_simple_loops(G)],
)

# Regions are unions of open edge intervals plus chosen vertices; thickening
# a point set produces the union of open balls as such a region.
A = gg.point_set(G, ["u", ("loop", 1.0)])
W = gg.thickening(G, A, 0.75)
print("\n0.75-thickening of {u, loop@1.0}:")
for eid, ivs in sorted(W.intervals.items()):
    print(f"  {eid}: {ivs}")
print("  vertices:", sorted(W.vertices))
print("connected?", gg.region_is_connected(G, W))

W2 = gg.thickening(G, A, 1.6)
print("1.6-thickening connected?", gg.region_is_connected(G, W2))

# Circles are single-vertex self-loops; a few helpers recognize them.
C = gg.circle_graph(2 * math.pi)
print("\ncircle circumference:", gg.circle_circumference(C))
