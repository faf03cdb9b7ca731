import ghgraph as gg

# the public surface: every module's __all__, re-exported by the package
PUBLIC = {
    "__version__",
    # errors
    "GhGraphError", "ValidationError", "ParseError", "GuardExceeded", "LoopCountGuardExceeded",
    "ConstructionVerificationFailed", "NonPositiveEdgeLength", "UnknownEndpoint", "DisconnectedGraph",
    "PointNotOnGraph", "EmptySet", "EmptyRegion", "NonPositiveRadius", "NotACorrespondence",
    "InvalidMetric", "NotATree", "NotACircle", "PointOutsideInterval", "NonPositiveEpsilon",
    "EpsilonOutOfRange",
    # graph
    "TOLERANCE", "Edge", "MetricGraph", "build_graph", "GraphPoint", "vertex_point", "edge_point",
    "PointSet", "point_set", "point_distance", "pairwise_distances", "distance_to_set",
    "set_diameter", "graph_diameter", "boundary", "smallest_nonterminal_edge",
    "circle_circumference", "SimpleLoop", "enumerate_simple_loops", "EdgeIntervalSet", "region",
    "whole_graph_region", "thickening", "region_is_connected",
    # hausdorff
    "directed_hausdorff_sets", "hausdorff_sets", "hausdorff_graph_to_set",
    "hausdorff_graph_to_region", "directed_hausdorff_boundary",
    # oracle
    "FiniteMetricSpace", "Correspondence", "distortion", "gh_exact", "restrict_metric",
    "is_isometric",
    # bounds
    "LOWER_BOUND", "EXACT_VALUE", "INAPPLICABLE", "Hypothesis", "BoundCertificate",
    "diameter_bound", "tree_equality", "tree_pair_bound", "circle_bound", "circle_pair_bound",
    "graph_bound", "graph_pair_bound", "interval_gh_exact", "best_bound",
    # constructions
    "circle_graph", "segment_graph", "star_graph", "theta_graph", "star_counterexample",
    "region_net", "ArcCorrespondence", "circle_six_point", "arc_correspondence_distortion",
    "epsilon_net", "grid_coordinates", "grid_interval",
}


def test_package_exports_exactly_the_public_names():
    assert len(PUBLIC) == 82
    assert len(gg.__all__) == len(set(gg.__all__))
    assert set(gg.__all__) == PUBLIC
    assert all(hasattr(gg, name) for name in gg.__all__)
