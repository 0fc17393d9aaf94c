"""Graph algorithms: every computation of the survey's Table 9 plus the
Table 11 traversals and the Section 4.3 streaming/incremental variants.

Module map (Table 9 row -> module):

* Finding Connected Components -> :mod:`repro.algorithms.components`
* Neighborhood Queries -> :mod:`repro.algorithms.traversal`
* Finding Short / Shortest Paths -> :mod:`repro.algorithms.paths`
* Subgraph Matching -> :mod:`repro.algorithms.matching`
* Ranking & Centrality Scores -> :mod:`repro.algorithms.pagerank`,
  :mod:`repro.algorithms.centrality`
* Aggregations -> :mod:`repro.algorithms.aggregation`
* Reachability Queries -> :mod:`repro.algorithms.paths`
* Graph Partitioning -> :mod:`repro.algorithms.partitioning`
* Node-similarity -> :mod:`repro.algorithms.similarity`
* Finding Frequent or Densest Subgraphs -> :mod:`repro.algorithms.dense`
* Computing Minimum Spanning Tree -> :mod:`repro.algorithms.mst`
* Graph Coloring -> :mod:`repro.algorithms.coloring`
* Diameter Estimation -> :mod:`repro.algorithms.diameter`
* Traversals (Table 11) -> :mod:`repro.algorithms.traversal`
* Streaming / incremental (Section 4.3) ->
  :mod:`repro.algorithms.streaming_algos`
"""

from repro.algorithms.aggregation import (
    average_clustering,
    clustering_coefficients,
    degree_assortativity,
    degree_histogram,
    degree_statistics,
    density,
    global_clustering,
    local_clustering_coefficient,
    reciprocity,
    triangle_count,
    triangles_per_vertex,
)
from repro.algorithms.centrality import (
    approximate_betweenness,
    betweenness_centrality,
    closeness_centrality,
    degree_centrality,
    harmonic_centrality,
    top_central,
)
from repro.algorithms.coloring import (
    chromatic_number_exact,
    dsatur_coloring,
    greedy_coloring,
    is_proper_coloring,
    num_colors,
)
from repro.algorithms.components import (
    IncrementalComponents,
    UnionFind,
    component_labels,
    connected_components,
    connected_components_unionfind,
    is_connected,
    largest_component,
    num_components,
    strongly_connected_components,
)
from repro.algorithms.dense import (
    core_numbers,
    degeneracy,
    densest_subgraph,
    frequent_subgraphs,
    k_core,
    k_truss,
    subgraph_density,
)
from repro.algorithms.diameter import (
    double_sweep_lower_bound,
    eccentricity,
    effective_diameter,
    exact_diameter,
    ifub_diameter,
    radius,
)
from repro.algorithms.matching import (
    Var,
    count_motif,
    count_subgraph_isomorphisms,
    find_subgraph_isomorphisms,
    match_triples,
)
from repro.algorithms.mst import (
    is_spanning_forest,
    kruskal_mst,
    maximum_spanning_tree,
    mst_weight,
    prim_mst,
)
from repro.algorithms.pagerank import (
    pagerank,
    personalized_pagerank,
    top_ranked,
)
from repro.algorithms.partitioning import (
    balance,
    bfs_grow_partition,
    communication_volume,
    edge_cut,
    label_propagation_refine,
    partition_graph,
    random_partition,
)
from repro.algorithms.paths import (
    ReachabilityIndex,
    bfs_distances,
    bidirectional_shortest_path,
    dijkstra,
    dijkstra_path,
    is_reachable,
    shortest_path,
)
from repro.algorithms.similarity import (
    adamic_adar,
    common_neighbors,
    cosine_similarity,
    jaccard_similarity,
    most_similar,
    preferential_attachment,
    simrank,
)
from repro.algorithms.streaming_algos import (
    IncrementalKCore,
    StreamingDegreeStats,
    StreamingTriangleCounter,
    hill_climb,
    streaming_connected_components,
)
from repro.algorithms.traversal import (
    bfs_layers,
    bfs_order,
    bfs_tree,
    bfs_with_depth,
    dfs_edges,
    dfs_postorder,
    dfs_preorder,
    k_hop_neighbors,
    topological_order,
)
