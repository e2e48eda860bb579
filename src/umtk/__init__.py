"""umtk: how metric, and how ultrametric, is a data set?

The package embeds data (classical scaling, correspondence analysis),
checks and repairs triangle inequalities, builds deterministic
agglomerative hierarchies, measures ultrametricity through triplet
geometry, and extracts the subset of triplets on which independent
clusterings and raw geometry agree: the data's ultrametric component.
"""

__version__ = "0.5.0"

from .component import (
    RETAINED_DTYPE,
    EpsilonProfile,
    epsilon_threshold_count,
    ultrametric_component,
)
from .consensus import (
    ConsensusReport,
    ConsensusTable,
    TripletSignature,
    consensus_count,
    consensus_dendrogram,
    consensus_table,
    triplet_signature,
)
from .corpus import (
    Corpus,
    TermDocMatrix,
    build_term_doc,
    random_mirror,
    read_corpus_dir,
    read_corpus_file,
    tokenize,
)
from .hierarchy import (
    INVERSION_FREE_CRITERIA,
    LINKAGE_CRITERIA,
    Dendrogram,
    EdgeList,
    Merge,
    cophenetic,
    cophenetic_correlation,
    detect_inversions,
    export_newick,
    join_nodes,
    linkage,
    minmax_path_closure,
    mst_kruskal,
)
from .matrices import (
    CoordinateMatrix,
    DissimilarityMatrix,
    FrequencyMatrix,
    UltrametricMatrix,
    euclidean_distances,
)
from .spectral import (
    CaResult,
    MetricityReport,
    SpectralResult,
    correspondence_analysis,
    gram_from_distances,
    metricity_coefficient,
    pcoa,
    select_columns,
)
from .transforms import (
    ViolationReport,
    cailliez_additive,
    check_metric,
    check_ultrametric,
    power_shrink,
)
from .ultrametricity import (
    DEFAULT_EPSILON,
    TripletGeometry,
    TripletVerdict,
    UltrametricityReport,
    alpha_epsilon,
    classify_triplet,
    lerman_h,
    rammal_index,
    treves_hartmann_points,
    triplet_geometry,
)

__all__ = [
    "__version__",
    "RETAINED_DTYPE", "EpsilonProfile", "epsilon_threshold_count",
    "ultrametric_component",
    "ConsensusReport", "ConsensusTable", "TripletSignature",
    "consensus_count", "consensus_dendrogram", "consensus_table",
    "triplet_signature",
    "Corpus", "TermDocMatrix", "build_term_doc", "random_mirror",
    "read_corpus_dir", "read_corpus_file", "tokenize",
    "INVERSION_FREE_CRITERIA", "LINKAGE_CRITERIA", "Dendrogram", "EdgeList",
    "Merge", "cophenetic", "cophenetic_correlation", "detect_inversions",
    "export_newick", "join_nodes", "linkage", "minmax_path_closure", "mst_kruskal",
    "CoordinateMatrix", "DissimilarityMatrix", "FrequencyMatrix",
    "UltrametricMatrix", "euclidean_distances",
    "CaResult", "MetricityReport", "SpectralResult",
    "correspondence_analysis", "gram_from_distances", "metricity_coefficient",
    "pcoa", "select_columns",
    "ViolationReport", "cailliez_additive", "check_metric",
    "check_ultrametric", "power_shrink",
    "DEFAULT_EPSILON", "TripletGeometry", "TripletVerdict",
    "UltrametricityReport", "alpha_epsilon", "classify_triplet", "lerman_h",
    "rammal_index", "treves_hartmann_points", "triplet_geometry",
]
