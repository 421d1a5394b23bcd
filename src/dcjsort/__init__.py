"""DCJ distances between co-tailed genomes, exact counting and uniform
sampling of parsimonious sorting scenarios, and lossless conversion between
fission scenarios, parking functions, and labeled trees."""

from .adjacency_graph import (
    AdjacencyGraph,
    CycleTracker,
    LabeledCycle,
    build_adjacency_graph,
    dcj_distance,
    realize_scenario,
)
from .enumeration import (
    count_scenarios,
    enumerate_dcj_sorting_scenarios,
    enumerate_scenarios,
    interleave,
    make_rng,
    multinomial,
    sample_scenario,
)
from .errors import (
    BlockMismatchError,
    DcjsortError,
    GenomeParseError,
    GuardExceededError,
    InvalidDcjError,
    InvalidFissionError,
    InvalidParkingFunctionError,
    InvalidScenarioError,
    InvalidTreeError,
    NotCoTailedError,
    TextFormatError,
)
from .fissions import (
    CyclePartition,
    Fission,
    FissionScenario,
    apply_fission,
    chain_top,
    format_scenario,
    is_non_crossing,
    parse_scenario,
    partner_in,
    refines,
    run_scenario,
    scenario_partners,
    single_cycle,
    singletons,
    validate_scenario,
)
from .genome import (
    Adjacency,
    Chromosome,
    DcjOp,
    Extremity,
    Genome,
    adjacency,
    adjacency_from_signed,
    apply_dcj,
    co_tailed,
    format_adjacency,
    make_dcj,
    parse_genome,
    read_genomes,
    serialize_genome,
    signed_pair,
)
from .parking import (
    count_parking,
    format_parking,
    is_parking_function,
    parking_to_scenario,
    parse_parking,
    scenario_to_parking,
)
from .trees import (
    LabeledTree,
    erase_edges_components,
    format_tree,
    parse_tree,
    prufer_decode,
    prufer_encode,
    scenario_to_tree,
    tree_to_dot,
    tree_to_scenario,
)

__version__ = "0.1.0"
