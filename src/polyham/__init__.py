"""Probabilistic polynomials for thresholds and exact Hamming nearest neighbors."""

from .errors import (
    DimensionMismatchError,
    EmptyInputError,
    InvalidParametersError,
    ParseError,
    PolyhamError,
    ResourceBudgetError,
    VerificationError,
)
from .vectors import (
    BitVector,
    Dataset,
    complement,
    dump_dataset,
    hamming_distance,
    inner_product,
    load_dataset,
)
from .polyalg import (
    Gf2Polynomial,
    IntPolynomial,
    binomial_matrix_det,
    interpolate_weights,
)
from .probpoly import (
    SymmetricFunctionSpec,
    ThresholdSpec,
    eval_circuit,
    expand_circuit,
    measure_error,
    sample_symmetric,
    sample_threshold,
)
from .hammingpoly import (
    GroupPredicateSpec,
    eval_group_pair,
    sample_hamming_poly,
)
from .paireval import eval_all_pairs
from .neighbors import (
    ClosestPairConfig,
    NNResult,
    batch_nn,
    batch_nn_bruteforce,
    bichromatic_close_pair,
    closest_pair,
    closest_pair_bruteforce,
)
from .reductions import (
    IntVector,
    extreme_inner_product,
    find_orthogonal_pair,
    furthest_pair,
    l1_batch_nn,
    max_jaccard_pair,
    unary_encode,
)

__version__ = "0.1.0"
