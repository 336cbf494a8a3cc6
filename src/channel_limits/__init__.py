"""Numerical laboratory for limiting output sets of quantum channels.

The package pairs finite-dimensional channel samples (Haar isometries,
weighted unitary families, measure-and-prepare maps) with the exact
limits their output sets converge to, so Monte-Carlo runs always have a
closed-form target to be measured against.
"""

from .channels import (
    Channel,
    DepolarizingChannel,
    EBChannel,
    MixedUnitaryChannel,
    StinespringChannel,
    make_depolarizing,
    make_pinching,
    validate_povm,
    validate_weights,
)
from .config import ExperimentConfig, load_config, parse_config_text
from .ensembles import (
    StinespringRegime,
    haar_isometry,
    haar_unitary,
    sample_density_matrix,
    sample_mixed_unitary_channel,
    sample_projective_povm,
    sample_pure_state,
    sample_stinespring_channel,
    sample_unit_norm_povm,
    stream,
)
from .experiments import (
    ExperimentRecord,
    emit_results,
    run_experiment,
)
from .geometry import (
    NormAscent,
    SpectrumProbe,
    estimate_smin,
    holevo_from_smin,
    norm_ascent,
    probe_top_eigenvalues,
    weyl_operator,
    weyl_twirl,
)
from .linalg import (
    DensityMatrix,
    EigenSystem,
    hermitian_eigenvalues,
    hermitian_eigs,
    hermitize,
    normalize_states,
    partial_trace_right,
    von_neumann_entropy,
)
from .oracles import (
    SphereSupremum,
    SubsetEvaluation,
    eb_limit,
    evaluate_subset,
    flat_tail_entropy,
    free_unitary_sum_norm,
    maximize_over_sphere,
    mixed_unitary_norm_limit,
    one_heavy_sup_value,
    one_heavy_weights,
    rank_one_limit,
    sphere_sup,
    stinespring_peak_eigenvalue,
)
from .tensor_lab import (
    EBTensorDecomposition,
    PositivityReport,
    eb_tensor_decompose,
    eb_tensor_output,
    uniform_mixing_positivity_probe,
)

__version__ = "0.1.0"
