"""Shape-based classification of multivariate functional data.

Directional outlyingness summaries (MO, VO, FO and their matrix versions),
robust Mahalanobis scoring of the (MO, VO) feature via the minimum covariance
determinant, depth-based baseline classifiers, and seeded benchmark
generators with an experiment runner.
"""

from .curves import (
    FunctionalGroup,
    Grid,
    derivative_augment,
    read_groups_csv,
    write_groups_csv,
)
from .classify import (
    METHODS,
    BatchPredictions,
    TrainedModel,
    predict_batch,
    rp_directions,
    train,
)
from .errors import (
    ConvergenceError,
    CsvFormatError,
    DegenerateDataError,
    InvalidCovarianceError,
    SingularScatterError,
    UnsupportedParameterError,
)
from .experiment import ExperimentResult, ExperimentSpec, emit_diagnostics, run_experiment
from .outlyingness import (
    pointwise_outlyingness,
    reference_frame,
    summarize_values,
)
from .pointwise import geometric_medians_batch
from .robust import McdFit, c_step, consistency_factor, default_h, mcd_fit, rmd
from .simulate import (
    GeneratorSpec,
    bessel_k,
    default_grid,
    derivative_dataset,
    generate,
    joint_covariance,
    matern,
    matern_matrix,
)

__version__ = "0.1.0"
