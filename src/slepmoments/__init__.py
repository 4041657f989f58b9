"""Slepian-based image moments on the unit disk.

Computes discrete prolate spheroidal sequences, projects images on a polar grid
onto the resulting radial-harmonic kernels, derives rotation-invariant features
from the moment moduli, and ships an experiment harness for rotation stability,
noise robustness, and feature-based classification.
"""

from .classifier import LinearModel, train_classifier, train_classifiers
from .dpss import (
    DpssBasis,
    DpssParams,
    compute_dpss,
    radial_basis,
)
from .errors import AliasingError, DomainError, FormatError, ParameterError
from .harness import (
    DEFAULT_SEED,
    PROTOCOL_ANGLES_DEG,
    PROTOCOL_ORDERS,
    ClassificationReport,
    LabeledDataset,
    StabilityReport,
    classification_sweep,
    default_basis,
    load_labeled_directory,
    make_synthetic_dataset,
    rotation_stability,
)
from .imaging import (
    GENERATOR_NAME,
    NoiseSpec,
    RasterImage,
    add_gaussian_noise,
    read_pgm,
    rotate_image,
    to_polar,
    write_pgm,
)
from .moments import (
    Featurizer,
    MomentSet,
    compute_moments,
    invariants,
    invariants_to_csv,
    moments_from_json,
    moments_to_json,
    reconstruct,
)
from .synthetic import shape_class_image, smooth_test_image

__version__ = "0.1.0"
