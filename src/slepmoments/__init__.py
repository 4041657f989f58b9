"""Slepian-based image moments on the unit disk.

Computes discrete prolate spheroidal sequences, projects images on a polar grid
onto the resulting radial-harmonic kernels, derives rotation-invariant features
from the moment moduli, and ships an experiment harness for rotation stability,
noise robustness, and feature-based classification.

Each public name is imported from its submodule on first use (PEP 562), so
``import slepmoments`` loads no numpy. That leaves the BLAS thread choice of
``slepmoments.cli`` to be made before numpy loads, and a library user's own
BLAS settings to the user.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {
    "classifier": ("LinearModel", "train_classifier", "train_classifiers"),
    "dpss": ("DpssBasis", "DpssParams", "compute_dpss", "radial_basis"),
    "errors": ("AliasingError", "DomainError", "FormatError", "ParameterError"),
    "harness": (
        "DEFAULT_SEED",
        "PROTOCOL_ANGLES_DEG",
        "PROTOCOL_ORDERS",
        "ClassificationReport",
        "LabeledDataset",
        "StabilityReport",
        "classification_sweep",
        "default_basis",
        "load_labeled_directory",
        "make_synthetic_dataset",
        "rotation_stability",
    ),
    "imaging": (
        "GENERATOR_NAME",
        "NoiseSpec",
        "RasterImage",
        "add_gaussian_noise",
        "read_pgm",
        "rotate_image",
        "to_polar",
        "write_pgm",
    ),
    "moments": (
        "Featurizer",
        "MomentSet",
        "compute_moments",
        "invariants",
        "invariants_to_csv",
        "moments_from_json",
        "moments_to_json",
        "reconstruct",
    ),
    "synthetic": ("shape_class_image", "smooth_test_image"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys())
