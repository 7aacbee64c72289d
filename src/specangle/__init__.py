"""Angle-preserving linear subspaces and block-sparse classification for
hyperspectral pixels.

The package learns linear projections that preserve spectral-angle structure,
unsupervised from feature-space neighbors or spatial windows, or supervised
from class structure, and classifies pixels with a block-structured greedy
pursuit over spatial-neighborhood dictionaries. A repeated random-subsampling
harness reproduces the standard evaluation protocol at desk scale.
"""

from .data import (
    GroundTruth,
    HyperCube,
    SampleSet,
    l2_normalize_pixels,
    load_cube,
    load_ground_truth,
    pixels_to_sample_set,
    save_cube,
    save_ground_truth,
    split_train_test,
    synth_scene,
)
from .evaluate import (
    AccuracyReport,
    ExperimentConfig,
    accuracy_curve_csv,
    accuracy_table,
    export_sphere_coords,
    fit_pipeline,
    run_experiment,
    sphere_coords_csv,
    sweep,
)
from .linalg import gen_eig_desc, least_squares, sym_eig_desc
from .projections import (
    Projection,
    fit_ada,
    fit_lada,
    fit_lpp,
    fit_lspp,
    fit_slspp,
    project,
)
from .pursuit import BlockDictionary

__version__ = "0.1.0"

__all__ = [
    "GroundTruth",
    "HyperCube",
    "SampleSet",
    "l2_normalize_pixels",
    "load_cube",
    "load_ground_truth",
    "pixels_to_sample_set",
    "save_cube",
    "save_ground_truth",
    "split_train_test",
    "synth_scene",
    "AccuracyReport",
    "ExperimentConfig",
    "accuracy_curve_csv",
    "accuracy_table",
    "export_sphere_coords",
    "fit_pipeline",
    "run_experiment",
    "sphere_coords_csv",
    "sweep",
    "gen_eig_desc",
    "least_squares",
    "sym_eig_desc",
    "Projection",
    "fit_ada",
    "fit_lada",
    "fit_lpp",
    "fit_lspp",
    "fit_slspp",
    "project",
    "BlockDictionary",
]
