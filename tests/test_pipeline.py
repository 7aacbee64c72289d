"""The fit -> predict seam shared by ``classify`` and ``eval``.

For every registered method x classifier, the outputs of both commands are
checked against a reference loop written here over the classifier
primitives. A name added to either registry is covered automatically, and a
classifier name without a reference below fails the test.
"""

import itertools

import numpy as np
import pytest

from specangle import evaluate
from specangle.classify import nn_cosine_classify, sbomp_classify
from specangle.cli import main
from specangle.data import (
    SampleSet,
    load_cube,
    load_ground_truth,
    pixels_to_sample_set,
    split_train_test,
    synth_scene,
)
from specangle.evaluate import (
    CLASSIFIERS,
    ExperimentConfig,
    fit_projection,
    projected_block,
    run_experiment,
)
from specangle.projections import METHODS
from specangle.pursuit import BlockDictionary

# window 3 blocks have 9 columns, so r >= 9 keeps the K=1 solves full rank
R, WINDOW, SPARSITY, N_TRAIN, N_TEST, SEED = 10, 3, 1, 5, 20, 4
PIPELINES = list(itertools.product(METHODS, CLASSIFIERS))


def reference_labels(classifier, proj, cube, train, coords):
    """Label each pixel in coords with one direct classifier call."""
    P = proj.matrix
    if classifier == "nn-cos":
        train_proj = SampleSet(features=P.T @ train.features, labels=train.labels)
        return [nn_cosine_classify(train_proj, P.T @ cube.values[r, c]).label for r, c in coords]
    train_window = {"sbomp": WINDOW, "somp": 1}[classifier]
    dictionary = BlockDictionary(
        blocks=tuple(projected_block(proj, cube, rc, train_window) for rc in train.coords),
        classes=train.labels,
    )
    return [
        sbomp_classify(dictionary, projected_block(proj, cube, rc, WINDOW), SPARSITY).label
        for rc in coords
    ]


def config(method, classifier):
    return ExperimentConfig(
        method=method, classifier=classifier, r=R, window=WINDOW, sparsity=SPARSITY,
        n_train=N_TRAIN, n_test=N_TEST, trials=1, seed=SEED,
    )


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    assert main([
        "synth", "--rows", "18", "--cols", "18", "--bands", "12", "--classes", "3",
        "--noise-sd", "0.05", "--patch-size", "6", "--seed", "11", "--out", str(out),
    ]) == 0
    return out


@pytest.mark.parametrize("method,classifier", PIPELINES)
def test_classify_matches_reference(scene_dir, tmp_path, method, classifier):
    out = tmp_path / "pred.csv"
    assert main([
        "classify", "--cube", str(scene_dir / "cube.csv"), "--gt", str(scene_dir / "gt.csv"),
        "--method", method, "--classifier", classifier, "--r", str(R),
        "--window", str(WINDOW), "--sparsity", str(SPARSITY),
        "--n-train", str(N_TRAIN), "--seed", str(SEED), "--out", str(out),
    ]) == 0

    cube = load_cube(scene_dir / "cube.csv", "csv_bands")
    gt = load_ground_truth(scene_dir / "gt.csv", "csv")
    train_coords, _ = split_train_test(gt, N_TRAIN, 0, SEED)
    train = pixels_to_sample_set(cube, train_coords, gt)
    train_set = {tuple(rc) for rc in train_coords}
    held_out = [tuple(rc) for rc in np.argwhere(gt.labels > 0) if tuple(rc) not in train_set]
    proj = fit_projection(cube, train, config(method, classifier))
    pred = reference_labels(classifier, proj, cube, train, held_out)

    expected = ["row,col,true,predicted"] + [
        f"{r},{c},{gt.labels[r, c]},{p}" for (r, c), p in zip(held_out, pred)
    ]
    assert out.read_text().splitlines() == expected


@pytest.mark.parametrize("method,classifier", PIPELINES)
def test_eval_confusion_matches_reference(method, classifier):
    cube, gt = synth_scene(18, 18, 12, 3, noise_sd=0.05, patch_size=6, seed=11)
    cfg = config(method, classifier)
    report = run_experiment(cube, gt, cfg)

    train_coords, test_coords = split_train_test(
        gt, N_TRAIN, N_TEST, evaluate._split_seed(SEED, 0)
    )
    train = pixels_to_sample_set(cube, train_coords, gt)
    proj = fit_projection(cube, train, cfg)
    expected = np.zeros((gt.n_classes, gt.n_classes), dtype=np.int64)
    for (r, c), p in zip(test_coords, reference_labels(classifier, proj, cube, train, test_coords)):
        expected[gt.labels[r, c] - 1, p - 1] += 1
    np.testing.assert_array_equal(report.confusions[0], expected)
