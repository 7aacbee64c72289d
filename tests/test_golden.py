"""Golden outputs: the sha256 of what the commands write on one fixed scene.

The scene is the 18x18x12, 3-class ``synth --seed 11`` scene of test_cli.py.
Pinned are the ``eval`` JSON of every method x classifier pipeline, the
``fit`` projection file of every method (fitted on every labelled pixel) and
one ``classify`` CSV of window-3 block pursuit at K = 2. A change that keeps
the numbers keeps these bytes; one that changes outputs on purpose updates
the digests below and says why in CHANGES.md. The last bits of a float, and
so the digests, may differ under another BLAS build than the one they were
recorded with.
"""

import hashlib

import pytest

from specangle.cli import main
from specangle.evaluate import CLASSIFIERS
from specangle.projections import METHODS

PIPELINE = ["--r", "10", "--window", "3", "--sparsity", "2", "--n-train", "5"]

EVAL_DIGESTS = {
    ("lspp", "sbomp"): "6693cdb2789b8a7f87281cfafa8928673369f33184d9fd83a08a485de9a944ec",
    ("lspp", "somp"): "7a00fae0bc3b425fbde0d4375e103258994644e8ace9b1ccd67d29032d48429c",
    ("lspp", "nn-cos"): "7993bb0c4fe030ac6d94d053f6f407e27e442a6a7ffc5587cdc46f2ab79b1f9a",
    ("slspp", "sbomp"): "097baf10aab5b92e2ec601b42d393157893ed70caf5de5b176b9fdda6c5930fa",
    ("slspp", "somp"): "06c74a4e4103d186b1460dcd31eb22c99db2574baa31815e844b912fbfee085f",
    ("slspp", "nn-cos"): "049092c40893a9ca33332e0d10be5f38fc0f6ace67d02a5575abd3789a215c74",
    ("ada", "sbomp"): "63423c03e5d789cbdd6d2e5a9ad2c35037a6686b6fb224a3c668e7c81f3e0be4",
    ("ada", "somp"): "516392bd15b332e8a374be68cf918d732e5a94f9d5912481d8fcfeb26158d441",
    ("ada", "nn-cos"): "a5376702e2274f46b54bf3b888a188e2fcbe925f8e10ad36834266cf2c9a8898",
    ("lada", "sbomp"): "dea6e6fd3bd256e2a1cdea30798738a1de55dbf7154c0050f8ce44f6d1935fc8",
    ("lada", "somp"): "6723a9401f032bd3161740a83a18896d7373da4a8f9e4bd8bc3edafc3afdd9a7",
    ("lada", "nn-cos"): "3d65383a5f458b7c655acb67024a8b091f6afdfde9506c03a9930dbd767bc10f",
    ("lpp", "sbomp"): "77a40d50197842cb3172448b3087e8be6d1a3702fc4919856519037faab4c698",
    ("lpp", "somp"): "af781627f99b0a1d5b21f42c55ad94da9b02a5a11cfeb4d231433cd8e29b7fda",
    ("lpp", "nn-cos"): "f95c12a49c0036753cfb73d22b827f4d5e78881f62d51d9d43f370167aee87eb",
}

FIT_DIGESTS = {
    "lspp": "e56eb032feec0117006114fee3be9c81cca011f6fd551fdf34d7374d31a94b00",
    "slspp": "23d4d372d8e7dbc0e10c60a4ae092323e42a4f454234ab5c931e3bcf6c1bb915",
    "ada": "3b1e24741b995357f630f29b78d367947eaaac9d15184d2053369b85d6da0459",
    "lada": "361fd83a280b02b38e0bf2e36184d269d75398e2bc465ab6798500b2726518e9",
    "lpp": "0f73a24a02f50631f49b84395720d9bb16835dd2bc64f511d840caa575e6c7ec",
}

CLASSIFY_DIGEST = "c9d922ec4bcd1172e084a1648d31fb09eb3bdb81879abe87392a6a4549640176"


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "scene"
    assert main([
        "synth", "--rows", "18", "--cols", "18", "--bands", "12", "--classes", "3",
        "--noise-sd", "0.05", "--patch-size", "6", "--seed", "11", "--out", str(out),
    ]) == 0
    return ["--cube", str(out / "cube.csv"), "--gt", str(out / "gt.csv")]


def digest(argv, out):
    assert main([*argv, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_every_pipeline_is_pinned():
    assert set(EVAL_DIGESTS) == {(m, c) for m in METHODS for c in CLASSIFIERS}
    assert set(FIT_DIGESTS) == set(METHODS)


@pytest.mark.parametrize("method, classifier", list(EVAL_DIGESTS))
def test_eval_json(scene, tmp_path, method, classifier):
    argv = [
        "eval", *scene, "--method", method, "--classifier", classifier, *PIPELINE,
        "--n-test", "20", "--trials", "2", "--seed", "4",
    ]
    assert digest(argv, tmp_path / "report.json") == EVAL_DIGESTS[method, classifier]


@pytest.mark.parametrize("method", list(FIT_DIGESTS))
def test_fit_projection(scene, tmp_path, method):
    argv = ["fit", *scene, "--method", method, "--r", "4", "--window", "3"]
    assert digest(argv, tmp_path / "fit.proj") == FIT_DIGESTS[method]


def test_classify_csv(scene, tmp_path):
    argv = ["classify", *scene, "--method", "slspp", "--classifier", "sbomp", *PIPELINE]
    assert digest(argv, tmp_path / "pred.csv") == CLASSIFY_DIGEST
