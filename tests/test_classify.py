import numpy as np
import pytest

from oracles import omp_oracle
from specangle.classify import nn_cosine_classify, sbomp_classify
from specangle.data import SampleSet
from specangle.errors import ZeroVectorError
from specangle.pursuit import BlockDictionary, sbomp


def width1_dictionary(atoms, classes):
    return BlockDictionary(
        blocks=tuple(atoms[:, i : i + 1] for i in range(atoms.shape[1])),
        classes=classes,
    )


class TestSbompClassify:
    def test_orthogonal_classes(self):
        atoms = np.eye(4)
        d = width1_dictionary(atoms, classes=np.array([1, 1, 2, 2]))
        pred = sbomp_classify(d, atoms[:, [2]], K=1)
        assert pred.label == 2
        assert pred.per_class_residuals[2] <= 1e-10
        assert not pred.tie_broken

    def test_symmetric_tie_lowest_class(self):
        # S orthogonal to every atom: empty support, equal residuals
        atoms = np.eye(4)[:, :2]
        d = width1_dictionary(atoms, classes=np.array([1, 2]))
        S = np.array([0.0, 0.0, 1.0, 0.0])[:, None]
        pred = sbomp_classify(d, S, K=1)
        assert pred.label == 1
        assert pred.tie_broken

    def test_self_consistency_random_toy(self):
        rng = np.random.default_rng(200)
        for _ in range(25):
            blocks = [rng.standard_normal((8, 4)) for _ in range(15)]
            classes = np.repeat([1, 2, 3], 5)
            d = BlockDictionary(blocks=tuple(blocks), classes=classes)
            S = rng.standard_normal((8, 4))
            pred = sbomp_classify(d, S, K=3)
            sol = sbomp(d, S, K=3)
            # independent recompute of the class-restricted reconstructions
            offsets = np.concatenate(
                [[0], np.cumsum([blocks[j].shape[1] for j in sol.support])]
            )
            best_cls, best_res = None, np.inf
            for k in (1, 2, 3):
                recon = np.zeros_like(S)
                for pos, j in enumerate(sol.support):
                    if classes[j] == k:
                        recon += blocks[j] @ sol.coefficients[offsets[pos]:offsets[pos + 1]]
                res = np.linalg.norm(S - recon)
                if res < best_res:
                    best_cls, best_res = k, res
            assert pred.label == best_cls

    def test_scale_invariance_of_label(self):
        rng = np.random.default_rng(201)
        blocks = [rng.standard_normal((6, 2)) for _ in range(8)]
        d = BlockDictionary(blocks=tuple(blocks), classes=np.arange(8) % 2 + 1)
        S = rng.standard_normal((6, 3))
        p1 = sbomp_classify(d, S, K=2)
        p5 = sbomp_classify(d, 5.0 * S, K=2)
        assert p1.label == p5.label

    def test_spanning_class_wins(self):
        rng = np.random.default_rng(202)
        basis = np.linalg.qr(rng.standard_normal((6, 6)))[0]
        blocks = (basis[:, :2], basis[:, 2:4], basis[:, 4:6])
        d = BlockDictionary(blocks=blocks, classes=np.array([1, 1, 2]))
        S = blocks[0] @ rng.standard_normal((2, 2)) + blocks[1] @ rng.standard_normal((2, 2))
        pred = sbomp_classify(d, S, K=2)
        assert pred.label == 1
        assert pred.per_class_residuals[1] <= 1e-8


class TestSompClassify:
    """The somp classifier: sbomp_classify over width-1 training blocks."""

    def test_single_column_matches_src_oracle(self):
        rng = np.random.default_rng(211)
        for _ in range(25):
            atoms = rng.standard_normal((8, 12))
            classes = np.asarray(rng.integers(1, 4, size=12))
            if len(np.unique(classes)) < 2:
                continue
            s = rng.standard_normal(8)
            d = width1_dictionary(atoms, classes)
            pred = sbomp_classify(d, s, K=3)
            support, coef = omp_oracle(atoms, s, K=3)
            best_cls, best_res = None, np.inf
            for k in np.unique(classes):
                recon = np.zeros(8)
                for pos, j in enumerate(support):
                    if classes[j] == k:
                        recon += atoms[:, j] * coef[pos]
                res = np.linalg.norm(s - recon)
                if res < best_res:
                    best_cls, best_res = int(k), res
            assert pred.label == best_cls

    def test_orthonormal_span(self):
        atoms = np.eye(5)
        d = width1_dictionary(atoms, classes=np.array([1, 1, 2, 2, 3]))
        pred = sbomp_classify(d, 3.0 * atoms[:, [3]], K=1)
        assert pred.label == 2


class TestNnCosine:
    def train(self):
        return SampleSet(
            features=np.array([[1.0, 0.0], [0.0, 1.0]]),
            labels=np.array([1, 2]),
        )

    def test_exact_match(self):
        rng = np.random.default_rng(220)
        F = rng.standard_normal((5, 8))
        labels = np.asarray(rng.integers(1, 4, size=8))
        train = SampleSet(features=F, labels=labels)
        for i in range(8):
            assert nn_cosine_classify(train, F[:, i]).label == labels[i]

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(221)
        F = rng.standard_normal((4, 10))
        train = SampleSet(features=F, labels=np.arange(10) % 2 + 1)
        x = rng.standard_normal(4)
        assert (
            nn_cosine_classify(train, x).label
            == nn_cosine_classify(train, 5.0 * x).label
        )

    def test_axis_example(self):
        pred = nn_cosine_classify(self.train(), np.array([2.0, 1.0]))
        assert pred.label == 1
        assert pred.per_class_scores[1] == pytest.approx(2.0 / np.sqrt(5.0))
        assert pred.per_class_scores[2] == pytest.approx(1.0 / np.sqrt(5.0))

    def test_zero_vectors(self):
        with pytest.raises(ZeroVectorError):
            nn_cosine_classify(self.train(), np.zeros(2))
        bad = SampleSet(features=np.array([[1.0, 0.0], [0.0, 0.0]]), labels=np.array([1, 2]))
        with pytest.raises(ZeroVectorError):
            nn_cosine_classify(bad, np.ones(2))

    def test_tie_goes_to_lowest_training_index(self):
        train = SampleSet(
            features=np.array([[1.0, 2.0], [0.0, 0.0]]),  # same direction
            labels=np.array([2, 1]),
        )
        pred = nn_cosine_classify(train, np.array([3.0, 0.0]))
        assert pred.label == 2
        assert pred.tie_broken

    def test_permutation_invariance_without_ties(self):
        rng = np.random.default_rng(222)
        F = rng.standard_normal((4, 9))
        labels = np.asarray(rng.integers(1, 4, size=9))
        x = rng.standard_normal(4)
        perm = rng.permutation(9)
        a = nn_cosine_classify(SampleSet(features=F, labels=labels), x)
        b = nn_cosine_classify(SampleSet(features=F[:, perm], labels=labels[perm]), x)
        assert a.label == b.label
