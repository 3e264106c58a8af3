"""Fixed-seed regression: every criterion on one small mixed dataset with
missing cells must keep selecting the same g, relevance vector and MAP
partition, with the same criterion value. A refactor of the engines that is
meant to be exact must pass this unchanged."""
import numpy as np
import pytest

from mixsel import Dataset, EmConfig, VariableKind, select_model

# criterion: (g, omega, best.value, MAP partition as one digit per row)
EXPECTED = {
    "bic": (2, [1, 1, 0, 1, 0, 1, 0], -791.3756683189806,
            "11111111111111111111111111111111111121112222222222222222222222222222222222222222"),
    "aic": (3, [1, 1, 1, 1, 0, 1, 0], -767.7637947066701,
            "22322222222222222222222222222222222332321111111111111111111111111111111111111311"),
    "micl": (2, [1, 1, 0, 1, 0, 1, 0], -809.8714966910875,
             "11111111111111111111111111111111111121112222222222222222222222222222222222222222"),
    "bic-noselect": (2, [1, 1, 1, 1, 1, 1, 1], -797.3134666972597,
                     "22222222222222222222222222222222222222221111111111111111111111111121111111111111"),
    "icl-noselect": (2, [1, 1, 1, 1, 1, 1, 1], -816.1553481047373,
                     "22222222222222222222222222222222222222221111111111111111111111111121111111111111"),
}


def _mixed_dataset():
    """n=80, two classes; 3 continuous, 2 integer, 2 categorical columns
    (one noise column of each kind), about 10% of the cells missing."""
    rng = np.random.default_rng(20170307)
    n = 80
    z = np.repeat([0, 1], n // 2)
    X = np.column_stack([
        rng.normal(2.5 * z, 1.0),
        rng.normal(-2.0 * z, 1.0),
        rng.normal(size=n),
        rng.poisson(np.where(z == 1, 6.0, 2.0)),
        rng.poisson(3.0, n),
        np.where(rng.random(n) < np.where(z == 1, 0.8, 0.2), 2, 1),
        rng.integers(1, 4, n),
    ]).astype(float)
    X[rng.random(X.shape) < 0.1] = np.nan
    kinds = [VariableKind.continuous()] * 3 + [VariableKind.integer()] * 2 + \
        [VariableKind.categorical(2), VariableKind.categorical(3)]
    return Dataset(X, kinds)


@pytest.mark.parametrize("criterion", sorted(EXPECTED))
def test_select_model_fixed_seed_outputs(criterion):
    ds = _mixed_dataset()
    assert 0.05 < 1.0 - ds.mask.mean() < 0.15
    report = select_model(ds, criterion, 3, EmConfig(seed=5, n_starts=4))
    g, omega, value, partition = EXPECTED[criterion]
    assert report.best.g == g
    assert [int(w) for w in report.best.model.omega] == omega
    assert "".join(str(int(v)) for v in report.partition) == partition
    assert report.best.value == pytest.approx(value, rel=1e-10, abs=0.0)
