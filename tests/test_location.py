"""Location invariance: a per-column shift of the continuous cells changes
neither the selected model, the partition nor the objective."""
import numpy as np
import pytest

from mixsel import Dataset, EmConfig, select_model
from mixsel.simulate import CONTINUOUS_TRIDIAG, ScenarioSpec, generate


def _fit(ds, criterion):
    report = select_model(ds, criterion, 3, EmConfig(seed=3, n_starts=3))
    return (report.best.g, report.best.model.omega.tolist(), report.partition.tolist(),
            report.best.value)


@pytest.fixture(scope="module", params=["bic", "micl"])
def base(request):
    ds, _, _ = generate(ScenarioSpec(CONTINUOUS_TRIDIAG, n=200, d=10,
                                     target_error=0.05, seed=1))
    return request.param, ds, _fit(ds, request.param)


@pytest.mark.parametrize("offset", [1e4, 1e8])
def test_shift_leaves_selection_partition_and_objective(base, offset):
    criterion, ds, (g, omega, z, value) = base
    # magnitudes offset..2*offset, alternating signs
    shift = offset * (1.0 + np.arange(ds.d) / ds.d) * (-1.0) ** np.arange(ds.d)
    g2, omega2, z2, value2 = _fit(Dataset(ds.X + shift, ds.kinds), criterion)
    assert (g2, omega2) == (g, omega)
    assert z2 == z
    assert value2 == pytest.approx(value, rel=1e-6)
