"""Edge cases of the data, each with the behaviour both engines must show."""
import numpy as np
import pytest

from mixsel import (Dataset, EmConfig, Hyperparameters, VariableKind, ari,
                    log_marginal_variable, select_model)
from mixsel.simulate import MIXED_INDEP, ScenarioSpec, generate


def _fit(ds, criterion):
    return select_model(ds, criterion, 3, EmConfig(seed=3, n_starts=5))


@pytest.fixture(scope="module", params=["bic", "micl"])
def constant_column(request):
    # well separated: the starts draw omega over d columns, so an extra
    # column moves every start, and each must still reach the same optimum
    ds, _, _ = generate(ScenarioSpec(MIXED_INDEP, n=150, d=12, target_error=0.01,
                                     missing_rate=0.1, seed=1))
    ext = Dataset(np.column_stack([ds.X, np.full(ds.n, 2.5)]),
                  ds.kinds + [VariableKind.continuous()], cat_labels=ds.cat_labels)
    return request.param, ext, _fit(ds, request.param), _fit(ext, request.param)


def test_constant_column_is_irrelevant_and_changes_nothing_else(constant_column):
    _, _, base, with_const = constant_column
    assert with_const.g == base.g
    assert with_const.best.model.omega[-1] == 0
    assert np.array_equal(with_const.best.model.omega[:-1], base.best.model.omega)
    assert ari(with_const.partition, base.partition) == 1.0


def test_constant_column_shifts_the_objective_by_its_own_term(constant_column):
    criterion, ext, base, with_const = constant_column
    rise = with_const.best.value - base.best.value
    n = ext.n
    if criterion == "bic":
        # the floored sigma (1e-10) gives each cell density 1e10 / sqrt(2 pi);
        # the column's shared block costs 2 parameters. The EM's relative
        # stopping test sees the shifted objective, hence the tolerance.
        want = n * (np.log(1e10) - 0.5 * np.log(2.0 * np.pi)) - np.log(n)
        assert want == pytest.approx(3311.026, abs=1e-3)
        assert rise == pytest.approx(want, abs=1e-3)
    else:
        # an irrelevant column adds its global marginal to the MICL
        want = log_marginal_variable(ext, ext.d - 1, with_const.best.z_star,
                                     with_const.g, 0, Hyperparameters.default(ext))
        assert rise == pytest.approx(want, abs=1e-9)
