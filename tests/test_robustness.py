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


def _indep_set(seed):
    ds, _, _ = generate(ScenarioSpec(MIXED_INDEP, n=150, d=12, target_error=0.01,
                                     missing_rate=0.1, seed=seed))
    return ds


SMALL = EmConfig(seed=2, n_starts=3)


@pytest.mark.parametrize("criterion", ["bic", "micl", "icl-noselect"])
def test_all_missing_rows_take_the_proportions(criterion):
    # a row with no observed cell carries no information: its
    # responsibilities are the mixing proportions and it joins the largest class
    ds = _indep_set(3)
    blank = [5, 60, 120]
    mask = ds.mask.copy()
    mask[blank] = False
    report = select_model(ds.replace_mask(mask), criterion, 3, SMALL)
    tau = report.theta.tau
    assert np.allclose(report.fuzzy[blank], tau, rtol=0.0, atol=1e-12)
    assert (report.partition[blank] == np.argmax(tau) + 1).all()


@pytest.mark.parametrize("criterion", ["bic", "micl"])
def test_row_order_does_not_change_the_selection(criterion):
    ds = _indep_set(3)
    perm = np.random.default_rng(0).permutation(ds.n)
    shuffled = Dataset(ds.X[perm], ds.kinds, mask=ds.mask[perm], cat_labels=ds.cat_labels)
    base, other = select_model(ds, criterion, 3, SMALL), select_model(shuffled, criterion, 3, SMALL)
    assert other.g == base.g
    assert np.array_equal(other.best.model.omega, base.best.model.omega)
    assert ari(base.partition[perm], other.partition) == 1.0
    if criterion == "micl":
        assert other.best.value == base.best.value
    else:
        # the starts draw different rows, so the EM stops at a slightly other point
        assert other.best.value == pytest.approx(base.best.value, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("eps", [
    1e-12, 1e-9,
    # one cell off the constant: a class built on that cell fits a floored
    # variance spike, the starts are redrawn 40-55 times and the selection moves
    pytest.param(1e-7, marks=pytest.mark.xfail(strict=True, reason="spike redraws move the selection")),
    pytest.param(1e-4, marks=pytest.mark.xfail(strict=True, reason="spike redraws move the selection")),
])
@pytest.mark.parametrize("seed", [3, 4, 5])
def test_near_constant_column_changes_nothing_else(seed, eps):
    ds = _indep_set(seed)
    col = np.full(ds.n, 3.0)
    col[0] += eps
    ext = Dataset(np.column_stack([ds.X, col]), ds.kinds + [VariableKind.continuous()],
                  cat_labels=ds.cat_labels)
    base, with_col = select_model(ds, "bic", 3, SMALL), select_model(ext, "bic", 3, SMALL)
    assert with_col.g == base.g
    assert with_col.best.model.omega[-1] == 0
    assert np.array_equal(with_col.best.model.omega[:-1], base.best.model.omega)
    assert ari(with_col.partition, base.partition) == 1.0
