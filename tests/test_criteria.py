import numpy as np
import pytest

from mixsel import (Dataset, EmConfig, Model, VariableKind, bic, count_params,
                    map_partition, observed_loglik, select_model)

CONT = VariableKind.continuous()
INT = VariableKind.integer()


def test_count_params_examples():
    assert count_params(Model(2, [1]), [CONT]) == 5
    assert count_params(Model(2, [0]), [CONT]) == 3
    assert count_params(Model(3, [1]), [VariableKind.categorical(4)]) == 11
    assert count_params(Model(2, [1, 0, 1]), [CONT, INT, VariableKind.categorical(3)]) == \
        1 + 2 * 2 + 1 + 2 * 2


def test_bic_aic_arithmetic():
    assert bic(-100.0, 5, 100) == pytest.approx(-111.51293, abs=1e-5)
    assert bic(-7.25, 0, 50) == -7.25
    assert bic(-7.25, 5, 1) == -7.25
    with pytest.raises(ValueError):
        bic(0.0, 1, 0)


def test_map_partition_rules():
    t = np.array([[0.9, 0.1], [0.5, 0.5], [0.0, 1.0]])
    assert list(map_partition(t)) == [1, 1, 2]
    one_hot = np.eye(3)
    assert list(map_partition(one_hot)) == [1, 2, 3]


def _noise_dataset(seed=0, n=200, d=5):
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(n, d)), [CONT] * d)


def test_select_model_no_structure_picks_one_component():
    ds = _noise_dataset()
    report = select_model(ds, "bic", 3, EmConfig(seed=7, n_starts=8))
    assert report.best.g == 1
    assert not report.best.model.omega.any()
    assert (report.partition == 1).all()


def test_select_model_gmax_one_returns_empty_relevance():
    ds = _noise_dataset(seed=1, n=40, d=3)
    for crit in ("bic", "aic", "micl"):
        report = select_model(ds, crit, 1, EmConfig(seed=2, n_starts=3))
        assert report.best.g == 1
        assert not report.best.model.omega.any()


def test_select_model_bic_identity():
    ds = _noise_dataset(seed=2, n=80, d=4)
    report = select_model(ds, "bic", 3, EmConfig(seed=3, n_starts=5))
    for rec in report.records:
        ll = observed_loglik(ds, rec.model, rec.fit.theta)
        assert rec.value == pytest.approx(
            bic(ll, count_params(rec.model, ds.kinds), ds.n), abs=1e-8)


def test_select_model_deterministic():
    ds = _noise_dataset(seed=3, n=60, d=3)
    cfg = EmConfig(seed=11, n_starts=4)
    a = select_model(ds, "bic", 2, cfg)
    b = select_model(ds, "bic", 2, cfg)
    assert [r.value for r in a.records] == [r.value for r in b.records]
    assert np.array_equal(a.partition, b.partition)


def test_select_model_noselect_variants():
    rng = np.random.default_rng(4)
    z = np.repeat([0, 1], 50)
    X = np.column_stack([
        rng.normal(3.0 * z, 1.0), rng.normal(-3.0 * z, 1.0), rng.normal(size=100),
    ])
    ds = Dataset(X, [CONT] * 3)
    for crit in ("bic-noselect", "icl-noselect"):
        report = select_model(ds, crit, 3, EmConfig(seed=5, n_starts=6))
        assert report.best.model.omega.all()
        assert report.best.g == 2


def test_icl_noselect_builds_its_tables_once(monkeypatch):
    import mixsel.criteria as criteria
    from mixsel import Hyperparameters, log_integrated_complete
    real, built = criteria.MarginalTables, []
    monkeypatch.setattr(criteria, "MarginalTables", lambda *a: built.append(a) or real(*a))
    rng = np.random.default_rng(8)
    X = np.column_stack([rng.normal(3.0 * np.repeat([0, 1], 30), 1.0), rng.poisson(3.0, 60)])
    ds = Dataset(X.astype(float), [CONT, INT])
    report = select_model(ds, "icl-noselect", 3, EmConfig(seed=2, n_starts=3))
    assert len(built) == 1
    # the value of the shared tables is the one of tables built for the call alone
    assert report.best.value == log_integrated_complete(
        ds, report.partition, report.best.model, Hyperparameters.default(ds))


def test_micl_sweep_builds_the_marginal_tables_once(monkeypatch):
    import mixsel.criteria as criteria
    import mixsel.micl as micl
    builds = []

    class Counted(micl.MarginalTables):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    monkeypatch.setattr(micl, "MarginalTables", Counted)
    monkeypatch.setattr(criteria, "MarginalTables", Counted)
    ds = _noise_dataset(seed=4, n=60, d=2)
    report = select_model(ds, "micl", 3, EmConfig(seed=1, n_starts=2))
    assert [rec.g for rec in report.records] == [1, 2, 3]
    assert len(builds) == 1


@pytest.mark.parametrize("criterion", ["bic", "aic", "micl", "bic-noselect", "icl-noselect"])
def test_each_record_holds_the_fit_behind_its_value(criterion):
    from mixsel import EmResult, Hyperparameters, log_integrated_complete
    rng = np.random.default_rng(9)
    z = np.repeat([0, 1], 40)
    X = np.column_stack([rng.normal(3.0 * z, 1.0), rng.normal(size=80), rng.poisson(2.0 + 4.0 * z)])
    ds = Dataset(X.astype(float), [CONT, CONT, INT])
    report = select_model(ds, criterion, 3, EmConfig(seed=6, n_starts=3))
    assert report.best.g == 2
    for rec in report.records:
        if criterion == "micl" and rec is not report.best:
            assert rec.fit is None  # the MICL value needs no EM fit
            continue
        assert isinstance(rec.fit, EmResult) and rec.fit.theta.g == rec.g
        assert np.array_equal(rec.fit.model.omega, rec.model.omega)
        if criterion in ("bic", "aic"):
            assert rec.value == rec.fit.objective
        elif criterion == "bic-noselect":
            assert rec.value == bic(rec.fit.loglik, count_params(rec.model, ds.kinds), ds.n)
        elif criterion == "icl-noselect":
            assert rec.value == log_integrated_complete(
                ds, map_partition(rec.fit.fuzzy), rec.model, Hyperparameters.default(ds))
    assert np.array_equal(report.partition, map_partition(report.best.fit.fuzzy))
