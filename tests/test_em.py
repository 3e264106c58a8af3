import numpy as np
import pytest

from mixsel import (ColumnGroups, Dataset, EmConfig, EmptyComponent, Model, Parameters,
                    VariableKind, e_step, m_step, observed_loglik,
                    penalized_m_step, run_em, run_em_from, run_penalized_em,
                    select_model)
from mixsel.em import DegenerateComponent
from mixsel.simulate import MIXED_INDEP, ScenarioSpec, generate
from oracles import column_loglik, log_density, weighted_mle

CONT = VariableKind.continuous()
INT = VariableKind.integer()


def _cont_params(tau, mu, sigma):
    groups = ColumnGroups.from_kinds([CONT] * np.shape(mu)[1])
    return Parameters(np.asarray(tau, float), np.asarray(mu, float),
                      np.asarray(sigma, float), np.zeros((len(tau), 0)), [], groups)


def _mixed_dataset(seed=0, n=60, missing=0.0):
    rng = np.random.default_rng(seed)
    X = np.column_stack([
        rng.normal(size=n), rng.normal(2.0, 0.5, n),
        rng.poisson(3.0, n), rng.integers(1, 4, n),
    ]).astype(float)
    if missing:
        drop = rng.random(X.shape) < missing
        drop[0] = False
        X[drop] = np.nan
    return Dataset(X, [CONT, CONT, INT, VariableKind.categorical(3)])


def test_e_step_single_component():
    ds = _mixed_dataset()
    model = Model(1, [1, 1, 1, 1])
    theta = m_step(ds, model, np.ones((ds.n, 1)))
    t = e_step(ds, model, theta)
    assert np.array_equal(t, np.ones((ds.n, 1)))


def test_e_step_symmetric_components():
    ds = Dataset([[0.3], [1.5]], [CONT])
    theta = _cont_params([0.5, 0.5], [[1.0], [1.0]], [[1.0], [1.0]])
    t = e_step(ds, Model(2, [1]), theta)
    assert np.array_equal(t, np.full((2, 2), 0.5))


def test_e_step_two_gaussian_posterior():
    ds = Dataset([[0.0]], [CONT])
    theta = _cont_params([0.5, 0.5], [[0.0], [2.0]], [[1.0], [1.0]])
    t = e_step(ds, Model(2, [1]), theta)
    expected = 1.0 / (1.0 + np.exp(-2.0))
    assert t[0, 0] == pytest.approx(expected, abs=1e-12)
    assert t[0, 0] == pytest.approx(0.8808, abs=5e-5)


def test_e_step_rows_sum_to_one():
    ds = _mixed_dataset(seed=5, missing=0.2)
    cfg = EmConfig(seed=1, n_starts=1, max_iterations=5)
    res = run_em(ds, Model(3, [1, 1, 1, 1]), cfg)
    t = e_step(ds, res.model, res.theta)
    assert np.allclose(t.sum(axis=1), 1.0, atol=1e-12)


def test_m_step_hard_partition_recovers_cluster_means():
    X = np.array([[0.0], [0.2], [5.0], [5.2]])
    ds = Dataset(X, [CONT])
    fuzzy = np.array([[1.0, 0], [1.0, 0], [0, 1.0], [0, 1.0]])
    theta = m_step(ds, Model(2, [1]), fuzzy)
    assert theta.mu[:, 0] == pytest.approx([0.1, 5.1])
    assert theta.tau == pytest.approx([0.5, 0.5])


def test_m_step_irrelevant_columns_share_parameters():
    ds = _mixed_dataset(seed=2)
    fuzzy = np.random.default_rng(0).dirichlet([1, 1], size=ds.n)
    theta = m_step(ds, Model(2, [0, 0, 0, 0]), fuzzy)
    assert np.array_equal(theta.mu[0], theta.mu[1])
    assert np.array_equal(theta.sigma[0], theta.sigma[1])
    assert np.array_equal(theta.rate[0], theta.rate[1])
    assert np.array_equal(theta.probs[0][0], theta.probs[0][1])


def test_m_step_uniform_fuzzy_gives_global_mle():
    ds = _mixed_dataset(seed=3)
    fuzzy = np.full((ds.n, 2), 0.5)
    theta = m_step(ds, Model(2, [1, 1, 1, 1]), fuzzy)
    global_theta = m_step(ds, Model(1, [0, 0, 0, 0]), np.ones((ds.n, 1)))
    assert theta.mu[0] == pytest.approx(global_theta.mu[0], rel=1e-12)
    assert theta.rate[1] == pytest.approx(global_theta.rate[0], rel=1e-12)


def test_observed_loglik_single_component_matches_column_sums():
    ds = _mixed_dataset(seed=4, missing=0.15)
    model = Model(1, [0, 0, 0, 0])
    theta = m_step(ds, model, np.ones((ds.n, 1)))
    ll = observed_loglik(ds, model, theta)
    direct = sum(column_loglik(ds, j, range(ds.n), theta.block(0, j))
                 for j in range(ds.d))
    assert ll == pytest.approx(direct, rel=1e-10)


def test_observed_loglik_empty_relevant_set():
    ds = _mixed_dataset(seed=6)
    model = Model(2, [0, 0, 0, 0])
    theta = m_step(ds, model, np.full((ds.n, 2), 0.5))
    ll = observed_loglik(ds, model, theta)
    shared = sum(column_loglik(ds, j, range(ds.n), theta.block(0, j))
                 for j in range(ds.d))
    # the mixture bracket contributes sum_i ln sum_k tau_k = 0
    assert ll == pytest.approx(shared, rel=1e-12)


def test_observed_loglik_doubles_with_duplicated_rows():
    ds = _mixed_dataset(seed=7, n=20)
    model = Model(2, [1, 0, 1, 0])
    theta = m_step(ds, model, np.random.default_rng(1).dirichlet([2, 2], ds.n))
    ll = observed_loglik(ds, model, theta)
    ds2 = Dataset(np.vstack([ds.X, ds.X]), ds.kinds,
                  mask=np.vstack([ds.mask, ds.mask]))
    assert observed_loglik(ds2, model, theta) == pytest.approx(2 * ll, rel=1e-12)


def test_run_em_single_component_reaches_global_mle():
    ds = _mixed_dataset(seed=8)
    res = run_em(ds, Model(1, [0, 0, 0, 0]), EmConfig(seed=0, n_starts=1))
    direct = m_step(ds, Model(1, [0, 0, 0, 0]), np.ones((ds.n, 1)))
    assert res.converged
    assert res.theta.mu == pytest.approx(direct.mu, rel=1e-12)
    assert res.loglik == pytest.approx(
        observed_loglik(ds, res.model, direct), rel=1e-12)


def test_run_em_deterministic_given_seed():
    ds = _mixed_dataset(seed=9)
    cfg = EmConfig(seed=123, n_starts=4)
    a = run_em(ds, Model(2, [1, 1, 1, 1]), cfg)
    b = run_em(ds, Model(2, [1, 1, 1, 1]), cfg)
    assert a.loglik == b.loglik and a.objective == b.objective
    assert np.array_equal(a.fuzzy, b.fuzzy)
    assert np.array_equal(a.theta.mu, b.theta.mu)
    assert np.array_equal(a.theta.tau, b.theta.tau)
    assert a.n_iterations == b.n_iterations


def test_run_em_separable_clusters_recover_truth():
    from mixsel import ari, map_partition
    rng = np.random.default_rng(10)
    z = np.repeat([1, 2], 100)
    X = np.where((z == 1)[:, None], -5.0, 5.0) + rng.normal(size=(200, 1))
    ds = Dataset(X, [CONT])
    res = run_em(ds, Model(2, [1]), EmConfig(seed=0, n_starts=5))
    assert ari(map_partition(res.fuzzy), z) == 1.0


def test_objective_nondecreasing_within_runs():
    for seed in range(6):
        ds = _mixed_dataset(seed=seed, missing=0.1 if seed % 2 else 0.0)
        res = run_em(ds, Model(2, [1, 0, 1, 1]), EmConfig(seed=seed, n_starts=3))
        for trace in res.traces:
            assert (np.diff(trace) >= -1e-8).all()
        pres = run_penalized_em(ds, 2, 0.5 * np.log(ds.n), EmConfig(seed=seed, n_starts=3))
        for trace in pres.traces:
            assert (np.diff(trace) >= -1e-8).all()


def test_penalized_m_step_single_component():
    ds = _mixed_dataset(seed=11)
    omega, theta, delta = penalized_m_step(ds, 1, np.ones((ds.n, 1)), 2.0)
    assert np.array_equal(omega, np.zeros(ds.d, dtype=np.int8))
    assert np.array_equal(delta, np.zeros(ds.d))


def test_penalized_m_step_zero_penalty_keeps_distinct_columns():
    ds = _mixed_dataset(seed=12)
    rng = np.random.default_rng(2)
    fuzzy = rng.dirichlet([1, 1], size=ds.n)
    omega, theta, delta = penalized_m_step(ds, 2, fuzzy, 0.0)
    # free parameters can only improve the fitted likelihood
    assert (delta >= -1e-9).all()
    assert omega[delta > 1e-9].all()


def test_penalized_em_noise_column_dropped():
    kept = 0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        ds = Dataset(rng.normal(size=(200, 1)), [CONT])
        res = run_penalized_em(ds, 2, 0.5 * np.log(200), EmConfig(seed=seed, n_starts=5))
        kept += int(res.model.omega[0] == 1)
    assert 20 - kept >= 18


def test_penalized_em_huge_penalty_drops_everything():
    ds = _mixed_dataset(seed=13)
    res = run_penalized_em(ds, 2, 1e9, EmConfig(seed=3, n_starts=3))
    assert not res.model.omega.any()


def test_penalized_em_shared_parameter_invariant():
    ds = _mixed_dataset(seed=14, missing=0.1)
    res = run_penalized_em(ds, 3, 0.5 * np.log(ds.n), EmConfig(seed=5, n_starts=5))
    theta, om = res.theta, res.model.omega
    gr = ds.groups
    for pos, j in enumerate(gr.cont):
        if om[j] == 0:
            assert len(set(theta.mu[:, pos])) == 1
            assert len(set(theta.sigma[:, pos])) == 1
    for pos, j in enumerate(gr.integer):
        if om[j] == 0:
            assert len(set(theta.rate[:, pos])) == 1
    for pos, j in enumerate(gr.cat):
        if om[j] == 0:
            assert (theta.probs[pos] == theta.probs[pos][0]).all()


def test_penalized_em_objective_matches_loglik_minus_penalty():
    from mixsel import count_params
    ds = _mixed_dataset(seed=15)
    c = 0.5 * np.log(ds.n)
    res = run_penalized_em(ds, 2, c, EmConfig(seed=6, n_starts=4))
    nu = count_params(res.model, ds.kinds)
    assert res.objective == pytest.approx(res.loglik - nu * c, rel=1e-12)
    assert res.loglik == pytest.approx(
        observed_loglik(ds, res.model, res.theta), rel=1e-8)


def test_run_em_all_starts_spiked_returns_one_floored_fit():
    # three pairs of exact duplicates: every 3-class start collapses onto
    # variance spikes, so only the floored fallback start survives
    ds = Dataset(np.array([[0], [0], [5], [5], [10], [10]], float), [CONT])
    res = run_em(ds, Model(3, [1]), EmConfig(seed=0, n_starts=3))
    assert res.degenerate
    assert len(res.traces) == 1
    assert res.start_index == 3


def test_run_em_clean_data_keeps_every_start():
    rng = np.random.default_rng(4)
    X = np.concatenate([rng.normal(0, 1, 30), rng.normal(6, 1, 30)])[:, None]
    res = run_em(Dataset(X, [CONT]), Model(2, [1]), EmConfig(seed=0, n_starts=3))
    assert not res.degenerate
    assert len(res.traces) == 3
    assert res.start_index < 3


def test_observed_loglik_matches_scalar_logsumexp():
    # categorical columns of 2 and 4 levels (so the padded one-hot has unused
    # levels), an integer and a continuous column, ~15% missing cells
    from scipy.special import logsumexp
    rng = np.random.default_rng(21)
    n = 50
    X = np.column_stack([rng.normal(1.0, 2.0, n), rng.poisson(4.0, n),
                         rng.integers(1, 3, n), rng.integers(1, 5, n)]).astype(float)
    drop = rng.random(X.shape) < 0.15
    drop[0] = False
    X[drop] = np.nan
    kinds = [CONT, INT, VariableKind.categorical(2), VariableKind.categorical(4)]
    ds = Dataset(X, kinds)
    assert 0.08 < 1.0 - ds.mask.mean() < 0.22
    model = Model(3, [1, 0, 1, 0])
    theta = m_step(ds, model, rng.dirichlet([2, 2, 2], n))
    rows = [[np.log(theta.tau[k]) + sum(
                log_density(X[i, j], kinds[j], theta.block(k, j))
                for j in range(ds.d) if ds.mask[i, j])
             for k in range(3)] for i in range(n)]
    want = float(logsumexp(np.array(rows), axis=1).sum())
    assert observed_loglik(ds, model, theta) == pytest.approx(want, rel=1e-12)


def test_penalized_m_step_rejects_g_mismatch():
    ds = _mixed_dataset(seed=16)
    fuzzy = np.full((ds.n, 2), 0.5)
    with pytest.raises(ValueError):
        penalized_m_step(ds, 3, fuzzy, 1.0)
    omega, theta, delta = penalized_m_step(ds, 2, fuzzy, 1.0)
    assert theta.g == 2 and delta.shape == (ds.d,)


def test_m_step_rejects_a_model_that_does_not_fit_the_input():
    ds = _mixed_dataset(seed=16)
    fuzzy = np.full((ds.n, 2), 0.5)
    with pytest.raises(ValueError):
        m_step(ds, Model(3, np.ones(ds.d)), fuzzy)
    with pytest.raises(ValueError):
        m_step(ds, Model(2, np.ones(ds.d + 1)), fuzzy)
    assert m_step(ds, Model(2, np.ones(ds.d)), fuzzy).g == 2


def test_public_m_steps_raise_on_an_empty_component():
    # a hollow weight matrix: no row gives component 2 any weight
    ds = _mixed_dataset(seed=16)
    fuzzy = np.column_stack([np.ones(ds.n), np.zeros(ds.n)])
    with pytest.raises(EmptyComponent) as exc:
        m_step(ds, Model(2, np.ones(ds.d)), fuzzy)
    assert exc.value.k == 1
    with pytest.raises(EmptyComponent) as exc:
        penalized_m_step(ds, 2, fuzzy, 1.0)
    assert exc.value.k == 1


def test_public_m_steps_raise_on_a_one_row_class():
    # row 0 alone in component 2 puts its sigma on the floor on every
    # continuous column; relevant, that is a variance spike
    ds = _mixed_dataset(seed=16)
    fuzzy = np.column_stack([np.ones(ds.n), np.zeros(ds.n)])
    fuzzy[0] = [0.0, 1.0]
    with pytest.raises(DegenerateComponent, match=r"\(1, 0\)"):
        m_step(ds, Model(2, np.ones(ds.d)), fuzzy)
    with pytest.raises(DegenerateComponent, match=r"\(1, 0\)"):
        penalized_m_step(ds, 2, fuzzy, 1.0)
    # irrelevant, the continuous columns take the shared block
    assert m_step(ds, Model(2, [0, 0, 1, 1]), fuzzy).g == 2


def test_run_penalized_em_rejects_zero_components():
    ds = _mixed_dataset(seed=16)
    with pytest.raises(ValueError):
        run_penalized_em(ds, 0, 1.0, EmConfig(seed=0, n_starts=1))


@pytest.mark.parametrize("make", [
    lambda: EmConfig(seed=0, rel_tolerance=np.nan),
    lambda: EmConfig(seed=0, rel_tolerance=np.inf),
    lambda: EmConfig(seed=0, max_iterations=np.nan),
    lambda: EmConfig(seed=0, max_iterations=3.5),
    lambda: EmConfig(seed=0, n_starts=2.5),
    lambda: EmConfig(seed=0, n_starts=0),
    lambda: run_penalized_em(_mixed_dataset(seed=16), 2, np.nan, EmConfig(seed=0, n_starts=1)),
    lambda: run_penalized_em(_mixed_dataset(seed=16), 2, np.inf, EmConfig(seed=0, n_starts=1)),
    lambda: penalized_m_step(_mixed_dataset(seed=16), 2, np.full((60, 2), 0.5), -5.0),
    lambda: penalized_m_step(_mixed_dataset(seed=16), 2, np.full((60, 2), 0.5), np.nan),
], ids=["tolerance-nan", "tolerance-inf", "iterations-nan", "iterations-3.5", "starts-2.5",
        "starts-0", "penalty-nan", "penalty-inf", "m-step-negative", "m-step-nan"])
def test_non_finite_or_negative_knobs_are_rejected(make):
    # NaN passes a `<= 0` check: it would run every start to the budget, or
    # return a NaN objective with every column irrelevant; a slot stops at
    # exactly max_iterations, so 3.5 would never stop it
    with pytest.raises(ValueError):
        make()


def test_numpy_integer_budgets_are_accepted():
    cfg = EmConfig(seed=0, max_iterations=np.int64(3), rel_tolerance=1e-12,
                   n_starts=np.int32(2))
    assert run_em(_mixed_dataset(seed=16), Model(2, np.ones(4)), cfg).n_iterations == 3


def _indep_truth(seed=1):
    ds, z, _ = generate(ScenarioSpec(MIXED_INDEP, n=150, d=12, target_error=0.05,
                                     missing_rate=0.1, seed=seed))
    return ds, z


def test_run_em_from_does_not_see_the_label_numbering():
    # classes are numbered by their first row, so swapping labels 1 and 2
    # gives the same start and, bit for bit, the same fit
    ds, z = _indep_truth()
    model, cfg = Model(2, np.ones(ds.d, np.int8)), EmConfig(seed=0)
    a, b = run_em_from(ds, model, z, cfg), run_em_from(ds, model, 3 - z, cfg)
    for got, want in zip([b.theta.tau, b.theta.mu, b.theta.sigma, b.theta.rate, *b.theta.probs,
                          b.fuzzy, *b.traces],
                         [a.theta.tau, a.theta.mu, a.theta.sigma, a.theta.rate, *a.theta.probs,
                          a.fuzzy, *a.traces]):
        assert np.array_equal(got, want)
    assert b.loglik == a.loglik and b.n_iterations == a.n_iterations
    assert a.converged and not a.degenerate


def test_run_em_from_floors_an_empty_class():
    # two true classes at g = 3: component 3 starts empty and is floored, not
    # raised; it takes one row, whose cells are a variance spike, so the fit
    # converges flagged degenerate with proportion 1/n on that component
    ds, z = _indep_truth()
    res = run_em_from(ds, Model(3, np.ones(ds.d, np.int8)), z, EmConfig(seed=0))
    assert res.converged and res.degenerate
    assert res.theta.tau[2] == pytest.approx(1.0 / ds.n, rel=1e-6)
    assert np.allclose(res.theta.tau[:2], [0.458, 0.536], atol=1e-3)
    assert len(res.traces) == 1 and res.n_iterations < 50


def test_run_em_from_reads_classes_not_label_values():
    # only which rows share a label matters: n labels of at most g classes
    ds, z = _indep_truth()
    model, cfg = Model(2, np.ones(ds.d, np.int8)), EmConfig(seed=0)
    assert np.array_equal(run_em_from(ds, model, 10 * z + 7, cfg).fuzzy,
                          run_em_from(ds, model, z, cfg).fuzzy)
    for bad_model, bad_z in [(model, z[1:]), (model, np.arange(ds.n) % 3),
                             (Model(2, np.ones(ds.d + 1, np.int8)), z)]:
        with pytest.raises(ValueError):
            run_em_from(ds, bad_model, bad_z, cfg)


def test_micl_winner_is_refit_from_its_partition_alone(monkeypatch):
    # the micl answer runs no random-start EM after the MICL search
    import mixsel.criteria as criteria

    def no_run_em(*args):
        raise AssertionError("run_em called")

    monkeypatch.setattr(criteria, "run_em", no_run_em)
    ds, _ = _indep_truth()
    cfg = EmConfig(seed=3, n_starts=3)
    report = select_model(ds, "micl", 3, cfg)
    best = report.best
    assert np.array_equal(best.fit.fuzzy, run_em_from(ds, best.model, best.z_star, cfg).fuzzy)


def test_shared_block_is_unit_weight_mle_of_observed_cells():
    # every column irrelevant: each component gets the one-class fit, which
    # must be the unit-weight MLE of the observed cells, in original units
    ds = _mixed_dataset(seed=23, n=80, missing=0.2)
    assert 0.12 < 1.0 - ds.mask.mean() < 0.28
    fuzzy = np.random.default_rng(4).dirichlet([1, 1], ds.n)
    theta = m_step(ds, Model(2, np.zeros(ds.d)), fuzzy)
    loglik = ds.packed().one_class.loglik
    for j, kind in enumerate(ds.kinds):
        obs = ds.mask[:, j]
        want = weighted_mle(ds.X[obs, j], np.ones(obs.sum()), kind)
        for k in range(2):
            assert theta.block(k, j) == pytest.approx(want, rel=1e-12)
        assert loglik[j] == pytest.approx(column_loglik(ds, j, range(ds.n), want),
                                          rel=1e-12)


def test_m_step_zero_weight_cells_take_shared_block():
    # class 3 holds exactly the rows whose continuous, integer and categorical
    # cells are missing; the last column is observed everywhere
    rng = np.random.default_rng(31)
    n = 45
    X = np.column_stack([rng.normal(5.0, 2.0, n), rng.poisson(3.0, n),
                         rng.choice([1, 2, 3], n, p=[0.6, 0.3, 0.1]),
                         rng.normal(size=n)]).astype(float)
    z = np.repeat([0, 1, 2], 15)
    X[z == 2, :3] = np.nan
    ds = Dataset(X, [CONT, INT, VariableKind.categorical(3), CONT])
    theta = m_step(ds, Model(3, [1, 1, 1, 1]), np.eye(3)[z])
    for j, kind in ((0, CONT), (1, INT)):
        obs = ds.mask[:, j]
        shared = weighted_mle(X[obs, j], np.ones(obs.sum()), kind)
        assert theta.block(2, j) == pytest.approx(shared, rel=1e-12)
        assert not np.allclose(theta.block(0, j), shared)
    assert theta.block(2, 2) == pytest.approx(np.full(3, 1.0 / 3.0), rel=1e-12)
    assert theta.block(2, 3)[0] == pytest.approx(X[z == 2, 3].mean(), rel=1e-12)


def _single_kind_dataset(kind_tag, n=60, missing=0.1):
    """Two separated classes over four columns of one kind, with a share of
    missing cells."""
    rng = np.random.default_rng({"cont": 41, "int": 42, "cat": 43}[kind_tag])
    z = np.repeat([0, 1], n // 2)
    if kind_tag == "cont":
        X = rng.normal(3.0 * z[:, None], 1.0, (n, 4))
        kinds = [CONT] * 4
    elif kind_tag == "int":
        X = rng.poisson(np.where(z == 0, 2.0, 9.0)[:, None], (n, 4)).astype(float)
        kinds = [INT] * 4
    else:
        # 2 and 4 levels, so the padded probabilities have unused levels
        m = np.array([2, 2, 4, 4])
        hit = rng.random((n, 4)) < 0.8
        X = np.where(hit, z[:, None] * (m - 1), rng.integers(0, m, (n, 4))) + 1.0
        kinds = [VariableKind.categorical(int(k)) for k in m]
    drop = rng.random(X.shape) < missing
    drop[0] = False
    X[drop] = np.nan
    return Dataset(X, kinds)


@pytest.mark.parametrize("criterion", ["bic", "aic", "micl", "bic-noselect",
                                       "icl-noselect"])
@pytest.mark.parametrize("kind_tag", ["cont", "int", "cat"])
def test_single_kind_data_round_trips_through_the_public_operations(kind_tag, criterion):
    # a dataset with only one column kind leaves the other kinds' blocks empty
    from mixsel import select_model
    ds = _single_kind_dataset(kind_tag)
    assert 0.05 < 1.0 - ds.mask.mean() < 0.15
    report = select_model(ds, criterion, 2, EmConfig(seed=3, n_starts=3))
    model = report.best.model
    assert observed_loglik(ds, model, report.best.fit.theta) == pytest.approx(
        report.best.fit.loglik, rel=1e-12)
    t = e_step(ds, model, report.best.fit.theta)
    assert t.shape == (ds.n, report.best.g)
    assert np.allclose(t.sum(axis=1), 1.0, atol=1e-12)
    theta = m_step(ds, model, t)
    assert theta.g == report.best.g
    assert np.isfinite(observed_loglik(ds, model, theta))


def _three_duplicate_pairs():
    # the all-spiked set above: only the floored fallback start survives
    return Dataset(np.array([[0], [0], [5], [5], [10], [10]], float), [CONT]), 3


def _duplicates_far_from_the_mean():
    # three copies of a cell ~1000 from the column mean: a class collapses
    # onto them with sigma ~1.5e-5, the rounding of its variance, off the floor
    rng = np.random.default_rng(1)
    x = np.concatenate([rng.normal(0.0, 1.0, 40), np.full(3, 1000.123456)])
    return Dataset(np.column_stack([x, rng.normal(0.0, 1.0, 43)]), [CONT, CONT]), 2


@pytest.mark.parametrize("make", [_three_duplicate_pairs, _duplicates_far_from_the_mean])
def test_collapsed_fit_loglik_matches_the_oracle(make):
    from scipy.special import logsumexp
    ds, g = make()
    res = run_em(ds, Model(g, np.ones(ds.d)), EmConfig(seed=0, n_starts=g))
    assert res.theta.sigma.min() < 1e-4
    rows = [[np.log(res.theta.tau[k]) + sum(log_density(ds.X[i, j], CONT, res.theta.block(k, j))
                                            for j in range(ds.d))
             for k in range(g)] for i in range(ds.n)]
    assert res.loglik == pytest.approx(float(logsumexp(np.array(rows), axis=1).sum()),
                                       rel=1e-12)


def _stacked_cases():
    """(dataset, g, fixed omega or None, config, penalty or None, failed runs
    the case must show): every start spiking, some starts redrawn mid-stack,
    every start emptying so that only the floored fallback start runs, a
    clean set, and one start stopping at the iteration budget."""
    dup, g = _three_duplicate_pairs()
    clean, redrawn, budget = (_mixed_dataset(seed=s, missing=0.1) for s in (2, 0, 1))
    omega = np.array([1, 0, 1, 1], np.int8)
    return {
        "all-spiked": (dup, g, np.ones(1, np.int8), EmConfig(seed=0, n_starts=3), None, 33),
        "redrawn": (redrawn, 3, omega, EmConfig(seed=0, n_starts=5), None, 2),
        "floored": (_mixed_dataset(seed=0), 3, np.ones(4, np.int8), EmConfig(seed=0, n_starts=3),
                    None, 33),
        "clean": (clean, 3, omega, EmConfig(seed=2, n_starts=5), None, 0),
        "budget": (budget, 3, None, EmConfig(seed=1, n_starts=5, max_iterations=50),
                   0.5 * np.log(budget.n), 0),
    }


def _assert_fit_matches(ds, res, kept, best):
    """One fit of ``em.run_starts`` against ``sequential_em_starts``."""
    from mixsel import em, map_partition
    assert len(res.traces) == len(kept)
    for got, want in zip(res.traces, kept):
        assert len(got) == len(want["trace"])
        assert np.allclose(got, want["trace"], rtol=1e-12, atol=0.0)
    assert res.n_iterations == len(best["trace"])
    assert res.start_index == best["start"]
    assert np.array_equal(res.model.omega, best["omega"])
    assert np.array_equal(map_partition(res.fuzzy), best["labels"])
    assert res.degenerate == best["degenerate"]
    assert res.degenerate == em._spikes(ds.packed(), res.theta.sigma, res.model.omega[None]).any()


@pytest.mark.parametrize("case", ["all-spiked", "redrawn", "floored", "clean", "budget"])
def test_stacked_starts_match_the_sequential_reference(case, monkeypatch):
    from mixsel import em
    from oracles import sequential_em_starts
    ds, g, omega0, cfg, c, failed = _stacked_cases()[case]
    if case == "floored":
        # a class under n/4 counts as empty: every start fails all 1 +
        # MAX_REDRAWS draws and is discarded, so the floored fallback runs
        monkeypatch.setattr(em, "EMPTY_COMPONENT_TOL", 0.25 * ds.n)
    res, = em.run_starts(ds, g, [(cfg.seed, omega0)], cfg, c)
    kept, best, n_failed = sequential_em_starts(ds, g, omega0, cfg, c)
    assert n_failed == failed
    if case == "budget":
        assert {len(k["trace"]) for k in kept} >= {2, cfg.max_iterations}
    _assert_fit_matches(ds, res, kept, best)


def test_fits_of_one_stack_match_the_sequential_reference():
    # in one stack, a fit whose every start spikes runs its floored fallback
    # start, and a fit whose columns are all irrelevant keeps its own starts
    from dataclasses import replace
    from mixsel import em
    from oracles import sequential_em_starts
    ds, g = _three_duplicate_pairs()
    cfg = EmConfig(seed=0, n_starts=3)
    fits = [(0, np.ones(1, np.int8)), (1, np.zeros(1, np.int8))]
    results = em.run_starts(ds, g, fits, cfg, None)
    assert len(results) == len(fits)
    for res, (seed, omega), fallback in zip(results, fits, (True, False)):
        kept, best, _ = sequential_em_starts(ds, g, omega, replace(cfg, seed=seed), None)
        assert (best["start"] == cfg.n_starts) == fallback
        _assert_fit_matches(ds, res, kept, best)


def test_one_component_starts_agree_and_select_nothing():
    # at g = 1 every start ends on the one-class fit: no column is relevant,
    # whatever the rounding of the stacked class sums
    ds = _mixed_dataset(seed=17, missing=0.1)
    res = run_penalized_em(ds, 1, 0.5 * np.log(ds.n), EmConfig(seed=4, n_starts=5))
    assert not res.model.omega.any()
    assert len(res.traces) == 5
    assert len({trace[-1] for trace in res.traces}) == 1


def test_a_failed_slot_leaves_the_other_slots_alone():
    # four stacked slots on the same data: component 2 empty (slots 0 and 2),
    # soft weights (slot 1), component 1 on one row (slot 3)
    from mixsel import em
    ds = _mixed_dataset(seed=18)
    packed = ds.packed()
    soft = np.random.default_rng(3).dirichlet([1, 1], ds.n).T
    hollow = np.vstack([np.ones(ds.n), np.zeros(ds.n)])
    single = np.vstack([np.eye(ds.n)[0], 1.0 - np.eye(ds.n)[0]])
    t = np.vstack([hollow, soft, hollow, single])
    omega = np.ones((4, ds.d), np.int8)
    tau, blocks, _, _, empty, spiky = em._m_slots(packed, t, 2, omega)
    assert empty.tolist() == [[False, True], [False, False], [False, True], [False, False]]
    assert spiky.reshape(4, 2, -1).any(axis=2).tolist() == \
        [[False, False], [False, False], [False, False], [True, False]]
    assert np.array_equal(tau[0], [1.0, 0.0])
    # a floored call lifts the empty component's proportion instead
    lifted, *_ = em._m_slots(packed, hollow, 2, omega[:1], floor=True)
    assert np.array_equal(lifted[0], np.array([ds.n, 1e-10]) / (ds.n + 1e-10))
    alone_tau, alone, *_ = em._m_slots(packed, soft, 2, omega[:1])
    assert np.allclose(tau[1], alone_tau[0], rtol=1e-12, atol=0.0)
    for got, want in zip(blocks, alone):
        assert np.allclose(got[2:4], want, rtol=1e-12, atol=0.0)
