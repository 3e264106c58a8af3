import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import gammaln

import oracles
from mixsel import micl
from mixsel import (Dataset, EmConfig, Hyperparameters, MarginalTables,
                    MiclState, Model, VariableKind,
                    log_dirichlet_proportion_term, log_integrated_complete,
                    log_marginal_variable, partition_step, run_micl)

CONT = VariableKind.continuous()
INT = VariableKind.integer()
CAT2 = VariableKind.categorical(2)


def _mixed_dataset(seed=0, n=24, missing=0.0):
    rng = np.random.default_rng(seed)
    X = np.column_stack([
        rng.normal(1.0, 2.0, n),
        rng.poisson(3.0, n),
        rng.integers(1, 3, n),
    ]).astype(float)
    if missing:
        drop = rng.random(X.shape) < missing
        drop[0] = False
        X[drop] = np.nan
    return Dataset(X, [CONT, INT, CAT2])


def test_dirichlet_proportion_term_examples():
    assert log_dirichlet_proportion_term([17], 0.5) == 0.0
    assert log_dirichlet_proportion_term([1, 1], 0.5) == pytest.approx(math.log(1 / 8), abs=1e-12)
    assert log_dirichlet_proportion_term([1, 0], 0.5) == pytest.approx(math.log(1 / 2), abs=1e-12)


def test_dirichlet_proportion_term_matches_urn():
    rng = np.random.default_rng(1)
    for _ in range(20):
        g = int(rng.integers(1, 5))
        z = rng.integers(1, g + 1, size=int(rng.integers(1, 15)))
        nk = np.bincount(z - 1, minlength=g)
        u = float(rng.uniform(0.2, 2.0))
        assert log_dirichlet_proportion_term(nk, u) == \
            pytest.approx(oracles.proportions_urn(z, g, u), abs=1e-10)


def test_categorical_marginal_binary_example():
    ds = Dataset([[1.0], [2.0]], [CAT2])
    h = Hyperparameters.default(ds)
    val = log_marginal_variable(ds, 0, [1, 1], 1, 0, h)
    assert val == pytest.approx(math.log(1 / 8), abs=1e-12)


def test_continuous_marginal_against_quadrature():
    ds = Dataset([[0.0], [1.0]], [CONT])
    h = Hyperparameters.default(ds)  # a = b = 1, c = 0.5, d = 0.01
    val = log_marginal_variable(ds, 0, [1, 1], 1, 0, h)
    oracle = oracles.cont_marginal_quad([0.0, 1.0], 1.0, 1.0, 0.5, 0.01)
    assert val == pytest.approx(oracle, rel=1e-4)


def test_marginal_single_class_relevant_equals_irrelevant():
    ds = _mixed_dataset(seed=2, missing=0.2)
    h = Hyperparameters.default(ds)
    z = np.ones(ds.n, dtype=int)
    for j in range(ds.d):
        assert log_marginal_variable(ds, j, z, 1, 1, h) == \
            pytest.approx(log_marginal_variable(ds, j, z, 1, 0, h), abs=1e-12)


def test_marginal_empty_class_contributes_nothing():
    ds = _mixed_dataset(seed=3)
    h = Hyperparameters.default(ds)
    z = np.ones(ds.n, dtype=int)
    for j in range(ds.d):
        two = log_marginal_variable(ds, j, z, 2, 1, h)
        one = log_marginal_variable(ds, j, z, 1, 1, h)
        assert two == pytest.approx(one, abs=1e-12)


def test_marginals_match_oracles_with_missing_cells():
    rng = np.random.default_rng(4)
    ds = _mixed_dataset(seed=4, n=15, missing=0.3)
    h = Hyperparameters.default(ds)
    g = 2
    z = rng.integers(1, g + 1, size=ds.n)
    for j, kind in enumerate(ds.kinds):
        for omega_j in (0, 1):
            got = log_marginal_variable(ds, j, z, g, omega_j, h)
            groups = [np.flatnonzero(ds.mask[:, j] & (z == k + 1)) for k in range(g)] \
                if omega_j else [np.flatnonzero(ds.mask[:, j])]
            vals = [ds.X[rows, j] for rows in groups]
            if kind.tag == "cont":
                want = oracles.marginal_oracle(vals, "cont",
                                               (h.cont_a[0], h.cont_b[0], h.cont_c[0], h.cont_d[0]))
            elif kind.tag == "int":
                want = oracles.marginal_oracle(vals, "int", (h.int_a[0], h.int_b[0]))
            else:
                want = oracles.marginal_oracle(vals, "cat", (h.cat_a[0],), m=2)
            assert got == pytest.approx(want, rel=1e-6), (j, omega_j)


def test_log_integrated_complete_composition():
    ds = Dataset([[1.0], [2.0]], [CAT2])
    h = Hyperparameters.default(ds)
    val = log_integrated_complete(ds, [1, 1], Model(1, [0]), h)
    assert val == pytest.approx(0.0 + math.log(1 / 8), abs=1e-12)


def test_log_integrated_complete_relabel_invariance():
    ds = _mixed_dataset(seed=5, missing=0.1)
    h = Hyperparameters.default(ds)
    rng = np.random.default_rng(6)
    z = rng.integers(1, 4, size=ds.n)
    model = Model(3, [1, 0, 1])
    base = log_integrated_complete(ds, z, model, h)
    for perm in itertools.permutations([1, 2, 3]):
        relabeled = np.array([perm[zi - 1] for zi in z])
        assert log_integrated_complete(ds, relabeled, model, h) == \
            pytest.approx(base, abs=1e-9)


def _model_step(ds, z, g, h):
    """The optimizer's model step at a fixed partition, from all-relevant."""
    state = MiclState(MarginalTables(ds, h), Model(g, np.ones(ds.d)), z)
    state.model_update()
    return state.model.omega


def test_model_step_single_component_all_irrelevant():
    ds = _mixed_dataset(seed=7)
    h = Hyperparameters.default(ds)
    omega = _model_step(ds, np.ones(ds.n, dtype=int), 1, h)
    assert not omega.any()


def test_model_step_constant_column_irrelevant():
    rng = np.random.default_rng(8)
    X = np.column_stack([np.full(40, 2.5), rng.normal(size=40)])
    ds = Dataset(X, [CONT, CONT])
    h = Hyperparameters.default(ds)
    z = np.repeat([1, 2], 20)
    omega = _model_step(ds, z, 2, h)
    assert omega[0] == 0


def test_model_step_detects_separated_means():
    rng = np.random.default_rng(9)
    z = np.repeat([1, 2], 100)
    delta = 0.67
    x = np.where(z == 1, -delta, delta) + rng.normal(size=200)
    ds = Dataset(x[:, None], [CONT])
    h = Hyperparameters.default(ds)
    omega = _model_step(ds, z, 2, h)
    assert omega[0] == 1


def _move(state, i, k):
    """Reassign row i to class k (0-based) at the move's scored value."""
    state.candidate_values(np.array([i]))
    state.apply_move(i, k)


def test_partition_step_monotone_and_fixed_at_local_optimum():
    rng = np.random.default_rng(10)
    ds = _mixed_dataset(seed=10, n=20, missing=0.15)
    h = Hyperparameters.default(ds)
    tables = MarginalTables(ds, h)
    for trial in range(300):
        g = int(rng.integers(1, 4))
        z = rng.integers(1, g + 1, size=ds.n)
        omega = rng.integers(0, 2, size=ds.d)
        state = MiclState(tables, Model(g, omega), z)
        before = state.log_icl
        srng = np.random.default_rng(trial)
        partition_step(state, rng=srng)
        assert state.log_icl >= before - 1e-9
        # a second pass from a converged state must not move anything
        frozen = state.z.copy()
        partition_step(state, rng=np.random.default_rng(trial + 1))
        assert np.array_equal(state.z, frozen)


def test_partition_step_reports_whether_its_last_sweep_moved(monkeypatch):
    ds = _mixed_dataset(seed=10, n=20, missing=0.15)
    tables = MarginalTables(ds, Hyperparameters.default(ds))
    z = np.random.default_rng(30).integers(1, 3, size=ds.n)
    state = MiclState(tables, Model(2, [1, 1, 1]), z)
    monkeypatch.setattr(micl, "SWEEP_CAP", 1)
    assert partition_step(state, rng=np.random.default_rng(0)) is False
    assert not np.array_equal(state.z, z)  # the one sweep moved
    monkeypatch.undo()
    assert partition_step(state, rng=np.random.default_rng(1)) is True
    # at a local optimum the first sweep makes no move
    frozen = state.z.copy()
    assert partition_step(state, rng=np.random.default_rng(2)) is True
    assert np.array_equal(state.z, frozen)


def test_partition_step_reaches_enumeration_local_maximum():
    ds = Dataset([[0.1], [0.15], [3.0]], [CONT])
    h = Hyperparameters.default(ds)
    tables = MarginalTables(ds, h)
    model = Model(2, [1])
    values = {}
    for z in itertools.product([1, 2], repeat=3):
        values[z] = log_integrated_complete(ds, np.array(z), model, h)
    for start in itertools.product([1, 2], repeat=3):
        state = MiclState(tables, model, np.array(start))
        partition_step(state, rng=np.random.default_rng(0))
        final = tuple(state.z)
        # local maximum of the enumeration: no single reassignment improves
        for i in range(3):
            for k in (1, 2):
                if k != final[i]:
                    neighbor = list(final)
                    neighbor[i] = k
                    assert values[tuple(neighbor)] <= values[final] + 1e-9


def test_incremental_statistics_match_recomputation():
    rng = np.random.default_rng(11)
    ds = _mixed_dataset(seed=11, n=40, missing=0.2)
    h = Hyperparameters.default(ds)
    tables = MarginalTables(ds, h)
    g = 3
    state = MiclState(tables, Model(g, [1, 1, 1]), rng.integers(1, g + 1, size=ds.n))
    for _ in range(10_000):
        i = int(rng.integers(ds.n))
        k = int(rng.integers(g))
        _move(state, i, k)
    assert state.log_icl == pytest.approx(
        MiclState(state.tables, state.model, state.z).log_icl, abs=1e-8)
    fresh = MiclState(tables, state.model, state.z)
    assert state.st.keys() == fresh.st.keys()
    for key in ("nk", "Mc", "Mi", "Mq", "onehot"):  # counts
        assert np.allclose(state.st[key], fresh.st[key]), key
    for key in ("Xc", "Xc2", "Xi", "lgam"):  # sums
        assert np.allclose(state.st[key], fresh.st[key], atol=1e-9), key
    for phi, want in zip(state.phi, fresh.phi, strict=True):
        assert np.allclose(phi, want, atol=1e-9)


def test_run_micl_single_component(monkeypatch):
    def no_em(*args, **kwargs):
        raise AssertionError("g = 1 runs no start EM")

    monkeypatch.setattr(micl, "run_starts", no_em)
    ds = _mixed_dataset(seed=12)
    h = Hyperparameters.default(ds)
    model, z, value = run_micl(ds, 1, h, EmConfig(seed=1, n_starts=2))
    assert model.g == 1 and not model.omega.any()
    assert (z == 1).all()
    assert value == pytest.approx(
        log_integrated_complete(ds, z, model, h), abs=1e-9)


def _continuous_dataset(seed=0, n=40):
    rng = np.random.default_rng(seed)
    X = np.column_stack([rng.normal(3.0 * (np.arange(n) % 2), 1.0), rng.normal(size=n),
                         rng.normal(size=n)])
    return Dataset(X, [CONT, CONT, CONT])


MICL_SETS = pytest.mark.parametrize(
    "make", [lambda: _mixed_dataset(seed=22, n=40, missing=0.1), _continuous_dataset],
    ids=["mixed-missing", "continuous"])


@MICL_SETS
def test_run_micl_matches_the_one_em_per_start_reference(make, monkeypatch):
    # the start EMs of one g run as one stack, and give the answer of one
    # run_em call per start
    calls, run_starts = [], micl.run_starts

    def counted(dataset, fits, *args):
        calls.append({g for g, _, _ in fits})
        return run_starts(dataset, fits, *args)

    ds = make()
    h = Hyperparameters.default(ds)
    cfg = EmConfig(seed=23, n_starts=5)
    monkeypatch.setattr(micl, "run_starts", counted)
    for g in (2, 3):
        model, z, value = run_micl(ds, g, h, cfg)
        want_model, want_z, want_value = oracles.sequential_run_micl(ds, g, h, cfg)
        assert model.g == want_model.g == g
        assert np.array_equal(model.omega, want_model.omega)
        assert np.array_equal(z, want_z)
        assert value == pytest.approx(want_value, rel=1e-12, abs=0.0)
    assert calls == [{2}, {3}]


@MICL_SETS
def test_run_micl_ends_at_a_fixed_point_of_both_steps(make):
    # no single-row move improves the returned partition under the returned
    # model, and the model step there keeps omega; one start per call, so
    # every start's end is checked, not only the best one's
    ds = make()
    h = Hyperparameters.default(ds)
    tables = MarginalTables(ds, h)
    for g, seed in itertools.product((2, 3), range(5)):
        model, z, _ = run_micl(ds, g, h, EmConfig(seed=seed, n_starts=1), tables)
        state = MiclState(tables, model, z)
        vals = state.candidate_values(np.arange(ds.n))
        assert (vals.max(axis=1) <= vals[np.arange(ds.n), state.zi]).all()
        state.model_update()
        assert np.array_equal(state.model.omega, model.omega)


def test_model_step_drops_a_column_observed_in_one_class():
    # this start ends with every row in one class, where each column's class
    # factors sum to its global factor up to rounding: the tie drops every
    # column, in the run and in a state rebuilt at its answer
    ds = _continuous_dataset()
    h = Hyperparameters.default(ds)
    model, z, _ = run_micl(ds, 2, h, EmConfig(seed=0, n_starts=1))
    assert np.bincount(z, minlength=3).tolist() == [0, 0, 40]
    assert not model.omega.any()
    state = MiclState(MarginalTables(ds, h), model, z)
    state.model_update()
    assert not state.model.omega.any()


def test_run_micl_deterministic():
    ds = _mixed_dataset(seed=13, missing=0.1)
    h = Hyperparameters.default(ds)
    cfg = EmConfig(seed=21, n_starts=4)
    a = run_micl(ds, 2, h, cfg)
    b = run_micl(ds, 2, h, cfg)
    assert a[2] == b[2]
    assert np.array_equal(a[0].omega, b[0].omega)
    assert np.array_equal(a[1], b[1])


def test_run_micl_value_consistent_and_beats_random_partitions():
    rng = np.random.default_rng(14)
    ds = _mixed_dataset(seed=14, n=30)
    h = Hyperparameters.default(ds)
    model, z_star, value = run_micl(ds, 2, h, EmConfig(seed=3, n_starts=6))
    assert value == pytest.approx(
        log_integrated_complete(ds, z_star, model, h), abs=1e-8)
    for _ in range(100):
        z = rng.integers(1, 3, size=ds.n)
        assert log_integrated_complete(ds, z, model, h) <= value + 1e-9


def test_masked_all_true_equals_unmasked_bitwise():
    rng = np.random.default_rng(15)
    X = np.column_stack([rng.normal(size=18), rng.poisson(2.0, 18),
                         rng.integers(1, 3, 18)]).astype(float)
    kinds = [CONT, INT, CAT2]
    plain = Dataset(X, kinds)
    masked = Dataset(X, kinds, mask=np.ones_like(X, dtype=bool))
    h1, h2 = Hyperparameters.default(plain), Hyperparameters.default(masked)
    z = rng.integers(1, 3, size=18)
    model = Model(2, [1, 1, 0])
    assert log_integrated_complete(plain, z, model, h1) == \
        log_integrated_complete(masked, z, model, h2)


def test_log_integrated_complete_matches_oracles_with_missing_cells():
    rng = np.random.default_rng(16)
    ds = _mixed_dataset(seed=16, n=15, missing=0.2)
    assert not ds.mask.all()
    h = Hyperparameters.default(ds)
    g = 3
    z = rng.integers(1, g + 1, size=ds.n)
    model = Model(g, [1, 0, 1])
    tuples = {"cont": (h.cont_a[0], h.cont_b[0], h.cont_c[0], h.cont_d[0]),
              "int": (h.int_a[0], h.int_b[0]), "cat": (h.cat_a[0],)}
    want = oracles.proportions_urn(z, g, h.u)
    for j, kind in enumerate(ds.kinds):
        groups = [np.flatnonzero(ds.mask[:, j] & (z == k + 1)) for k in range(g)] \
            if model.omega[j] else [np.flatnonzero(ds.mask[:, j])]
        want += oracles.marginal_oracle([ds.X[rows, j] for rows in groups], kind.tag,
                                        tuples[kind.tag], m=2)
    assert log_integrated_complete(ds, z, model, h) == pytest.approx(want, rel=1e-6)


def _wide_mixed_dataset(seed, n, missing):
    """Four columns of each kind (categorical with 2 and 4 levels), about
    ``missing`` of the cells masked at random (row 0 kept whole)."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([rng.normal(0.5, 2.0, (n, 4)), rng.poisson(2.5, (n, 4)),
                         rng.integers(1, 3, (n, 2)), rng.integers(1, 5, (n, 2))]).astype(float)
    drop = rng.random(X.shape) < missing
    drop[0] = False
    X[drop] = np.nan
    kinds = [CONT] * 4 + [INT] * 4 + [CAT2] * 2 + [VariableKind.categorical(4)] * 2
    return Dataset(X, kinds)


def _moved_state(seed, g=3, n=60):
    """A g-class state on the wide dataset with a mixed omega, after a few
    hundred incremental moves."""
    rng = np.random.default_rng(seed)
    ds = _wide_mixed_dataset(seed, n, 0.2)
    tables = MarginalTables(ds, Hyperparameters.default(ds))
    omega = np.tile([1, 0, 1], 4)
    state = MiclState(tables, Model(g, omega), rng.integers(1, g + 1, n))
    for _ in range(300):
        _move(state, int(rng.integers(n)), int(rng.integers(g)))
    return ds, tables, state


def test_blocked_candidate_values_equal_stacked_rows():
    ds, _, state = _moved_state(17)
    assert 0.15 < 1.0 - ds.mask.mean() < 0.25
    rows = np.random.default_rng(18).permutation(ds.n)[:40]
    block = state.candidate_values(rows)
    assert block.shape == (40, 3)
    stacked = np.stack([state.candidate_values(np.array([i]))[0] for i in rows])
    assert np.array_equal(block, stacked)


def test_blocked_candidate_values_equal_rebuilt_states():
    ds, tables, state = _moved_state(19)
    rows = np.arange(ds.n)
    block = state.candidate_values(rows)
    for b, i in enumerate(rows):
        for k in range(state.model.g):
            zi = state.zi.copy()
            zi[i] = k
            want = MiclState(tables, state.model, zi + 1).log_icl
            assert block[b, k] == pytest.approx(want, rel=0, abs=1e-9), (i, k)


def test_candidate_values_with_many_levels_equal_rebuilt_states():
    """Level counts are read at each row's level: columns of 3, 12 and 50
    levels (so most levels of the narrow columns are padding) score as
    rebuilt states do."""
    rng = np.random.default_rng(23)
    n, g = 40, 3
    X = np.column_stack([rng.normal(size=n), rng.integers(1, 4, n),
                         rng.integers(1, 13, n), rng.integers(1, 51, n)]).astype(float)
    X[rng.random(X.shape) < 0.2] = np.nan
    ds = Dataset(X, [CONT] + [VariableKind.categorical(m) for m in (3, 12, 50)])
    tables = MarginalTables(ds, Hyperparameters.default(ds))
    state = MiclState(tables, Model(g, [1, 1, 1, 1]), rng.integers(1, g + 1, n))
    for _ in range(100):
        _move(state, int(rng.integers(n)), int(rng.integers(g)))
    block = state.candidate_values(np.arange(n))
    for i in range(n):
        for k in range(g):
            zi = state.zi.copy()
            zi[i] = k
            want = MiclState(tables, state.model, zi + 1).log_icl
            assert block[i, k] == pytest.approx(want, rel=0, abs=1e-9), (i, k)


def test_continuous_moves_match_refit():
    """The closed-form join and leave of a continuous value are the refit
    factors of the class with and without it, on random class sums of 1..20
    values; a class losing its only observed cell goes to factor 0, and a
    missing cell leaving its class changes nothing."""
    rng = np.random.default_rng(27)
    J, g = 5, 200
    ds = Dataset(rng.normal(size=(30, J)), [CONT] * J)
    h = replace(Hyperparameters.default(ds), cont_a=rng.uniform(0.5, 3.0, J),
                cont_b=rng.uniform(0.1, 3.0, J), cont_d=rng.uniform(0.005, 2.0, J))
    kind = MarginalTables(ds, h).kinds[0]
    n = rng.integers(1, 21, (g, J)).astype(float)
    n[:20] = 1.0
    loc, scale = rng.normal(0.0, 3.0, (g, J)), rng.uniform(0.1, 5.0, (g, J))
    values = loc + scale * rng.normal(size=(20, g, J))
    values[np.arange(20)[:, None, None] >= n] = 0.0  # n[k, j] values in class k
    S = np.stack([n, values.sum(axis=0), (values ** 2).sum(axis=0)])
    base = micl._phi_cont(*S, *kind.consts)
    a = np.arange(g)  # row b is the first value of class b
    x = np.stack([np.ones((g, J)), values[0], values[0] ** 2])
    up, down = micl._cont_moves(S, a, x, base, *kind.consts)
    want_up, want_down = oracles.refit_moves(micl._phi_cont, S, a, x, base, *kind.consts)
    assert np.allclose(up, want_up, rtol=0, atol=1e-9)
    assert np.allclose(down, want_down, rtol=0, atol=1e-9)
    assert np.array_equal(down[:20], -base[:20])
    _, down = micl._cont_moves(S, a, np.zeros_like(x), base, *kind.consts)
    assert np.array_equal(down, np.zeros((g, J)))


def test_integer_moves_match_refit():
    """The closed-form join of a count is the refit factor of the class with
    it, on random class sums of 1..21 counts, some past the ln Gamma table;
    the leave is the refit."""
    rng = np.random.default_rng(31)
    J, g = 4, 200
    ds = Dataset(rng.poisson(3.0, (30, J)).astype(float), [INT] * J)
    h = replace(Hyperparameters.default(ds), int_a=rng.uniform(0.2, 5.0, J),
                int_b=rng.uniform(0.1, 5.0, J))
    kind = MarginalTables(ds, h).kinds[0]
    n = rng.integers(1, 22, (g, J))
    counts = rng.poisson(rng.choice([0.5, 4.0, 150.0], (g, J)), (21, g, J)).astype(float)
    counts[np.arange(21)[:, None, None] >= n] = 0.0  # n[k, j] counts in class k
    S = np.stack([n.astype(float), counts.sum(axis=0), gammaln(counts + 1.0).sum(axis=0)])
    assert (S[1] >= micl.LGAMMA_ROWS).any()
    base = micl._phi_int(*S, *kind.consts)
    a = rng.integers(0, g, g)  # row b is the first count of class a[b]
    v = counts[0, a]
    x = np.stack([np.ones((g, J)), v, gammaln(v + 1.0)])
    up, down = micl._int_moves(S, a, x, base, *kind.consts)
    want_up, want_down = oracles.refit_moves(micl._phi_int, S, a, x, base, *kind.consts)
    assert np.allclose(up, want_up, rtol=0, atol=1e-9)
    assert np.array_equal(down, want_down)


def test_partition_step_keeps_relevant_factors_and_model_update_refits_all():
    """Moves update the factors of the relevant columns only: a partition
    step ends with those factors and the value of a rebuilt state, and the
    model step after it with every factor of one."""
    ds, tables, state = _moved_state(28)
    assert not state.model.omega.all()
    partition_step(state, rng=np.random.default_rng(29))
    fresh = MiclState(tables, state.model, state.z)
    for phi, want, rel in zip(state.phi, fresh.phi, state.rel, strict=True):
        assert np.allclose(phi[:, rel], want[:, rel], rtol=0, atol=1e-9)
    assert state.log_icl == pytest.approx(fresh.log_icl, rel=0, abs=1e-9)
    state.model_update()
    fresh.model_update()
    for phi, want in zip(state.phi, fresh.phi, strict=True):
        assert np.allclose(phi, want, rtol=0, atol=1e-9)
    assert state.log_icl == pytest.approx(fresh.log_icl, rel=0, abs=1e-9)


def test_model_update_right_after_a_move_equals_a_rebuilt_state():
    """A model step straight after a bare move, with no partition step in
    between, refits the factors the move left stale."""
    ds, tables, state = _moved_state(33)
    i = 5
    k = (state.zi[i] + 1) % state.model.g
    _move(state, i, k)
    fresh = MiclState(tables, state.model, state.z)
    assert state.model_update() is None
    fresh.model_update()
    assert np.array_equal(state.model.omega, fresh.model.omega)
    for phi, want in zip(state.phi, fresh.phi, strict=True):
        assert np.allclose(phi, want, rtol=0, atol=1e-9)
    assert state.log_icl == pytest.approx(fresh.log_icl, rel=0, abs=1e-9)


def test_apply_move_needs_the_row_scored_in_the_last_block():
    ds, tables, state = _moved_state(30)
    fresh = MiclState(tables, state.model, state.z)
    with pytest.raises(ValueError):
        fresh.apply_move(0, 1)
    vals = state.candidate_values(np.arange(10))
    with pytest.raises(ValueError):
        state.apply_move(20, 1)
    k = (state.zi[3] + 1) % state.model.g
    state.apply_move(3, k)
    assert state.log_icl == vals[3, k]  # the value its scoring pass gave
    with pytest.raises(ValueError):  # a move spends the scored block
        state.apply_move(4, k)


def _sequential_partition_step(state, rng):
    """Row-by-row greedy sweep: the reference the blocked sweep must match."""
    n = state.tables.packed.n
    for _ in range(micl.SWEEP_CAP):
        moved = False
        for i in rng.permutation(n):
            vals = state.candidate_values(np.array([i]))[0]
            k = int(np.argmax(vals))
            if vals[k] > vals[state.zi[i]]:
                state.apply_move(int(i), k)
                moved = True
        if not moved:
            break
    return state


def test_blocked_partition_step_makes_the_sequential_moves(monkeypatch):
    rng = np.random.default_rng(20)
    ds = _wide_mixed_dataset(20, 30, 0.2)
    tables = MarginalTables(ds, Hyperparameters.default(ds))
    default_rows = micl.BLOCK_ROWS
    for trial in range(200):
        # every other trial uses short blocks, so moves land across block ends
        monkeypatch.setattr(micl, "BLOCK_ROWS", 7 if trial % 2 else default_rows)
        g = int(rng.integers(1, 4))
        z = rng.integers(1, g + 1, size=ds.n)
        model = Model(g, rng.integers(0, 2, size=ds.d))
        blocked = MiclState(tables, model, z)
        partition_step(blocked, rng=np.random.default_rng(trial))
        reference = MiclState(tables, model, z)
        _sequential_partition_step(reference, np.random.default_rng(trial))
        assert np.array_equal(blocked.z, reference.z), trial


def test_one_block_update_matches_the_per_key_update():
    """A move shifts one column of ``Packed.cells`` between two rows of the
    (g, D) block ``S``; every class sum equals the per-key update, bit for
    bit, and each one but ``nk`` is a view of ``S``."""
    rng = np.random.default_rng(26)
    ds = _wide_mixed_dataset(26, 60, 0.2)
    p, g = ds.packed(), 3
    state = MiclState(MarginalTables(ds, Hyperparameters.default(ds)),
                      Model(g, np.tile([1, 0, 1], 4)), rng.integers(1, g + 1, ds.n))
    sums = {key: s.copy() for key, s in state.st.items()}
    assert len(sums) == len(p.BLOCKS) + 1
    for _ in range(1000):
        i, k = int(rng.integers(ds.n)), int(rng.integers(g))
        a = state.zi[i]
        _move(state, i, k)
        if k != a:
            for key, s in sums.items():
                x = 1.0 if key == "nk" else getattr(p, key)[..., i]
                s[a] -= x
                s[k] += x
        for key, s in sums.items():
            assert np.array_equal(state.st[key], s), key
    for key, s in state.st.items():
        assert (key == "nk") != np.shares_memory(s, state.S), key


@pytest.mark.parametrize("z, omega", [
    ([0, 2] + [1, 2] * 4, [1, 0, 1]),     # 0 would wrap to class g
    ([1.5, 2] + [1, 2] * 4, [1, 0, 1]),   # 1.5 would truncate to 1
    ([3, 2] + [1, 2] * 4, [1, 0, 1]),
    ([1, 2] * 4 + [1], [1, 0, 1]),        # n - 1 labels
    ([1, 2] * 5, [1, 0, 1, 1]),           # d + 1 omega entries
])
def test_state_rejects_labels_outside_one_to_g(z, omega):
    ds = _mixed_dataset(seed=24, n=10)
    h = Hyperparameters.default(ds)
    model = Model(2, omega)
    with pytest.raises(ValueError):
        MiclState(MarginalTables(ds, h), model, z)
    with pytest.raises(ValueError):
        log_integrated_complete(ds, z, model, h)
    if len(omega) == ds.d:
        with pytest.raises(ValueError):
            log_marginal_variable(ds, 0, z, 2, 1, h)


def test_all_missing_rows_change_only_the_class_sizes():
    ds = _wide_mixed_dataset(21, 30, 0.2)
    mask = ds.mask.copy()
    mask[[3, 7]] = False
    ds = ds.replace_mask(mask)
    h = Hyperparameters.default(ds)
    g = 3
    rng = np.random.default_rng(22)
    state = MiclState(MarginalTables(ds, h), Model(g, np.ones(ds.d)),
                      rng.integers(1, g + 1, ds.n))
    for i in (3, 7):
        a = int(state.zi[i])
        nk = state.st["nk"]
        # every cell of the row is missing, so only the proportion term moves
        want = state.log_icl + (np.log(nk + h.u) - np.log(nk[a] - 1.0 + h.u))
        want[a] = state.log_icl
        assert np.array_equal(state.candidate_values(np.array([i]))[0], want)
        k = (a + 1) % g
        sums = {key: s.copy() for key, s in state.st.items()}
        phi = [f.copy() for f in state.phi]
        _move(state, i, k)
        sums["nk"][[a, k]] += (-1.0, 1.0)
        for key, s in state.st.items():
            assert np.array_equal(s, sums[key]), key
        for f, f0 in zip(state.phi, phi, strict=True):
            assert np.array_equal(f, f0)
        assert state.log_icl == pytest.approx(
            MiclState(state.tables, state.model, state.z).log_icl, abs=1e-9)


# hyperparameters 0.005..50, log-spaced, and every half-integer up to 50
HYPER = np.concatenate([np.geomspace(0.005, 50.0, 23), np.arange(0.5, 50.0, 0.5)])


def assert_matches_gammaln(got, x):
    """``got`` is ln Gamma(x) to 1e-13 relative, or 1e-12 absolute near the
    zeros of ln Gamma at 1 and 2."""
    want = gammaln(x)
    assert np.all(np.abs(got - want) <= np.maximum(1e-13 * np.abs(want), 1e-12))


def test_lgamma_tables_match_scipy():
    for step in (1.0, 0.5):  # integer counts, and the continuous half-steps
        table = micl._lgamma_table(HYPER, 2000, step)
        assert_matches_gammaln(table, HYPER[:, None] + step * np.arange(2000))


def test_lgamma_series_tail_matches_scipy():
    table = micl._lgamma_table(HYPER, micl.LGAMMA_ROWS)
    counts = np.concatenate([np.arange(micl.LGAMMA_ROWS - 50, micl.LGAMMA_ROWS + 50),
                             np.geomspace(1.0, 1e7, 300).round()])
    V = np.broadcast_to(counts[:, None], (len(counts), len(HYPER)))  # columns last
    assert_matches_gammaln(micl._lgamma_at(table, HYPER, V), HYPER + V)


def test_log_integrated_complete_with_counts_near_a_million():
    """Class sums far past the Poisson table are read from the Stirling
    series; the value matches a gammaln reference to the rounding of its
    terms, and so do the candidate moves."""
    rng = np.random.default_rng(25)
    n, g = 30, 2
    X = rng.poisson(1e6, (n, 2)).astype(float)
    X[3, 0] = np.nan
    ds = Dataset(X, [INT, INT])
    h = Hyperparameters.default(ds)  # a = b = 1
    z = rng.integers(1, g + 1, n)
    model = Model(g, [1, 0])
    want, scale = oracles.proportions_urn(z, g, h.u), 0.0
    for j in range(2):
        for k in range(1, g + 1) if model.omega[j] else [None]:
            x = ds.X[ds.mask[:, j] & ((z == k) if k else True), j]
            terms = [-gammaln(x + 1.0).sum(), -gammaln(1.0), gammaln(1.0 + x.sum()),
                     -(1.0 + x.sum()) * math.log(1.0 + len(x))]
            want += sum(terms)
            scale += sum(map(abs, terms))
    assert log_integrated_complete(ds, z, model, h) == \
        pytest.approx(want, rel=0, abs=1e-14 * scale)
    tables = MarginalTables(ds, h)
    block = MiclState(tables, model, z).candidate_values(np.arange(n))
    for i in range(n):
        for k in range(g):
            zi = z - 1
            zi[i] = k
            want = MiclState(tables, model, zi + 1).log_icl
            assert block[i, k] == pytest.approx(want, rel=0, abs=1e-14 * scale), (i, k)
