import numpy as np
import pytest

from mixsel import Dataset, Model, VariableKind, e_step, em, m_step
from mixsel.densities import LOG_2PI, SIGMA_FLOOR, normal_logpdf
from mixsel.simulate import MIXED_INDEP, ScenarioSpec, generate
from oracles import (EmptyWeight, UnsupportedValue, column_loglik, log_density,
                     weighted_mle)

CONT = VariableKind.continuous()
INT = VariableKind.integer()
CAT4 = VariableKind.categorical(4)


def test_log_density_reference_values():
    assert log_density(0.0, CONT, np.array([0.0, 1.0])) == pytest.approx(-0.9189385, abs=1e-7)
    assert log_density(0.0, INT, np.array([1.0])) == pytest.approx(-1.0)
    quarter = np.full(4, 0.25)
    assert log_density(2.0, CAT4, quarter) == pytest.approx(-1.3862944, abs=1e-7)


def test_log_density_support_checks():
    with pytest.raises(UnsupportedValue):
        log_density(-1.0, INT, np.array([1.0]))
    with pytest.raises(UnsupportedValue):
        log_density(2.5, INT, np.array([1.0]))
    with pytest.raises(UnsupportedValue):
        log_density(5.0, CAT4, np.full(4, 0.25))
    with pytest.raises(UnsupportedValue):
        log_density(np.nan, CONT, np.array([0.0, 1.0]))


def test_weighted_mle_two_point_examples():
    blk = weighted_mle([0.0, 2.0], [1.0, 1.0], CONT)
    assert blk[0] == pytest.approx(1.0) and blk[1] == pytest.approx(1.0)
    blk = weighted_mle([1.0, 3.0], [1.0, 1.0], INT)
    assert blk[0] == pytest.approx(2.0)
    blk = weighted_mle([1.0, 1.0, 2.0], [1.0, 1.0, 1.0], VariableKind.categorical(2))
    assert blk == pytest.approx([2.0 / 3.0, 1.0 / 3.0])


def test_weighted_mle_empty_weight():
    with pytest.raises(EmptyWeight):
        weighted_mle([1.0], [0.0], CONT)


def test_all_ones_weights_match_unweighted():
    rng = np.random.default_rng(7)
    x = rng.normal(size=25)
    blk = weighted_mle(x, np.ones(25), CONT)
    assert blk[0] == pytest.approx(x.mean(), abs=1e-12)
    assert blk[1] == pytest.approx(x.std(), abs=1e-12)


def _wll(values, weights, kind, block):
    return sum(w * log_density(v, kind, block) for v, w in zip(values, weights))


@pytest.mark.parametrize("kind", [CONT, INT, VariableKind.categorical(3)])
def test_weighted_mle_is_stationary(kind):
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(3, 15))
        if kind.tag == "cont":
            values = rng.normal(2.0, 1.5, n)
        elif kind.tag == "int":
            values = rng.poisson(4.0, n).astype(float)
        else:
            values = rng.integers(1, 4, n).astype(float)
        weights = rng.uniform(0.05, 1.0, n)
        block = weighted_mle(values, weights, kind)
        base = _wll(values, weights, kind, block)
        for pos in range(len(block)):
            for eps in (1e-3, -1e-3):
                pert = block.copy()
                pert[pos] += eps
                if kind.tag == "cat":
                    if (pert <= 0).any():
                        continue
                    pert = pert / pert.sum()
                elif pert[-1] <= 0:
                    continue
                assert _wll(values, weights, kind, pert) <= base + 1e-9


def test_categorical_masses_sum_to_one():
    rng = np.random.default_rng(3)
    for m in (2, 3, 5):
        kind = VariableKind.categorical(m)
        values = rng.integers(1, m + 1, 30).astype(float)
        block = weighted_mle(values, rng.uniform(0.1, 1, 30), kind)
        total = sum(np.exp(log_density(h + 1.0, kind, block)) for h in range(m))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_column_loglik_additivity():
    X = np.array([[1.0], [np.nan], [2.0]])
    ds = Dataset(X, [CONT])
    blk = np.array([0.5, 1.2])
    single = column_loglik(ds, 0, [0], blk)
    assert single == pytest.approx(log_density(1.0, CONT, blk))
    assert column_loglik(ds, 0, [1], blk) == 0.0
    both = column_loglik(ds, 0, [0, 1, 2], blk)
    assert both == pytest.approx(single + log_density(2.0, CONT, blk))


def _textbook_logpdf(x, mu, sigma):
    z = (x - mu) / sigma
    return -0.5 * z * z - np.log(sigma) - 0.5 * LOG_2PI


def test_normal_logpdf_one_buffer_is_bit_identical():
    rng = np.random.default_rng(17)
    g, n, c = 3, 50, 4
    x = rng.normal(size=(n, c)) * 1e3
    mu = rng.normal(size=(g, 1, c))
    sigma = rng.uniform(0.1, 5.0, size=(g, 1, c))
    sigma[1, 0, 2] = SIGMA_FLOOR
    x[7, 2] = mu[1, 0, 2]  # a cell exactly at a floored mean
    got = normal_logpdf(x, mu, sigma)
    assert got.shape == (g, n, c)
    assert np.array_equal(got, _textbook_logpdf(x, mu, sigma))
    for value, m, s in ((0.3, -1.2, 0.7), (2.5, 2.5, SIGMA_FLOOR), (1e8, 0.0, 1.0)):
        assert float(normal_logpdf(value, m, s)) == float(_textbook_logpdf(value, m, s))


def _mixed_set():
    ds, z, _ = generate(ScenarioSpec(MIXED_INDEP, n=80, d=12, target_error=0.05,
                                     missing_rate=0.2, seed=4))
    return ds, z


def test_cont_logdens_leaves_the_cells_alone():
    # three classes around the one-class fit, one pair on the sigma floor
    # so the cell-by-cell path runs too
    ds, _ = _mixed_set()
    packed = ds.packed()
    before = packed.cells.copy()
    mu1, sigma1, rate1, probs1 = packed.one_class.blocks
    mu = mu1 + np.array([[-0.5], [0.0], [0.5]])
    sigma = sigma1 * np.array([[0.5], [1.0], [2.0]])
    sigma[2, 1] = SIGMA_FLOOR
    blocks = (mu, sigma, np.repeat(rate1, 3, axis=0), np.repeat(probs1, 3, axis=0))
    got = em._log_joint(packed, blocks)
    assert np.array_equal(packed.cells, before)
    assert np.shares_memory(packed.Xc, packed.cells)
    assert got.shape == (3, packed.n)
    want = _oracle_log_joint(ds, em._parameters(packed, np.full(3, 1 / 3), blocks))
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_m_kernel_fixed_omega_swaps_in_the_shared_cells_like_where():
    # the plain engine keeps the true omega (continuous columns 0, 1
    # relevant, 6, 7 shared): every block of a shared column is the one-class
    # block, every other the per-class one
    ds, z = _mixed_set()
    packed = ds.packed()
    t = _soft_weights(packed, z)
    fixed = np.repeat(np.array([1, 0], dtype=np.int8), 6)
    _, blocks, omega, delta = em._m_kernel(packed, t, fixed)
    assert np.array_equal(omega, fixed) and delta is None
    gr = packed.groups
    shared = [fixed[cols] == 0 for cols in (gr.cont, gr.cont, gr.integer, gr.cat)]
    assert all(s.any() and not s.all() for s in shared)
    per_class = em._install(*em._per_class_blocks(packed, packed.class_sums(t)),
                            packed.one_class.blocks)
    for s, got, mine, one in zip(shared, blocks, per_class, packed.one_class.blocks):
        s = s.reshape(s.shape + (1,) * (got.ndim - 2))
        assert np.array_equal(got, np.where(s, one, mine))
        assert got.shape == mine.shape


def _soft_weights(packed, z):
    """(g, n) responsibilities leaning 0.9 towards the labels ``z``."""
    t = np.full((2, packed.n), 0.1)
    t[z - 1, np.arange(packed.n)] = 0.9
    return t


def _oracle_log_joint(ds, theta):
    """(g, n) sum of each row's observed-cell log-densities, cell by cell."""
    return np.array([[sum(log_density(ds.X[i, j], ds.kinds[j], theta.block(k, j))
                          for j in np.flatnonzero(ds.mask[i]))
                      for i in range(ds.n)] for k in range(theta.g)])


def test_log_joint_is_the_cell_by_cell_sum():
    # the plain engine keeps the true omega (continuous columns 0, 1
    # relevant, 6, 7 shared); class 2 is then put on the sigma floor in the
    # first continuous column, with its mean exactly on one observed cell
    ds, z = _mixed_set()
    packed = ds.packed()
    fixed = np.repeat(np.array([1, 0], dtype=np.int8), 6)
    tau, (mu, sigma, rate, probs), _, _ = em._m_kernel(
        packed, _soft_weights(packed, z), fixed)
    shared = fixed[packed.groups.cont] == 0
    assert shared.any() and not shared.all()
    assert (sigma[:, shared] == packed.one_class.blocks[1][:, shared]).all()
    i = int(np.flatnonzero(packed.Mc[0])[0])
    mu, sigma = mu.copy(), sigma.copy()
    mu[1, 0], sigma[1, 0] = packed.Xc[0, i], SIGMA_FLOOR
    blocks = (mu, sigma, rate, probs)
    got = em._log_joint(packed, blocks)
    assert got.shape == (2, packed.n)
    theta = em._parameters(packed, tau, blocks)
    theta.mu[1, 0] = ds.X[i, packed.groups.cont[0]]  # the cell, in original units
    want = _oracle_log_joint(ds, theta)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    # the other observed cells of the floored column are far outside its spike
    assert np.isfinite(got).all()
    assert (got[1, np.flatnonzero(packed.Mc[0])[1:]] < -1e10).all()


def test_delta_is_the_cell_by_cell_expected_loglik_gain():
    ds, z = _mixed_set()
    packed = ds.packed()
    t = _soft_weights(packed, z)
    c = 0.5 * np.log(packed.n)
    tau, _, omega, delta = em._m_kernel(packed, t, None, penalty_c=c)
    assert omega.any() and not omega.all()
    st = packed.class_sums(t)
    blocks = em._install(*em._per_class_blocks(packed, st), packed.one_class.blocks)
    wll = em._weighted_loglik_by_column(packed, st, blocks, 2)[0]
    theta = em._parameters(packed, tau, blocks)
    shared = em._parameters(packed, [1.0], packed.one_class.blocks)
    for j, kind in enumerate(ds.kinds):
        obs = np.flatnonzero(ds.mask[:, j])
        per_class = sum(t[k, i] * log_density(ds.X[i, j], kind, theta.block(k, j))
                        for k in range(2) for i in obs)
        one = sum(log_density(ds.X[i, j], kind, shared.block(0, j)) for i in obs)
        assert wll[j] == pytest.approx(per_class, rel=1e-10, abs=0.0), j
        want = per_class - one - packed.nu[j] * c
        assert delta[j] == pytest.approx(want, rel=1e-10, abs=0.0), j


def test_class_sums_one_product_matches_per_matrix_products():
    ds, z = _mixed_set()
    packed = ds.packed()
    hard = np.zeros((2, packed.n))
    hard[z - 1, np.arange(packed.n)] = 1.0
    for t in (_soft_weights(packed, z), hard):
        st = packed.class_sums(t)
        assert st.keys() == {"nk", "Mc", "Xc", "Xc2", "Mi", "Xi", "lgam", "Mq", "onehot"}
        for name in ("Mc", "Xc", "Xc2", "Mi", "Xi", "lgam", "Mq"):
            want = t @ getattr(packed, name).T
            assert st[name].shape == want.shape
            assert np.allclose(st[name], want, rtol=1e-12, atol=1e-12), name
        want = np.einsum("kn,jhn->kjh", t, packed.onehot)
        assert st["onehot"].shape == (2, packed.groups.n_cat, packed.m_max)
        assert np.allclose(st["onehot"], want, rtol=1e-12, atol=1e-12)
        assert np.allclose(st["nk"], t.sum(axis=1), rtol=1e-12, atol=1e-12)
    # under a 0/1 partition the counts are exact integers
    for name in ("nk", "Mc", "Mi", "Mq", "onehot"):
        assert np.array_equal(st[name], np.round(st[name])), name
    assert np.array_equal(st["nk"], np.bincount(z - 1, minlength=2))
    assert np.array_equal(st["Mc"], hard @ packed.Mc.T)


def test_e_step_matches_a_textbook_log_sum_exp():
    ds, z, _ = generate(ScenarioSpec(MIXED_INDEP, n=80, d=12, target_error=0.05,
                                     missing_rate=0.2, seed=4))
    g = 3
    model = Model(g, np.ones(ds.d, dtype=np.int8))
    fuzzy = np.random.default_rng(5).dirichlet(np.ones(g), size=ds.n)
    theta = m_step(ds, model, fuzzy)
    t = e_step(ds, model, theta)
    assert t.shape == (ds.n, g) and t.flags.c_contiguous
    assert np.allclose(t.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    # (n, g) log joint, cell by cell, then a row-wise log-sum-exp
    L = np.tile(np.log(theta.tau), (ds.n, 1))
    for i in range(ds.n):
        for k in range(g):
            for j in np.flatnonzero(ds.mask[i]):
                L[i, k] += log_density(ds.X[i, j], ds.kinds[j], theta.block(k, j))
    want = np.exp(L - L.max(axis=1, keepdims=True))
    want /= want.sum(axis=1, keepdims=True)
    assert np.allclose(t, want, rtol=0.0, atol=1e-12)
