import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixsel import (InvalidShape, LengthMismatch, NoRoot, ScenarioSpec, ari,
                    calibrate_delta, gen_continuous, gen_mixed, generate,
                    inject_mcar)
from mixsel.simulate import (CONTINUOUS_TRIDIAG, MIXED_INDEP,
                             _mixed_bayes_error, _mixed_bayes_risk, _mixed_log_ratio,
                             _mixed_margins, _tridiag)
from mixsel.util import seeded_rng


def test_ari_reference_values():
    z = np.array([1, 2, 1, 3, 2])
    assert ari(z, z) == 1.0
    assert ari([1, 1, 2, 2], [1, 2, 1, 2]) == pytest.approx(-0.5, abs=1e-12)
    assert ari([1, 1, 2, 2], [1, 1, 1, 1]) == pytest.approx(0.0, abs=1e-12)


def test_ari_degenerate_and_errors():
    assert ari([1, 1, 1], [2, 2, 2]) == 1.0
    assert ari([1, 2, 3], [3, 1, 2]) == 1.0  # both all-singletons: same partition
    with pytest.raises(LengthMismatch):
        ari([1, 2], [1, 2, 3])


def test_ari_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = rng.integers(1, 4, 30)
        b = rng.integers(1, 5, 30)
        assert ari(a, b) == pytest.approx(ari(b, a), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=2, max_size=40),
       st.permutations([1, 2, 3, 4]))
def test_ari_label_permutation_invariance(labels, perm):
    rng = np.random.default_rng(sum(labels))
    other = rng.integers(1, 4, len(labels))
    permuted = [perm[z - 1] for z in labels]
    assert ari(labels, other) == pytest.approx(ari(permuted, other), abs=1e-12)


def test_calibrate_delta_closed_form():
    spec = ScenarioSpec(CONTINUOUS_TRIDIAG, target_error=0.05, d=10)
    delta = calibrate_delta(spec)
    assert delta == pytest.approx(1.6448536 / np.sqrt(6.0), abs=1e-6)
    assert delta == pytest.approx(0.6715, abs=2e-4)
    half = ScenarioSpec(CONTINUOUS_TRIDIAG, target_error=0.5, d=10)
    assert calibrate_delta(half) == pytest.approx(0.0, abs=1e-12)
    with_rho = ScenarioSpec(CONTINUOUS_TRIDIAG, target_error=0.05, d=10, rho=0.4)
    q = float(np.ones(6) @ np.linalg.solve(_tridiag(6, 0.4), np.ones(6)))
    assert calibrate_delta(with_rho) == pytest.approx(1.6448536 / np.sqrt(q), abs=1e-6)


def test_calibrate_delta_mixed_monte_carlo():
    spec = ScenarioSpec(MIXED_INDEP, target_error=0.10, d=12)
    delta = calibrate_delta(spec)
    assert 0.0 < delta < 3.0
    # verify with a fresh Monte-Carlo oracle draw
    err = _mixed_bayes_error(delta, 1_000_000, seed=987654321)
    assert err == pytest.approx(0.10, abs=0.01)


def test_calibrate_delta_mixed_unreachable_target():
    # the fixed binary margins keep the error at ~0.30 even at zero separation
    with pytest.raises(NoRoot):
        calibrate_delta(ScenarioSpec(MIXED_INDEP, target_error=0.45, d=12))


def test_gen_continuous_moments():
    spec = ScenarioSpec(CONTINUOUS_TRIDIAG, n=200, d=10, rho=0.0,
                        target_error=0.05, seed=42)
    ds, z, model = gen_continuous(spec)
    delta = calibrate_delta(spec)
    assert ds.n == 200 and ds.d == 10
    assert list(model.omega) == [1] * 6 + [0] * 4
    assert sorted(np.bincount(z - 1)) == [100, 100]
    for k, sign in ((1, -1.0), (2, 1.0)):
        block = ds.X[z == k][:, :6]
        assert np.abs(block.mean(axis=0) - sign * delta).max() < 3.0 / np.sqrt(100)
    # rho = 0: off-diagonal sample correlations near zero
    c = np.corrcoef(ds.X[z == 1][:, :6], rowvar=False)
    assert np.abs(c[~np.eye(6, dtype=bool)]).max() < 3.0 / np.sqrt(100)


def test_gen_continuous_no_noise_columns():
    spec = ScenarioSpec(CONTINUOUS_TRIDIAG, n=50, d=6, target_error=0.05, seed=1)
    ds, _, model = gen_continuous(spec)
    assert model.omega.all()


def test_gen_mixed_structure():
    spec = ScenarioSpec(MIXED_INDEP, n=200, d=12, target_error=0.10, seed=7)
    ds, z, model = gen_mixed(spec)
    tags = [k.tag for k in ds.kinds]
    assert tags == ["cont"] * 2 + ["int"] * 2 + ["cat"] * 2 + \
        ["cont"] * 2 + ["int"] * 2 + ["cat"] * 2
    assert list(model.omega) == [1] * 6 + [0] * 6
    # class-1 binary frequency of level 2 is 0.3
    freq = (ds.X[z == 1][:, 4:6] == 2.0).mean()
    assert abs(freq - 0.3) < 3.0 * np.sqrt(0.21 / 200)


def test_gen_mixed_shape_validation():
    with pytest.raises(InvalidShape):
        ScenarioSpec(MIXED_INDEP, n=50, d=10, target_error=0.1)
    with pytest.raises(InvalidShape):
        ScenarioSpec(MIXED_INDEP, n=50, d=12, r=9, target_error=0.1)


def test_zeroed_offsets_leave_no_signal():
    par = _mixed_margins(0.0, p_offset=0.0)
    assert par["mu"][0] == par["mu"][1]
    assert par["lam"][0] == par["lam"][1]
    assert par["p2"][0] == par["p2"][1]
    rng = np.random.default_rng(0)
    z = rng.integers(1, 3, 500)
    assert abs(ari(z, rng.integers(1, 3, 500))) < 0.05


def test_generators_deterministic():
    spec = ScenarioSpec(MIXED_INDEP, n=60, d=12, target_error=0.10,
                        missing_rate=0.2, seed=9)
    a_ds, a_z, _ = generate(spec)
    b_ds, b_z, _ = generate(spec)
    obs = a_ds.mask
    assert np.array_equal(a_ds.X[obs], b_ds.X[obs])
    assert np.array_equal(a_ds.mask, b_ds.mask)
    assert np.array_equal(a_z, b_z)


def test_inject_mcar_counts_and_validity():
    spec = ScenarioSpec(MIXED_INDEP, n=200, d=12, target_error=0.10, seed=3)
    ds, _, _ = gen_mixed(spec)
    assert inject_mcar(ds, 0.0, seed=1) is ds
    masked = inject_mcar(ds, 0.2, seed=1)
    n_masked = int((~masked.mask).sum())
    total = 200 * 12
    assert abs(n_masked - 0.2 * total) < 3.0 * np.sqrt(total * 0.16)
    assert [k.tag for k in masked.kinds] == [k.tag for k in ds.kinds]
    assert masked.mask.any(axis=0).all()


def test_inject_mcar_never_kills_a_column():
    rng = np.random.default_rng(5)
    from mixsel import Dataset, VariableKind
    ds = Dataset(rng.normal(size=(10, 4)), [VariableKind.continuous()] * 4)
    masked = inject_mcar(ds, 0.9, seed=11)
    assert masked.mask.any(axis=0).all()


def test_mixed_log_ratio_equals_axis_sums():
    rng = np.random.default_rng(31)
    for delta in (1e-9, 0.4, 1.4062500000625, 2.99):
        xc = rng.standard_normal((2000, 2)) - delta
        xi = rng.poisson(3.0 - delta, size=(2000, 2)).astype(float)
        xb = rng.binomial(1, 0.3, size=(2000, 2)).astype(float)
        lam1, lam2 = 3.0 - delta, 3.0 + delta
        want = (2.0 * delta * xc).sum(axis=1)
        want += (xi * np.log(lam2 / lam1) - (lam2 - lam1)).sum(axis=1)
        want += (xb * np.log(0.7 / 0.3) + (1 - xb) * np.log(0.3 / 0.7)).sum(axis=1)
        assert np.array_equal(_mixed_log_ratio(xc, xi, xb, delta), want)


def test_ari_single_row_is_degenerate_agreement():
    assert ari([1], [1]) == 1.0
    assert ari([1], [2]) == 1.0


def test_generator_streams_fold_negative_seeds_like_the_cli():
    # nonnegative seeds keep the streams of the inline SeedSequence calls
    for seed, tag in ((0, 1), (12345, 2), (2**64 - 1, 4)):
        want = np.random.default_rng(np.random.SeedSequence(entropy=[seed, tag]))
        assert np.array_equal(seeded_rng(seed, tag).random(8), want.random(8))
    # a negative seed is folded to 64 bits instead of raising
    for family, d in ((MIXED_INDEP, 12), (CONTINUOUS_TRIDIAG, 8)):
        neg = generate(ScenarioSpec(family, n=40, d=d, missing_rate=0.1, seed=-1))
        pos = generate(ScenarioSpec(family, n=40, d=d, missing_rate=0.1, seed=2**64 - 1))
        assert np.array_equal(neg[0].X, pos[0].X, equal_nan=True)
        assert np.array_equal(neg[1], pos[1])


@pytest.mark.parametrize("delta", [0.3, 0.7, 1.0, 1.4, 2.0])
def test_exact_mixed_risk_matches_monte_carlo(delta):
    exact = _mixed_bayes_risk(delta)
    n_draws = 1_000_000
    se = np.sqrt(exact * (1.0 - exact) / n_draws)
    assert abs(_mixed_bayes_error(delta, n_draws, seed=2024) - exact) < 4.0 * se


@pytest.mark.parametrize("target, want", [(0.01, 1.3679628), (0.02, 1.1979153),
                                          (0.05, 0.9365441), (0.10, 0.6936620),
                                          (0.20, 0.3585579)])
def test_calibrate_delta_mixed_meets_target_exactly(target, want):
    delta = calibrate_delta(ScenarioSpec(MIXED_INDEP, target_error=target, d=12))
    assert _mixed_bayes_risk(delta) == pytest.approx(target, abs=1e-9)
    assert delta == pytest.approx(want, abs=1e-6)


def test_calibrate_delta_mixed_is_pure():
    import mixsel.simulate
    spec = ScenarioSpec(MIXED_INDEP, target_error=0.05, d=12)
    assert calibrate_delta(spec) == calibrate_delta(spec)
    cached = [name for name, obj in vars(mixsel.simulate).items()
              if hasattr(obj, "cache_clear")]
    assert cached == []
