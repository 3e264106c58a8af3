"""End-to-end acceptance gates.

Each test prints one pass/fail line on the real stdout (bypassing capture)
and asserts its stated tolerance. Several tests are long-running benchmark
reproductions; the whole module is sized for a small multicore machine.
"""
import itertools
import sys
import time

import numpy as np
import pytest

import oracles
from mixsel import (Dataset, EmConfig, Hyperparameters, Model,
                    ScenarioSpec, VariableKind, ari, bic, count_params,
                    e_step, inject_mcar, log_integrated_complete,
                    log_marginal_variable, m_step, observed_loglik,
                    run_campaign, run_em, run_micl, run_penalized_em)
from mixsel.simulate import CONTINUOUS_TRIDIAG, MIXED_INDEP
from mixsel.util import derive_seed, parallel_map

THREADS = 2


def _emit(cid: str, ok: bool, detail: str) -> bool:
    line = f"[acceptance {cid}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.__stdout__, flush=True)
    return ok


# ---------------------------------------------------------------------------
# 1. closed-form marginals vs independent oracles
# ---------------------------------------------------------------------------

def _c1_column(args):
    kind_tag, idx = args
    rng = np.random.default_rng(derive_seed(8101, idx))
    n = int(rng.integers(1, 21))
    m = int(rng.integers(2, 5)) if kind_tag == "cat" else 0
    if kind_tag == "cont":
        vals = rng.normal(rng.uniform(-3, 3), 10 ** rng.uniform(-1, 1), n)
        kind = VariableKind.continuous()
    elif kind_tag == "int":
        vals = rng.poisson(10 ** rng.uniform(-0.5, 1.2), n).astype(float)
        kind = VariableKind.integer()
    else:
        vals = rng.integers(1, m + 1, n).astype(float)
        kind = VariableKind.categorical(m)
    X = vals[:, None].copy()
    if idx % 2 == 0 and n >= 3:  # half the columns carry missing cells
        drop = rng.random(n) < 0.3
        drop[int(rng.integers(n))] = False
        X[drop, 0] = np.nan
    ds = Dataset(X, [kind])
    h = Hyperparameters.default(ds)
    if kind_tag == "cont":
        tup = (float(h.cont_a[0]), float(h.cont_b[0]), float(h.cont_c[0]),
               float(h.cont_d[0]))
    elif kind_tag == "int":
        tup = (float(h.int_a[0]), float(h.int_b[0]))
    else:
        tup = (float(h.cat_a[0]),)
    worst = 0.0
    checks = 0
    for g in (1, 2, 3):
        z = np.random.default_rng(derive_seed(8102, idx, g)).integers(1, g + 1, ds.n)
        for omega_j in (0, 1):
            got = log_marginal_variable(ds, 0, z, g, omega_j, h)
            if omega_j:
                groups = [np.flatnonzero(ds.mask[:, 0] & (z == k + 1))
                          for k in range(g)]
            else:
                groups = [np.flatnonzero(ds.mask[:, 0])]
            want = oracles.marginal_oracle([ds.X[rows, 0] for rows in groups],
                                           kind_tag, tup, m=m)
            worst = max(worst, abs(got - want) / max(abs(want), 1e-12))
            checks += 1
    return worst, checks


def test_criterion_01_marginal_oracle_equivalence():
    t0 = time.time()
    jobs = [(tag, 1000 * t + i) for t, tag in enumerate(("cont", "int", "cat"))
            for i in range(200)]
    results = parallel_map(_c1_column, jobs, threads=THREADS)
    worst = max(r[0] for r in results)
    checks = sum(r[1] for r in results)
    elapsed = time.time() - t0
    ok = worst <= 1e-4 and elapsed < 120
    _emit("1 marginal-oracle", ok,
          f"{checks} checks, worst rel err {worst:.2e} (tol 1e-4), {elapsed:.0f}s (< 120s)")
    assert worst <= 1e-4
    assert elapsed < 120


# ---------------------------------------------------------------------------
# 2. missing-data machinery reduces exactly to the complete-data formulas
# ---------------------------------------------------------------------------

def _random_mixed(idx, n=30, missing=0.0):
    rng = np.random.default_rng(derive_seed(8200, idx))
    z = rng.integers(0, 2, n)
    X = np.column_stack([
        rng.normal(np.where(z, 1.0, -1.0), 1.0, n),
        rng.poisson(3.0, n),
        1 + rng.binomial(1, np.where(z, 0.7, 0.3)),
        rng.normal(size=n),
    ]).astype(float)
    kinds = [VariableKind.continuous(), VariableKind.integer(),
             VariableKind.categorical(2), VariableKind.continuous()]
    ds = Dataset(X, kinds)
    if missing:
        ds = inject_mcar(ds, missing, derive_seed(8201, idx))
    return ds


def test_criterion_02_missing_data_reduction():
    t0 = time.time()
    for idx in range(50):
        ds_plain = _random_mixed(idx)
        ds_masked = Dataset(ds_plain.X, ds_plain.kinds,
                            mask=np.ones_like(ds_plain.mask))
        model = Model(2, [1, 1, 0, 1])
        cfg = EmConfig(seed=derive_seed(8202, idx), n_starts=2, max_iterations=60)
        a = run_em(ds_plain, model, cfg)
        b = run_em(ds_masked, model, cfg)
        assert a.loglik == b.loglik and a.objective == b.objective
        assert np.array_equal(a.fuzzy, b.fuzzy)
        assert np.array_equal(a.theta.mu, b.theta.mu)
        assert np.array_equal(a.theta.sigma, b.theta.sigma)
        assert np.array_equal(a.theta.rate, b.theta.rate)
        pa = run_penalized_em(ds_plain, 2, 1.7, cfg)
        pb = run_penalized_em(ds_masked, 2, 1.7, cfg)
        assert pa.objective == pb.objective
        assert np.array_equal(pa.model.omega, pb.model.omega)
        ha, hb = Hyperparameters.default(ds_plain), Hyperparameters.default(ds_masked)
        zz = np.random.default_rng(idx).integers(1, 3, ds_plain.n)
        assert log_integrated_complete(ds_plain, zz, model, ha) == \
            log_integrated_complete(ds_masked, zz, model, hb)
        ma, _, va = run_micl(ds_plain, 2, ha, EmConfig(seed=derive_seed(8203, idx), n_starts=2))
        mb, _, vb = run_micl(ds_masked, 2, hb, EmConfig(seed=derive_seed(8203, idx), n_starts=2))
        assert va == vb and np.array_equal(ma.omega, mb.omega)

        # genuinely missing cells: the masked-column marginal must equal the
        # complete-data formula applied to the observed row subset
        dsm = _random_mixed(idx, missing=0.25)
        hm = Hyperparameters.default(dsm)
        zm = np.random.default_rng(idx + 1).integers(1, 3, dsm.n)
        for j in range(dsm.d):
            rows = np.flatnonzero(dsm.mask[:, j])
            sub = Dataset(dsm.X[rows][:, [j]], [dsm.kinds[j]])
            hs = Hyperparameters.default(sub)
            for omega_j in (0, 1):
                full = log_marginal_variable(dsm, j, zm, 2, omega_j, hm)
                red = log_marginal_variable(sub, 0, zm[rows], 2, omega_j, hs)
                assert full == pytest.approx(red, abs=1e-10)
    _emit("2 missing-data-reduction", True,
          f"50 datasets bit-identical + subset reduction, {time.time()-t0:.0f}s")


# ---------------------------------------------------------------------------
# 3. EM monotonicity over 500 seeded runs
# ---------------------------------------------------------------------------

def _c3_run(idx):
    rng = np.random.default_rng(derive_seed(8300, idx))
    n = int(rng.integers(30, 81))
    kinds, cols = [], []
    z = rng.integers(0, 2, n)
    for _ in range(int(rng.integers(2, 6))):
        tag = rng.choice(["cont", "int", "cat"])
        sep = rng.random() < 0.6
        if tag == "cont":
            mu = rng.uniform(0.0, 2.0) if sep else 0.0
            cols.append(rng.normal(np.where(z, mu, -mu), 1.0, n))
            kinds.append(VariableKind.continuous())
        elif tag == "int":
            lam = np.where(z, rng.uniform(3, 7), 2.0) if sep else np.full(n, 3.0)
            cols.append(rng.poisson(lam))
            kinds.append(VariableKind.integer())
        else:
            p = np.where(z, 0.75, 0.25) if sep else np.full(n, 0.5)
            cols.append(1 + rng.binomial(1, p))
            kinds.append(VariableKind.categorical(2))
    ds = Dataset(np.column_stack(cols).astype(float), kinds)
    rate = float(rng.choice([0.0, 0.1, 0.2]))
    if rate:
        ds = inject_mcar(ds, rate, derive_seed(8301, idx))
    g = int(rng.integers(1, 4))
    cfg = EmConfig(seed=derive_seed(8302, idx), n_starts=2, max_iterations=300,
                   rel_tolerance=1e-7)
    if idx % 2 == 0:
        omega = rng.integers(0, 2, ds.d)
        res = run_em(ds, Model(g, omega), cfg)
    else:
        res = run_penalized_em(ds, g, 0.5 * np.log(n), cfg)
    worst = 0.0
    for trace in res.traces:
        if len(trace) > 1:
            worst = min(worst, float(np.diff(trace).min()))
    return worst


def test_criterion_03_em_monotonicity():
    t0 = time.time()
    worst = min(parallel_map(_c3_run, list(range(500)), threads=THREADS))
    ok = worst >= -1e-8
    _emit("3 em-monotonicity", ok,
          f"500 runs, worst per-iteration decrease {worst:.2e} (tol -1e-8), "
          f"{time.time()-t0:.0f}s")
    assert worst >= -1e-8


# ---------------------------------------------------------------------------
# 4. penalized EM matches exhaustive enumeration over all relevance vectors
# ---------------------------------------------------------------------------

def _c4_instance(idx):
    rng = np.random.default_rng(derive_seed(8400, idx))
    n, d = 60, 6
    kinds, cols = [], []
    z = np.repeat([0, 1], n // 2)
    # at least two separating columns: with a single weak column the BIC
    # argmax at n = 60 is often a tiny spurious-association basin, and the
    # comparison would measure start-sampling luck instead of selection
    n_rel = int(rng.integers(2, 4))
    rel = rng.choice(d, n_rel, replace=False)
    for j in range(d):
        tag = rng.choice(["cont", "int", "cat"])
        sep = j in rel
        if tag == "cont":
            mu = rng.uniform(1.4, 2.6) if sep else 0.0
            cols.append(rng.normal(np.where(z, mu, -mu) if sep else 0.0, 1.0, n))
            kinds.append(VariableKind.continuous())
        elif tag == "int":
            lam = np.where(z, rng.uniform(5.0, 8.0), 2.0) if sep else np.full(n, 3.0)
            cols.append(rng.poisson(lam))
            kinds.append(VariableKind.integer())
        else:
            p = np.where(z, 0.82, 0.18) if sep else np.full(n, 0.5)
            cols.append(1 + rng.binomial(1, p))
            kinds.append(VariableKind.categorical(2))
    ds = Dataset(np.column_stack(cols).astype(float), kinds)
    if idx % 3 == 0:
        ds = inject_mcar(ds, 0.1, derive_seed(8401, idx))

    # exhaustive oracle: coarse scan of all 64 relevance vectors, then a
    # tight-tolerance polish of the leaders; degenerate (spike-only) fits
    # carry no usable maximum-likelihood value and are excluded
    scores = []
    for bits in range(64):
        omega = np.array([(bits >> j) & 1 for j in range(d)], dtype=np.int8)
        res = run_em(ds, Model(2, omega), EmConfig(
            seed=derive_seed(8402, idx, bits), n_starts=5,
            rel_tolerance=1e-7, max_iterations=500))
        if res.degenerate:
            continue
        scores.append((bic(res.loglik, count_params(Model(2, omega), ds.kinds), n),
                       bits))
    scores.sort(reverse=True)
    best = -np.inf
    for _, bits in scores[:4]:
        omega = np.array([(bits >> j) & 1 for j in range(d)], dtype=np.int8)
        res = run_em(ds, Model(2, omega), EmConfig(
            seed=derive_seed(8402, idx, bits), n_starts=6,
            rel_tolerance=1e-11, max_iterations=2500))
        if not res.degenerate:
            best = max(best, bic(res.loglik, count_params(Model(2, omega), ds.kinds), n))

    pen = run_penalized_em(ds, 2, 0.5 * np.log(n), EmConfig(
        seed=derive_seed(8403, idx), n_starts=50,
        rel_tolerance=1e-11, max_iterations=2500))
    return float(pen.objective - best)


def test_criterion_04_bruteforce_selection_equivalence():
    t0 = time.time()
    diffs = parallel_map(_c4_instance, list(range(100)), threads=THREADS)
    hits = sum(d >= -1e-6 for d in diffs)
    elapsed = time.time() - t0
    ok = hits >= 95 and elapsed < 600
    _emit("4 bruteforce-bic", ok,
          f"{hits}/100 within 1e-6 of the enumerated optimum (need >= 95), "
          f"worst gap {min(diffs):.2e}, {elapsed:.0f}s (< 600s)")
    assert hits >= 95
    assert elapsed < 600


# ---------------------------------------------------------------------------
# 5. MICL partition optimum vs enumeration of all partitions
# ---------------------------------------------------------------------------

def _c5_instance(idx):
    rng = np.random.default_rng(derive_seed(8500, idx))
    n = 8
    d = int(rng.integers(1, 4))
    kinds, cols = [], []
    z = rng.integers(0, 2, n)
    for _ in range(d):
        tag = rng.choice(["cont", "int", "cat"])
        sep = rng.random() < 0.7
        if tag == "cont":
            mu = rng.uniform(0.5, 2.5) if sep else 0.0
            cols.append(rng.normal(np.where(z, mu, -mu), 1.0, n))
            kinds.append(VariableKind.continuous())
        elif tag == "int":
            lam = np.where(z, rng.uniform(4, 8), 1.5) if sep else np.full(n, 3.0)
            cols.append(rng.poisson(lam))
            kinds.append(VariableKind.integer())
        else:
            p = np.where(z, 0.8, 0.2) if sep else np.full(n, 0.5)
            cols.append(1 + rng.binomial(1, p))
            kinds.append(VariableKind.categorical(2))
    ds = Dataset(np.column_stack(cols).astype(float), kinds)
    if idx % 4 == 0:
        ds = inject_mcar(ds, 0.15, derive_seed(8501, idx))
    hyper = Hyperparameters.default(ds)
    model, z_star, value = run_micl(ds, 2, hyper,
                                    EmConfig(seed=derive_seed(8502, idx), n_starts=10))
    best = -np.inf
    for assign in itertools.product([1, 2], repeat=n):
        best = max(best, log_integrated_complete(ds, np.array(assign), model, hyper))
    if value >= best - 1e-9:
        return 1, True
    is_local = True
    for i in range(n):
        for k in (1, 2):
            if k != z_star[i]:
                zz = z_star.copy()
                zz[i] = k
                if log_integrated_complete(ds, zz, model, hyper) > value + 1e-9:
                    is_local = False
    return 0, is_local


def test_criterion_05_micl_partition_oracle():
    t0 = time.time()
    results = parallel_map(_c5_instance, list(range(100)), threads=THREADS)
    hits = sum(r[0] for r in results)
    escapes_local = all(r[1] for r in results if r[0] == 0)
    ok = hits >= 95 and escapes_local
    _emit("5 micl-partition-oracle", ok,
          f"{hits}/100 global optima (need >= 95), all escapes local maxima: "
          f"{escapes_local}, {time.time()-t0:.0f}s")
    assert hits >= 95
    assert escapes_local


# ---------------------------------------------------------------------------
# 6. continuous benchmark reproduction (rho = 0)
# ---------------------------------------------------------------------------

def test_criterion_06_continuous_benchmark():
    t0 = time.time()
    spec = ScenarioSpec(CONTINUOUS_TRIDIAG, n=200, d=10, rho=0.0,
                        target_error=0.05, seed=101)
    _, sum_a = run_campaign(spec, ["bic", "micl"], replicates=20,
                            gmax=3, starts=20, threads=THREADS)
    spec = ScenarioSpec(CONTINUOUS_TRIDIAG, n=200, d=100, rho=0.0,
                        target_error=0.05, seed=606)
    _, sum_b = run_campaign(spec, ["bic", "bic-noselect"], replicates=20,
                            gmax=3, starts=20, threads=THREADS)
    elapsed = time.time() - t0
    checks = {
        "d10 bic ARI ~0.78": abs(sum_a["bic"]["ari"] - 0.78) <= 0.10,
        "d10 micl ARI ~0.78": abs(sum_a["micl"]["ari"] - 0.78) <= 0.10,
        "d10 bic g ~2.0": abs(sum_a["bic"]["g"] - 2.0) <= 0.2,
        "d10 micl g ~2.0": abs(sum_a["micl"]["g"] - 2.0) <= 0.2,
        "d100 bic ARI ~0.77": abs(sum_b["bic"]["ari"] - 0.77) <= 0.10,
        "d100 noselect ARI <= 0.10": sum_b["bic-noselect"]["ari"] <= 0.10,
        "d100 bic rel ~0.06": abs(sum_b["bic"]["rel_rate"] - 0.06) <= 0.03,
        "runtime < 30 min": elapsed < 1800,
    }
    ok = all(checks.values())
    _emit("6 table1-continuous", ok,
          f"d10 ARI bic/micl {sum_a['bic']['ari']:.2f}/{sum_a['micl']['ari']:.2f} "
          f"g {sum_a['bic']['g']:.2f}/{sum_a['micl']['g']:.2f}; "
          f"d100 bic ARI {sum_b['bic']['ari']:.2f} rel {sum_b['bic']['rel_rate']:.3f} "
          f"noselect ARI {sum_b['bic-noselect']['ari']:.2f}; {elapsed:.0f}s")
    assert ok, {k: v for k, v in checks.items() if not v}


# ---------------------------------------------------------------------------
# 7. mixed benchmark with missing cells (5% error, 20% missing, d = 12)
# ---------------------------------------------------------------------------

def test_criterion_07_mixed_benchmark():
    t0 = time.time()
    spec = ScenarioSpec(MIXED_INDEP, n=200, d=12, target_error=0.05,
                        missing_rate=0.2, seed=707)
    _, summary = run_campaign(spec, ["bic", "micl"], replicates=20,
                              gmax=3, starts=20, threads=THREADS)
    elapsed = time.time() - t0
    checks = {
        "bic ARI ~0.69": abs(summary["bic"]["ari"] - 0.69) <= 0.10,
        "bic g ~2.0": abs(summary["bic"]["g"] - 2.0) <= 0.2,
        "bic rel ~0.50": abs(summary["bic"]["rel_rate"] - 0.50) <= 0.10,
        "micl ARI ~0.68": abs(summary["micl"]["ari"] - 0.68) <= 0.10,
    }
    ok = all(checks.values())
    _emit("7 table3-mixed", ok,
          f"bic ARI {summary['bic']['ari']:.2f} g {summary['bic']['g']:.2f} "
          f"rel {summary['bic']['rel_rate']:.2f}; micl ARI "
          f"{summary['micl']['ari']:.2f}; {elapsed:.0f}s")
    assert ok, {k: v for k, v in checks.items() if not v}


# ---------------------------------------------------------------------------
# 8. selection beats no-selection at 20% missing for every d (10% error)
# ---------------------------------------------------------------------------

def test_criterion_08_selection_beats_noselection():
    t0 = time.time()
    margins = {}
    for d in (12, 24, 48):
        spec = ScenarioSpec(MIXED_INDEP, n=200, d=d, target_error=0.10,
                            missing_rate=0.2, seed=808)
        _, summary = run_campaign(spec, ["bic", "bic-noselect"], replicates=20,
                                  gmax=3, starts=20, threads=THREADS)
        margins[d] = (summary["bic"]["ari"], summary["bic-noselect"]["ari"])
    ok = all(sel > nosel for sel, nosel in margins.values())
    _emit("8 table2-trend", ok,
          "; ".join(f"d={d}: {sel:.2f} vs {nosel:.2f}"
                    for d, (sel, nosel) in margins.items())
          + f"; {time.time()-t0:.0f}s")
    assert ok, margins


# ---------------------------------------------------------------------------
# 9. adjusted Rand index unit suite
# ---------------------------------------------------------------------------

def test_criterion_09_ari_suite():
    t0 = time.time()
    z = np.array([1, 2, 1, 3, 2])
    assert ari(z, z) == 1.0
    assert abs(ari([1, 1, 2, 2], [1, 2, 1, 2]) - (-0.5)) <= 1e-12
    assert abs(ari([1, 1, 2, 2], [1, 1, 1, 1]) - 0.0) <= 1e-12
    rng = np.random.default_rng(909)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 60))
        a = rng.integers(1, 5, n)
        b = rng.integers(1, 5, n)
        perm = rng.permutation(4) + 1
        worst = max(worst, abs(ari(a, b) - ari(perm[a - 1], b)))
        worst = max(worst, abs(ari(a, b) - ari(b, a)))
    ok = worst <= 1e-12
    _emit("9 ari-suite", ok,
          f"examples exact, 1000 permutation checks, worst dev {worst:.1e}, "
          f"{time.time()-t0:.0f}s")
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# 10. performance envelope at n = 200, d = 100
# ---------------------------------------------------------------------------

def test_criterion_10_performance_envelope():
    from mixsel import select_model
    spec = ScenarioSpec(CONTINUOUS_TRIDIAG, n=200, d=100, rho=0.0,
                        target_error=0.05, seed=1010)
    ds, _, _ = (lambda s: __import__("mixsel").generate(s))(spec)
    t0 = time.time()
    select_model(ds, "bic", 3, EmConfig(seed=42, n_starts=20))
    t_bic = time.time() - t0
    t0 = time.time()
    select_model(ds, "micl", 3, EmConfig(seed=42, n_starts=20))
    t_micl = time.time() - t0
    ok = t_bic < 60 and t_micl < 300
    _emit("10 performance", ok,
          f"bic sweep {t_bic:.1f}s (< 60s), micl sweep {t_micl:.1f}s (< 300s)")
    assert t_bic < 60
    assert t_micl < 300
