"""Independent reference computations for the closed-form marginals.

These deliberately avoid the package's formulas: continuous and integer
marginals are computed by adaptive quadrature of the prior-times-likelihood
integrand, categorical marginals and the proportion factor by the sequential
predictive (urn) product. Intended for small inputs (n <= ~25). Below them,
the refit that the MICL moves' closed-form changes are checked against,
the cell-by-cell references for the vectorized EM kernels, the EM starts run
one after another, the MICL starts with one EM call each, the Monte-Carlo
Bayes risk of the mixed simulation design, and the cell-by-cell CSV reader
and row-by-row ``partition.csv`` writer that ``mixsel.io.read_csv`` and
``mixsel.cli`` are tested against.
"""
from __future__ import annotations

import csv
import math
from itertools import compress

import numpy as np
from scipy import integrate, optimize
from scipy.special import gammaln

from mixsel import em, micl
from mixsel.data import (CAT, CONT, INT, DataError, Dataset, Model, VariableKind, count_params,
                         map_partition)
from mixsel.densities import floor_probs, floor_rate, floor_sigma, normal_logpdf
from mixsel.util import derive_seed, seeded_rng

LOG_2PI = math.log(2.0 * math.pi)


def cont_marginal_quad(values, a, b, c, d) -> float:
    """log of the Gaussian-cell marginal: integrate the likelihood against
    sigma² ~ IG(a/2, b²/2), mu | sigma² ~ N(c, sigma²/d) over (mu, ln sigma²)."""
    x = np.asarray(values, dtype=float)
    n = len(x)
    if n == 0:
        return 0.0
    sx, sxx = float(x.sum()), float((x * x).sum())
    const = (0.5 * a * math.log(0.5 * b * b) - float(gammaln(0.5 * a))
             + 0.5 * math.log(d) - 0.5 * (n + 1) * LOG_2PI)

    def log_integrand(mu, v):
        s = math.exp(v)
        quad_term = (sxx - 2.0 * mu * sx + n * mu * mu
                     + d * (mu - c) * (mu - c) + b * b) / (2.0 * s)
        return const - 0.5 * (n + 1) * v - quad_term - (0.5 * a + 1.0) * v + v

    mu0 = (x.sum() + d * c) / (n + d)
    s0 = (b * b + float(((x - mu0) ** 2).sum())) / (a + n + 2.0)
    res = optimize.minimize(lambda p: -log_integrand(p[0], p[1]),
                            x0=[mu0, math.log(max(s0, 1e-12))],
                            method="Nelder-Mead",
                            options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000})
    mu_star, v_star = res.x
    peak = -res.fun

    # At fixed sigma² the mu-integrand is a Gaussian with variance s/(n+d)
    # centered at mu0, which gives (i) v-dependent mu-limits and (ii) an exact
    # per-v profile to clip the v-range where the mass lives.
    def v_profile(v):
        return log_integrand(mu0, v) + 0.5 * (LOG_2PI + v - math.log(n + d))

    grid = v_star + np.linspace(-50.0, 50.0 + 160.0 / (a + n), 400)
    prof = np.array([v_profile(v) for v in grid])
    live = grid[prof >= prof.max() - 38.0]
    lo_v, hi_v = live.min() - 0.5, live.max() + 0.5

    def mu_lims(v):
        half = 13.0 * math.sqrt(math.exp(v) / (n + d)) + 1e-6
        return mu0 - half, mu0 + half

    val, _ = integrate.dblquad(
        lambda mu, v: math.exp(log_integrand(mu, v) - peak),
        lo_v, hi_v,
        lambda v: mu_lims(v)[0], lambda v: mu_lims(v)[1],
        epsabs=1e-12, epsrel=1e-7)
    return peak + math.log(val)


def int_marginal_quad(values, a, b) -> float:
    """log of the Poisson-cell marginal: integrate against
    rate ~ Gamma(a, b) over ln rate."""
    x = np.asarray(values, dtype=float)
    n = len(x)
    if n == 0:
        return 0.0
    S = float(x.sum())
    lg = float(gammaln(x + 1.0).sum())

    def log_integrand(u):
        lam = math.exp(u)
        return (S * u - n * lam - lg
                + a * math.log(b) - gammaln(a) + (a - 1.0) * u - b * lam + u)

    u_star = math.log((S + a) / (n + b))
    peak = log_integrand(u_star)
    w = 1.0 / math.sqrt(S + a)
    span = max(16.0 * w, 1.0)
    val, _ = integrate.quad(lambda u: math.exp(log_integrand(u) - peak),
                            u_star - span, u_star + span,
                            epsabs=1e-12, epsrel=1e-10, limit=200)
    return peak + math.log(val)


def cat_marginal_urn(codes, m, a) -> float:
    """log of the multinomial-cell marginal via the sequential predictive
    product: p(x_t | x_<t) = (count + a) / (t - 1 + m a)."""
    counts = [0] * m
    out = 0.0
    for t, h in enumerate(codes):
        out += math.log(counts[h] + a) - math.log(t + m * a)
        counts[h] += 1
    return out


def proportions_urn(labels, g, u) -> float:
    """log of the component-count factor via the same urn product."""
    return cat_marginal_urn([int(z) - 1 for z in labels], g, u)


def marginal_oracle(values_by_class, kind_tag, hyper_tuple, m=0) -> float:
    """Per-column oracle: one factor per class (relevant) or one pooled factor
    (pass a single pooled group)."""
    total = 0.0
    for vals in values_by_class:
        if kind_tag == "cont":
            a, b, c, d = hyper_tuple
            total += cont_marginal_quad(vals, a, b, c, d)
        elif kind_tag == "int":
            a, b = hyper_tuple
            total += int_marginal_quad(vals, a, b)
        else:
            (a,) = hyper_tuple
            total += cat_marginal_urn([int(v) - 1 for v in vals], m, a)
    return total


def refit_moves(factor, S, a, x, base, *consts):
    """A factor's changes when a row with entries ``x`` (keys, B, J) joins
    each class, (B, g, J), and leaves its own class ``a``, (B, J): the
    factor refit at the class sums ``S`` (keys, g, J) plus or minus the
    entries, less the current factors ``base`` (g, J). The reference for
    ``mixsel.micl``'s closed-form ``Kind.moves``."""
    up = factor(*(s + v[:, None] for s, v in zip(S, x)), *consts) - base
    return up, factor(*(s[a] - v for s, v in zip(S, x)), *consts) - base[a]


class UnsupportedValue(ValueError):
    """Value outside the support of the declared variable kind."""


class EmptyWeight(ValueError):
    """All weights are zero."""


def poisson_logpmf(x, rate):
    return x * np.log(rate) - rate - gammaln(np.asarray(x, dtype=float) + 1.0)


def log_density(value: float, kind, block: np.ndarray) -> float:
    """Natural-log density (continuous) or mass (integer/categorical) of one
    cell under the parameter block ``Parameters.block`` returns.

    Raises UnsupportedValue when the value lies outside the kind's support.
    """
    if not np.isfinite(value):
        raise UnsupportedValue(f"value {value!r} is not finite")
    if kind.tag == CONT:
        mu, sigma = float(block[0]), float(block[1])
        return float(normal_logpdf(value, mu, sigma))
    if kind.tag == INT:
        if value < 0 or value != np.floor(value):
            raise UnsupportedValue(f"{value!r} is not a nonnegative integer")
        return float(poisson_logpmf(float(value), float(block[0])))
    if value < 1 or value > kind.levels or value != np.floor(value):
        raise UnsupportedValue(f"{value!r} is not a level in 1..{kind.levels}")
    return float(np.log(block[int(value) - 1]))


def weighted_mle(values: np.ndarray, weights: np.ndarray, kind) -> np.ndarray:
    """Weighted maximum-likelihood parameter block for one column subset.

    Only observed cells may be passed. The continuous variance uses the MLE
    divisor (the sum of weights); all outputs are floored as the EM floors.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    w = weights.sum()
    if w <= 0:
        raise EmptyWeight("sum of weights is zero")
    if kind.tag == CONT:
        mu = float((weights * values).sum() / w)
        var = float((weights * (values - mu) ** 2).sum() / w)
        return np.array([mu, float(floor_sigma(np.sqrt(max(var, 0.0))))])
    if kind.tag == INT:
        return np.array([float(floor_rate((weights * values).sum() / w))])
    counts = np.zeros(kind.levels)
    np.add.at(counts, values.astype(int) - 1, weights)
    return floor_probs(counts, np.ones(kind.levels, dtype=bool))


def column_loglik(dataset, j: int, rows, block: np.ndarray) -> float:
    """Sum of log-densities of the observed cells of column j over ``rows``."""
    rows = np.asarray(rows, dtype=np.intp)
    obs = rows[dataset.mask[rows, j]]
    kind = dataset.kinds[j]
    total = 0.0
    for i in obs:
        total += log_density(float(dataset.X[i, j]), kind, block)
    return total


class StartFailed(Exception):
    """An empty component or a variance spike ended a start's run."""


def sequential_em_starts(dataset, g, omega0, cfg, penalty_c):
    """The random starts of one fit of ``em.run_starts`` one after another,
    each on one-slot kernel calls: start s draws from
    ``seeded_rng(cfg.seed, s)``, is redrawn after a run that empties or
    spikes, up to ``em.MAX_REDRAWS`` times, and then discarded; if every
    start is discarded, one floored start that accepts spikes runs. Returns
    the kept starts as dicts in start order, the first best of them, and the
    number of failed runs."""
    packed, gs = dataset.packed(), np.array([g])

    def run(rng, floor):
        omega = omega0 if omega0 is not None else \
            rng.integers(0, 2, size=packed.d).astype(np.int8)
        tau, blocks = em._init_theta(packed, g, omega, rng)
        t, _ = em._e_kernel(packed, tau, gs, blocks)
        omega, trace = omega[None], []
        for _ in range(cfg.max_iterations):
            tau, blocks, omega, _, empty, spiky = em._m_slots(
                packed, t, gs, omega, floor, penalty_c)
            if not floor and (empty.any() or spiky.any()):
                raise StartFailed
            t, loglik = em._e_kernel(packed, tau, gs, blocks)
            penalty = 0.0 if penalty_c is None else \
                count_params(Model(g, omega[0]), dataset.kinds) * penalty_c
            trace.append(float(loglik[0]) - penalty)
            if len(trace) > 1 and abs(trace[-1] - trace[-2]) / (abs(trace[-2]) + 1.0) < \
                    cfg.rel_tolerance:
                break
        return {"trace": np.array(trace), "omega": omega[0], "labels": t.argmax(axis=0) + 1,
                "degenerate": bool(em._spikes(packed, blocks[1], omega, gs).any())}

    kept, failed = [], 0
    for s in range(cfg.n_starts):
        rng = seeded_rng(cfg.seed, s)
        for _ in range(em.MAX_REDRAWS + 1):
            try:
                kept.append({"start": s, **run(rng, False)})
                break
            except StartFailed:
                failed += 1
    if not kept:
        kept = [{"start": cfg.n_starts, **run(seeded_rng(cfg.seed, cfg.n_starts), True)}]
    best = max(kept, key=lambda start: start["trace"][-1])
    return kept, best, failed


def sequential_run_micl(dataset, g, hyper, config):
    """The reference for ``micl.run_micl`` at g >= 2: each start draws omega
    from ``seeded_rng(seed, 91, s)`` and fits it by its own one-start
    ``run_em`` under ``EmConfig(derive_seed(seed, 92, s), **START_EM)``,
    then alternates partition and model steps on the same stream until a
    settled partition step is followed by a model step that keeps omega.
    Returns (Model, 1-based labels, value of a state rebuilt at the result)."""
    tables = micl.MarginalTables(dataset, hyper)
    best = None
    for s in range(config.n_starts):
        rng = seeded_rng(config.seed, 91, s)
        omega0 = rng.integers(0, 2, size=dataset.d).astype(np.int8)
        fit = em.run_em(dataset, Model(g, omega0),
                        em.EmConfig(derive_seed(config.seed, 92, s), **micl.START_EM))
        state = micl.MiclState(tables, Model(g, omega0), map_partition(fit.fuzzy))
        for _ in range(micl.MAX_ALTERNATIONS):
            omega = state.model.omega
            settled = micl.partition_step(state, rng=rng)
            state.model_update()
            if settled and (state.model.omega == omega).all():
                break
        if best is None or state.log_icl > best[2]:
            best = (state.model, state.z, state.log_icl)
    model, z, _ = best
    return model, z, micl.MiclState(tables, model, z).log_icl


def mixed_log_ratio(xc, xi, xb, delta):
    """Log density ratio (component 2 over component 1) of the six separating
    margins of the mixed design."""
    lam1, lam2 = 3.0 - delta, 3.0 + delta
    log_lam, dlam = np.log(lam2 / lam1), lam2 - lam1
    log_hi, log_lo = np.log(0.7 / 0.3), np.log(0.3 / 0.7)
    lr = (2.0 * delta * xc).sum(axis=1)
    lr += (xi * log_lam - dlam).sum(axis=1)
    lr += (xb * log_hi + (1 - xb) * log_lo).sum(axis=1)
    return lr


def mixed_bayes_error(delta: float, n_draws: int, seed: int) -> float:
    """Monte-Carlo Bayes risk of the two-component mixed design: the
    reference against which ``simulate._mixed_bayes_risk`` is tested."""
    rng = seeded_rng(seed)
    half = n_draws // 2
    lam1, lam2 = 3.0 - delta, 3.0 + delta
    xc = rng.standard_normal((half, 2)) - delta
    xi = rng.poisson(lam1, size=(half, 2)).astype(float)
    xb = rng.binomial(1, 0.3, size=(half, 2)).astype(float)
    err1 = np.mean(mixed_log_ratio(xc, xi, xb, delta) > 0)
    xc = rng.standard_normal((half, 2)) + delta
    xi = rng.poisson(lam2, size=(half, 2)).astype(float)
    xb = rng.binomial(1, 0.7, size=(half, 2)).astype(float)
    err2 = np.mean(mixed_log_ratio(xc, xi, xb, delta) <= 0)
    return 0.5 * float(err1 + err2)


_MISSING = frozenset(("", "NA"))


def _numeric(raw: str):
    try:
        return float(raw)
    except ValueError:
        return None


def infer_kind_per_cell(values: list[str]) -> str:
    """Kind of a column from its observed raw strings, one cell at a time."""
    floats = []
    for raw in values:
        x = _numeric(raw)
        if x is None:
            return CAT
        floats.append((raw, x))
    if any(("." in raw) or ("e" in raw) or ("E" in raw) for raw, _ in floats):
        return CONT
    if any(x != np.floor(x) or x < 0 for _, x in floats):
        return CONT
    return INT


def read_csv_per_cell(path: str, schema: dict | None = None):
    """The reference for ``mixsel.io.read_csv``: every cell stripped, tested
    for a missing token and parsed on its own."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader
                if row and not (row[0].startswith("#") and len(row) == 1)]
    if len(rows) < 2:
        raise DataError(f"{path}: need a header row and at least one data row")
    (_, header), *body = rows
    names = [c.strip() for c in header]
    d = len(names)
    seen = set()
    for name in names:
        if name in seen:
            raise DataError(f"{path}: duplicate column name {name!r}")
        seen.add(name)
    for line, row in body:
        if len(row) != d:
            raise DataError(f"{path}:{line}: expected {d} fields, got {len(row)}")
    kinds: list[VariableKind] = []
    info = {"kinds": {}, "source": {}, "categorical_levels": {}}
    X = np.empty((len(body), d))
    mask = np.empty((len(body), d), dtype=bool)  # only NA or "" is missing, not "nan"
    cat_labels = {}
    columns = zip(*(row for _, row in body))
    for j, (name, col) in enumerate(zip(names, columns)):
        col = [c.strip() for c in col]
        present = [raw not in _MISSING for raw in col]
        observed = list(compress(col, present))
        declared = schema.get(name) if schema else None
        if schema is not None and declared is None:
            raise DataError(f"{path}: column {name!r} missing from the schema")
        tag, levels = declared if declared else (infer_kind_per_cell(observed), None)
        info["source"][name] = "declared" if declared else "inferred"
        if tag == CAT:
            if levels is None:
                levels = sorted(set(observed))
            if len(levels) < 2:
                raise DataError(f"{path}: categorical column {name!r} needs >= 2 levels")
            kinds.append(VariableKind.categorical(len(levels)))
            cat_labels[j] = list(levels)
            info["categorical_levels"][name] = list(levels)
            parse = {lab: float(h + 1) for h, lab in enumerate(levels)}.get
            problem = "is not a declared level"
        else:
            kinds.append(VariableKind.continuous() if tag == CONT
                         else VariableKind.integer())
            parse, problem = _numeric, "is not numeric"
        values = [parse(raw) if ok else np.nan for raw, ok in zip(col, present)]
        if None in values:
            i = values.index(None)
            raise DataError(f"{path}: cell ({i + 1}, {name!r}) = {col[i]!r} {problem}")
        X[:, j] = values
        mask[:, j] = present
        info["kinds"][name] = tag
    ds = Dataset(X, kinds, names=names, mask=mask, cat_labels=cat_labels)
    return ds, info


def write_partition_per_row(path: str, mid: str, partition, fuzzy) -> None:
    """The reference for ``partition.csv``: one ``writerow`` per row, each
    responsibility formatted from its numpy scalar."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# manifest_id: {mid}\n")
        w = csv.writer(fh)
        w.writerow(["row", "label"] + [f"t_{k + 1}" for k in range(fuzzy.shape[1])])
        for i in range(len(partition)):
            w.writerow([i + 1, int(partition[i])]
                       + [repr(float(t)) for t in fuzzy[i]])
