"""Statistical front-end: turn observational and interventional data into
weighted input statements.

Conditional independence is tested with partial correlations and the
Fisher z transform; two-sided p-values become weights via
``round(1000 * |ln p - ln alpha|)``, dependent below the threshold and
independent above it. :func:`ci_inputs_from_data` computes one
correlation matrix per dataset and reads every test's partial correlation
off it with the first-order recursion (Anderson, *An Introduction to
Multivariate Statistical Analysis*, section 2.5), memoised across the
tests, so each order-k coefficient reuses the order-(k-1) ones that other
tests already computed. The residual method of :func:`partial_correlation`
(regress and correlate the residuals) is the independent reference it is
tested against. Ancestral statements come from a two-sided Welch test
comparing each variable's interventional sample to its observational one.
Its p-value is the two-sided Student-t tail, the regularized incomplete
beta function ``I_x(dof/2, 1/2)`` with ``x = dof/(dof + t^2)``, evaluated by
its continued fraction with the modified Lentz method (Press et al.,
*Numerical Recipes*, 3rd ed., section 6.4) and a prefactor whose large
terms cancel analytically (DiDonato & Morris, ACM TOMS 18(3), 1992).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ancestral.core import (
    Polarity,
    Weight,
    WeightedInput,
    canonicalize,
    causes,
    condset_members,
    condsets_up_to,
    not_causes,
)

CLAMP_EPS = 1e-12
# ln p is clamped from below at this value, so a p-value of 0 gets a finite weight
LOG_P_FLOOR = -700.0


class ParseError(ValueError):
    pass


class ShapeError(ValueError):
    pass


class DegenerateColumnError(ValueError):
    pass


class SingularError(ValueError):
    """The conditioning covariance is numerically singular."""


class DatasetMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class Dataset:
    names: tuple[str, ...]
    values: np.ndarray  # N x n, rows are samples

    def __post_init__(self) -> None:
        if self.values.ndim != 2 or self.values.shape[1] != len(self.names):
            raise ShapeError("values must be an N x n matrix matching the names")

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_vars(self) -> int:
        return self.values.shape[1]

    def column(self, i: int) -> np.ndarray:
        return self.values[:, i]

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable name {name!r}") from None


@dataclass(frozen=True)
class CiTestConfig:
    alpha: float = 0.05
    max_order: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        if self.max_order < 0:
            raise ValueError("max_order must be nonnegative")


def load_dataset(path) -> Dataset:
    """Parse a CSV dataset: a header of variable names, then float rows.

    Lines starting with '#' are ignored. Non-finite cells (``nan``,
    ``inf``) and columns of constants are rejected so every downstream
    correlation is well defined.
    """
    names: Optional[tuple[str, ...]] = None
    rows: list[list[float]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            cells = [c.strip() for c in line.split(",")]
            if names is None:
                names = tuple(cells)
                if len(set(names)) != len(names):
                    raise ParseError(f"line {lineno}: duplicate variable names")
                for name in names:
                    if not name or any(ch.isspace() for ch in name) or set(name) & {"|", ":", "#"}:
                        raise ParseError(f"line {lineno}: invalid variable name {name!r}")
                continue
            if len(cells) != len(names):
                raise ParseError(
                    f"line {lineno}: expected {len(names)} values, found {len(cells)}"
                )
            try:
                row = [float(c) for c in cells]
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
            for name, cell, value in zip(names, cells, row):
                if not math.isfinite(value):
                    raise ParseError(f"line {lineno}: column {name!r}: non-finite value {cell!r}")
            rows.append(row)
    if names is None:
        raise ParseError("empty dataset: no header line")
    if len(rows) < 2:
        raise ShapeError("a dataset needs at least two sample rows")
    values = np.asarray(rows, dtype=np.float64)
    for i, name in enumerate(names):
        if np.ptp(values[:, i]) == 0.0:
            raise DegenerateColumnError(f"column {name!r} has zero variance")
    return Dataset(names, values)


def write_dataset(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(dataset.names) + "\n")
        for row in dataset.values:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


# ---------------------------------------------------------------------------
# Partial correlation


def partial_correlation(
    data: Dataset, x: int, y: int, cond: int, method: str = "residuals"
) -> float:
    """Sample partial correlation of columns x and y given the columns in
    ``cond``, unclamped. ``method`` is 'residuals' (regress both endpoints
    on the conditioning block plus intercept and correlate the residuals)
    or 'recursion' (first-order recursion over the correlation matrix);
    the two agree to float precision on nondegenerate data. The residual
    method is the reference; :func:`ci_inputs_from_data` reads every test
    of a dataset off one correlation matrix with the memoised recursion."""
    if x == y:
        raise ValueError("x and y must differ")
    if (cond >> x) & 1 or (cond >> y) & 1:
        raise ValueError("conditioning set must exclude x and y")
    ks = condset_members(cond)
    if data.n_samples <= len(ks) + 3:
        raise ValueError("need more than |cond| + 3 samples")
    if method == "residuals":
        return _partial_corr_residuals(data.values, x, y, ks)
    if method == "recursion":
        cols = (x, y) + ks
        corr = _correlation_matrix(data.values[:, cols])
        r = _partial_corr_recursion(corr, 0, 1, tuple(range(2, 2 + len(ks))), {})
        if not math.isfinite(r):
            raise SingularError(_VANISHED)
        return r
    raise ValueError(f"unknown method {method!r}")


_COLLINEAR = "conditioning columns are collinear"
_VANISHED = "residual variance vanished under conditioning"
# A residual sum of squares at most this share of its column's centred sum
# of squares is rounding noise: an endpoint that is an exact linear function
# of the conditioning columns leaves ~1e-31 of it.
_VANISHED_SHARE = 1e-20


def _design(values: np.ndarray, ks: Sequence[int]) -> np.ndarray:
    """The conditioning block plus an intercept column; raises
    :class:`SingularError` when its columns are collinear. Each conditioning
    column is scaled by the power of two that brings its largest magnitude
    into [0.5, 1), as in :func:`_correlation_matrix`, so the rank check
    does not depend on the data's scale."""
    block = values[:, list(ks)]
    _, exponent = np.frexp(np.max(np.abs(block), axis=0))
    design = np.column_stack([np.ones(values.shape[0]), np.ldexp(block, -exponent)])
    if np.linalg.matrix_rank(design) < design.shape[1]:
        raise SingularError(_COLLINEAR)
    return design


def _residuals(design: np.ndarray, col: np.ndarray) -> np.ndarray:
    """The residuals of ``col`` regressed on ``design``; raises
    :class:`SingularError` when they are rounding noise: their sum of
    squares is at most ``_VANISHED_SHARE`` of the column's centred one, the
    column is constant, or either is not finite."""
    b, *_ = np.linalg.lstsq(design, col, rcond=None)
    r = col - design @ b
    centred = col - col.mean()
    if np.ptp(col) == 0.0 or not float(r @ r) > _VANISHED_SHARE * float(centred @ centred):
        raise SingularError(_VANISHED)
    return r


def _partial_corr_residuals(values: np.ndarray, x: int, y: int, ks: Sequence[int]) -> float:
    design = _design(values, ks)
    rx = _residuals(design, values[:, x])
    ry = _residuals(design, values[:, y])
    return float(rx @ ry) / math.sqrt(float(rx @ rx) * float(ry @ ry))


def _correlation_matrix(values: np.ndarray) -> np.ndarray:
    """Pearson correlations of the columns. Each entry is the covariance
    over the square root of the product of the two variances, so columns
    that are exact copies correlate exactly 1. Each column is first scaled
    by the power of two that brings its largest magnitude into [0.5, 1),
    which is exact, so tiny or huge columns neither underflow nor overflow
    in the products. A constant column, whose centred values need not come
    out exactly zero, gets variance 0; it and a non-finite column give
    non-finite entries, without a warning."""
    _, exponent = np.frexp(np.max(np.abs(values), axis=0))
    values = np.ldexp(values, -exponent)
    cov = np.atleast_2d(np.cov(values, rowvar=False))
    var = np.where(np.ptp(values, axis=0) == 0.0, 0.0, np.diag(cov))
    with np.errstate(divide="ignore", invalid="ignore"):
        return cov / np.sqrt(np.outer(var, var))


def _partial_corr_recursion(corr, i: int, j: int, ks: tuple[int, ...], memo: dict) -> float:
    """Partial correlation of i and j given ``ks`` (ascending) off the
    correlation matrix: r_ij.K = (r_ij.R - r_iz.R r_jz.R) /
    sqrt((1 - r_iz.R^2)(1 - r_jz.R^2)) with z the last member of K and R
    the rest. Every coefficient of order 1 and up is kept in ``memo``. NaN
    when a denominator is not positive, as when i or j is a linear function
    of z given R, or when a coefficient it needs is NaN."""
    if not ks:
        return float(corr[i, j])
    key = (min(i, j), max(i, j), ks)
    if key in memo:
        return memo[key]
    z = ks[-1]
    rest = ks[:-1]
    r_ij = _partial_corr_recursion(corr, i, j, rest, memo)
    r_iz = _partial_corr_recursion(corr, i, z, rest, memo)
    r_jz = _partial_corr_recursion(corr, j, z, rest, memo)
    denom_sq = (1.0 - r_iz * r_iz) * (1.0 - r_jz * r_jz)
    out = (r_ij - r_iz * r_jz) / math.sqrt(denom_sq) if denom_sq > 0.0 else math.nan
    memo[key] = out
    return out


def clamp_correlation(r: float) -> float:
    return max(-1.0 + CLAMP_EPS, min(1.0 - CLAMP_EPS, r))


def fisher_z_pvalue(r: float, n_samples: int, order: int) -> float:
    """Two-sided p-value for zero partial correlation of the given order:
    sqrt(N - order - 3) * atanh(r) against the standard normal."""
    if not abs(r) < 1:
        raise ValueError("|r| must be strictly below 1")
    dof = n_samples - order - 3
    if dof <= 0:
        raise ValueError("need N - order - 3 > 0")
    stat = math.sqrt(dof) * math.atanh(r)
    return math.erfc(abs(stat) / math.sqrt(2.0))


def frequentist_weight(p: float, alpha: float) -> tuple[Polarity, Weight]:
    """Polarity and weight for a test outcome: dependent when p < alpha,
    weight round(1000 * |ln p - ln alpha|) with ln p clamped from below at
    ``LOG_P_FLOOR``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    polarity = Polarity.DEPENDENT if p < alpha else Polarity.INDEPENDENT
    log_p = LOG_P_FLOOR if p == 0.0 else max(math.log(p), LOG_P_FLOOR)
    millis = round(1000.0 * abs(log_p - math.log(alpha)))
    return polarity, Weight.finite(millis)


def ci_inputs_from_data(
    data: Dataset,
    config: CiTestConfig,
    skipped: Optional[list] = None,
) -> list[WeightedInput]:
    """One weighted statement per canonical triple up to the configured
    order. Triples whose test fails are skipped with a warning (and
    recorded in ``skipped`` when given) rather than aborting the run.

    The correlation matrix is computed once, and every partial correlation
    is read off it with :func:`_partial_corr_recursion` through one memo
    shared by all tests. Each distinct conditioning set gets one rank
    check of its columns plus an intercept, as the residual method makes
    per test; a collinear set skips its tests, and so does a partial
    correlation that is not finite (a constant column, or an endpoint that
    its conditioning set determines)."""
    n = data.n_vars
    if data.n_samples <= config.max_order + 3:
        raise ShapeError("need more than max_order + 3 samples")
    values = data.values
    corr = _correlation_matrix(values)
    memo: dict = {}
    rank_errors = {
        cond: _rank_error(values, condset_members(cond))
        for cond in condsets_up_to(range(n), min(config.max_order, n - 2))
    }
    out: list[WeightedInput] = []
    for x in range(n):
        for y in range(x + 1, n):
            others = [v for v in range(n) if v != x and v != y]
            for cond in condsets_up_to(others, config.max_order):
                ks = condset_members(cond)
                try:
                    if rank_errors[cond] is not None:
                        raise rank_errors[cond]
                    r = _partial_corr_recursion(corr, x, y, ks, memo)
                    if not math.isfinite(r):
                        raise SingularError(_VANISHED)
                    p = fisher_z_pvalue(clamp_correlation(r), data.n_samples, len(ks))
                except ValueError as exc:
                    if skipped is not None:
                        skipped.append((x, y, cond, str(exc)))
                    warnings.warn(
                        f"skipping test ({x}, {y} | {cond:#x}): {exc}", stacklevel=2
                    )
                    continue
                polarity, weight = frequentist_weight(p, config.alpha)
                out.append(WeightedInput(canonicalize(x, y, cond, polarity), weight))
    return out


def _rank_error(values: np.ndarray, ks: Sequence[int]) -> Optional[ValueError]:
    """What the rank check of :func:`_design` raises for ``ks``, or None.
    ``numpy.linalg.LinAlgError`` is a ValueError."""
    try:
        _design(values, ks)
    except ValueError as exc:
        return exc
    return None


# ---------------------------------------------------------------------------
# Two-sample tests for interventions


def welch_t_test(sample_a: np.ndarray, sample_b: np.ndarray) -> float:
    """Two-sided Welch t-test p-value with Welch-Satterthwaite degrees of
    freedom. The dof is computed from the two variances of the means
    rescaled by the larger one, so their squares cannot underflow; a dof
    that is still not finite (a variance overflowed) raises ValueError."""
    a = np.asarray(sample_a, dtype=np.float64)
    b = np.asarray(sample_b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ValueError("both samples need at least two observations")
    with np.errstate(over="ignore"):
        va = float(a.var(ddof=1))
        vb = float(b.var(ddof=1))
    if va == 0.0 and vb == 0.0:
        raise ValueError("both samples are degenerate")
    sa, sb = va / a.size, vb / b.size
    se = math.sqrt(sa + sb)
    t = (float(a.mean()) - float(b.mean())) / se
    scale = max(sa, sb)
    ra, rb = sa / scale, sb / scale
    dof = (ra + rb) ** 2 / (ra * ra / (a.size - 1) + rb * rb / (b.size - 1))
    if not math.isfinite(dof):
        raise ValueError("Welch-Satterthwaite degrees of freedom are not finite")
    return _t_two_sided_tail(dof, t)


def _t_two_sided_tail(dof: float, t: float) -> float:
    """P(|T| >= |t|) for Student's t with ``dof`` degrees of freedom, which
    is I_x(a, 1/2) with a = dof/2 and x = dof/(dof + t^2). From x = (a+1)/(a
    + 5/2) on, where the continued fraction stops converging fast, it uses
    I_x(a, b) = 1 - I_{1-x}(b, a), with 1 - x = t^2/(dof + t^2) computed
    directly. Exactly 1.0 at t = 0; NaN for a NaN t or a dof that is not
    positive and finite.

    The relative error against 40-digit references is below 3e-13 up to
    dof 5000. Beyond, it grows at most as dof * 1e-16 just below the switch
    (8.4e-10 at dof 1e7), where the fraction's first terms cancel."""
    if math.isnan(t) or not 0.0 < dof < math.inf:
        return math.nan
    t2 = t * t
    if t2 == 0.0:
        return 1.0
    a = 0.5 * dof
    if t2 == math.inf:
        # |t| > 1.3e154: x is below 1e-308 dof, so 1 - x is 1 in doubles
        log_x, x, y = math.log(dof) - 2.0 * math.log(abs(t)), 0.0, 1.0
    else:
        log_x, x, y = -math.log1p(t2 / dof), dof / (dof + t2), t2 / (dof + t2)
    front = math.exp(a * log_x + 0.5 * math.log(y) - _log_beta_half(a))
    if x < (a + 1.0) / (a + 2.5):
        return front * _beta_fraction(a, 0.5, x) / a
    return 1.0 - 2.0 * front * _beta_fraction(0.5, a, y)


# Stirling's series of ln Gamma(z) - ((z - 1/2) ln z - z + ln(2 pi)/2):
# B_2k / (2k (2k - 1)) z^(1 - 2k) for k = 1..5; the next term is below
# 2e-14 from z = 10 on.
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0)


def _stirling_remainder(z: float) -> float:
    w = 1.0 / (z * z)
    out = 0.0
    for coeff in reversed(_STIRLING):
        out = out * w + coeff
    return out / z


def _log_beta_half(a: float) -> float:
    """ln B(a, 1/2). Below a = 10 from ``math.lgamma``; above it from
    Stirling's series with the a ln a terms of ln Gamma(a) and ln Gamma(a
    + 1/2) cancelled by hand, as rounding ln Gamma(a) alone would cost the
    tail ~a * 1e-16 of relative accuracy (7.8e-12 at dof 2000)."""
    if a < 10.0:
        return math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)
    return (
        0.5 * math.log(math.pi / a)
        + 0.5
        - a * math.log1p(0.5 / a)
        + _stirling_remainder(a)
        - _stirling_remainder(a + 0.5)
    )


_FRACTION_EPS = 1e-15
_FRACTION_TINY = 1e-300
_FRACTION_MAX_TERMS = 1000


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) / (x^a (1-x)^b / (a B(a, b))),
    by the modified Lentz method. It converges fast for x < (a+1)/(a+b+2):
    the t tails take at most 78 terms on a fine grid of dof up to 1e9."""
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    if abs(d) < _FRACTION_TINY:
        d = _FRACTION_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _FRACTION_MAX_TERMS):
        am = a + 2 * m
        for step in (
            m * (b - m) * x / ((am - 1.0) * am),
            -(a + m) * (a + b + m) * x / (am * (am + 1.0)),
        ):
            d = 1.0 + step * d
            if abs(d) < _FRACTION_TINY:
                d = _FRACTION_TINY
            d = 1.0 / d
            c = 1.0 + step / c
            if abs(c) < _FRACTION_TINY:
                c = _FRACTION_TINY
            h *= d * c
        if abs(d * c - 1.0) < _FRACTION_EPS:
            return h
    raise ArithmeticError(f"incomplete beta fraction did not converge at a={a}, b={b}, x={x}")


def ancestral_inputs_from_intervention(
    obs: Dataset,
    interv: Dataset,
    target: int,
    config: CiTestConfig,
) -> list[WeightedInput]:
    """Weighted ancestral statements from one intervention: for every other
    variable, test whether its interventional distribution differs from the
    observational one; a significant change yields causes(target, y)."""
    if obs.names != interv.names:
        raise DatasetMismatchError("observational and interventional variables differ")
    if not 0 <= target < obs.n_vars:
        raise ValueError("target index out of range")
    out: list[WeightedInput] = []
    for y in range(obs.n_vars):
        if y == target:
            continue
        p = welch_t_test(obs.column(y), interv.column(y))
        polarity, weight = frequentist_weight(p, config.alpha)
        if polarity is Polarity.DEPENDENT:
            out.append(causes(target, y, weight))
        else:
            out.append(not_causes(target, y, weight))
    return out
