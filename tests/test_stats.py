import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from scipy.special import stdtr
from hypothesis import given, settings, strategies as st

from ancestral.core import Polarity, Weight, canonicalize, condsets_up_to
from ancestral.simulate import random_linear_model, sample_data
from ancestral.stats import (
    CiTestConfig,
    Dataset,
    DatasetMismatchError,
    DegenerateColumnError,
    ParseError,
    ShapeError,
    SingularError,
    ancestral_inputs_from_intervention,
    ci_inputs_from_data,
    clamp_correlation,
    fisher_z_pvalue,
    frequentist_weight,
    load_dataset,
    partial_correlation,
    welch_t_test,
    write_dataset,
    _partial_corr_recursion,
    _t_two_sided_tail,
)


def make_dataset(values, names=None):
    values = np.asarray(values, dtype=np.float64)
    names = tuple(names or (f"X{i}" for i in range(values.shape[1])))
    return Dataset(names, values)


# -- loading --------------------------------------------------------------------

def test_load_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    d = make_dataset(rng.normal(size=(50, 3)))
    path = tmp_path / "d.csv"
    write_dataset(d, path)
    loaded = load_dataset(path)
    assert loaded.names == d.names
    assert np.array_equal(loaded.values, d.values)


def test_load_skips_comments(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("# header comment\na,b\n1,2\n# mid comment\n3,4\n")
    d = load_dataset(path)
    assert d.n_samples == 2 and d.names == ("a", "b")


def test_load_rejects_constant_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1,5\n2,5\n3,5\n")
    with pytest.raises(DegenerateColumnError):
        load_dataset(path)


def test_load_reports_ragged_line(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ParseError, match="line 3"):
        load_dataset(path)


def test_load_rejects_single_row(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ShapeError):
        load_dataset(path)


# -- partial correlation -----------------------------------------------------------

def test_duplicated_column_correlates_fully():
    rng = np.random.default_rng(1)
    col = rng.normal(size=120)
    d = make_dataset(np.column_stack([col, col, rng.normal(size=120)]))
    assert partial_correlation(d, 0, 1, 0) == pytest.approx(1.0, abs=1e-12)


def test_first_order_recursion_frozen_value():
    corr = np.array([[1.0, 0.8, 0.5], [0.8, 1.0, 0.5], [0.5, 0.5, 1.0]])
    got = _partial_corr_recursion(corr, 0, 1, (2,), {})
    assert got == pytest.approx(0.55 / 0.75, abs=1e-12)


def test_methods_agree_to_1e10():
    rng = np.random.default_rng(2)
    for _ in range(20):
        vals = rng.normal(size=(400, 5))
        vals[:, 1] += 0.6 * vals[:, 0]
        vals[:, 2] += 0.5 * vals[:, 1] - 0.2 * vals[:, 0]
        vals[:, 4] += 0.3 * vals[:, 2]
        d = make_dataset(vals)
        x, y = rng.choice(5, size=2, replace=False)
        others = [v for v in range(5) if v not in (x, y)]
        cond = 0
        for v in rng.choice(others, size=rng.integers(0, 3), replace=False):
            cond |= 1 << int(v)
        a = partial_correlation(d, int(x), int(y), cond)
        b = partial_correlation(d, int(x), int(y), cond, method="recursion")
        assert a == pytest.approx(b, abs=1e-10)


def test_affine_invariance():
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(300, 4))
    vals[:, 2] += 0.7 * vals[:, 0]
    d1 = make_dataset(vals)
    scaled = vals.copy()
    scaled[:, 0] = 3.5 * scaled[:, 0] - 11.0
    scaled[:, 2] = 0.25 * scaled[:, 2] + 4.0
    d2 = make_dataset(scaled)
    r1 = partial_correlation(d1, 0, 2, 0b10)
    r2 = partial_correlation(d2, 0, 2, 0b10)
    assert r1 == pytest.approx(r2, abs=1e-10)


def test_collinear_conditioning_is_singular():
    rng = np.random.default_rng(4)
    base = rng.normal(size=200)
    vals = np.column_stack(
        [rng.normal(size=200), rng.normal(size=200), base, 2.0 * base]
    )
    d = make_dataset(vals)
    with pytest.raises(SingularError):
        partial_correlation(d, 0, 1, 0b1100)


@pytest.mark.parametrize("seed", range(4))
def test_residuals_of_a_determined_endpoint_vanish(seed):
    """Column 1 is a copy of the +-1 column 0, so given column 1 the
    residuals of column 0 are rounding noise: both methods raise instead of
    correlating the noise, and a constant endpoint raises too."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(64, 4))
    values[:, 0] = rng.choice([-1.0, 1.0], size=64)
    values[:, 1] = values[:, 0]
    d = make_dataset(values)
    for method in ("residuals", "recursion"):
        with pytest.raises(SingularError, match="vanished"):
            partial_correlation(d, 0, 2, 0b10, method=method)
    assert abs(partial_correlation(d, 0, 2, 0)) < 0.5
    values[:, 3] = 3.7
    with pytest.raises(SingularError, match="vanished"):
        partial_correlation(make_dataset(values), 3, 2, 0)


def test_independent_columns_have_small_correlation():
    rng = np.random.default_rng(5)
    d = make_dataset(rng.normal(size=(10000, 2)))
    assert abs(partial_correlation(d, 0, 1, 0)) < 0.05


def test_sample_guard():
    d = make_dataset(np.random.default_rng(0).normal(size=(5, 4)))
    with pytest.raises(ValueError):
        partial_correlation(d, 0, 1, 0b1100)


# -- Fisher z ------------------------------------------------------------------------

def test_zero_correlation_gives_p_one():
    assert fisher_z_pvalue(0.0, 100, 0) == 1.0


def test_frozen_example_value():
    # z = atanh(0.5), stat = sqrt(96) z ~ 5.382, two-sided normal tail
    assert fisher_z_pvalue(0.5, 100, 1) == pytest.approx(7.363e-8, rel=1e-3)


def test_monotone_in_correlation_magnitude():
    ps = [fisher_z_pvalue(r, 200, 1) for r in (0.05, 0.1, 0.2, 0.4, 0.6)]
    assert all(a > b for a, b in zip(ps, ps[1:]))


@given(st.floats(-0.999, 0.999), st.integers(10, 5000), st.integers(0, 4))
@settings(max_examples=100)
def test_symmetric_in_sign(r, n_samples, order):
    assert fisher_z_pvalue(r, n_samples, order) == fisher_z_pvalue(-r, n_samples, order)


def test_agrees_with_reference_normal_tail():
    rng = random.Random(6)
    for _ in range(100):
        r = rng.uniform(-0.95, 0.95)
        n_samples = rng.randint(10, 2000)
        order = rng.randint(0, 3)
        stat = math.sqrt(n_samples - order - 3) * math.atanh(r)
        want = 2.0 * scipy.stats.norm.sf(abs(stat))
        got = fisher_z_pvalue(r, n_samples, order)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-300)


def test_guards():
    with pytest.raises(ValueError):
        fisher_z_pvalue(1.0, 100, 0)
    with pytest.raises(ValueError):
        fisher_z_pvalue(0.5, 4, 1)


# -- frequentist weights ----------------------------------------------------------------

def test_weight_below_threshold_is_dependent():
    polarity, w = frequentist_weight(0.01, 0.05)
    assert polarity is Polarity.DEPENDENT
    assert w == Weight.finite(1609)


def test_weight_at_threshold_is_zero():
    polarity, w = frequentist_weight(0.05, 0.05)
    assert polarity is Polarity.INDEPENDENT
    assert w == Weight.finite(0)


def test_weight_of_p_one():
    polarity, w = frequentist_weight(1.0, 0.05)
    assert polarity is Polarity.INDEPENDENT
    assert w == Weight.finite(2996)


def test_weight_clamps_underflowed_p():
    _, w = frequentist_weight(0.0, 0.05)
    assert w == Weight.finite(round(1000 * (700 + math.log(0.05))))


@given(st.floats(1e-12, 1 - 1e-12), st.floats(0.01, 0.2))
@settings(max_examples=100)
def test_weight_shrinks_toward_threshold(p, alpha):
    _, w = frequentist_weight(p, alpha)
    mid = math.sqrt(p * alpha)
    _, w_mid = frequentist_weight(min(max(mid, 1e-300), 1.0), alpha)
    assert w_mid.millis <= w.millis or p == alpha


# -- statement construction ------------------------------------------------------------

def test_statement_count_formula():
    rng = np.random.default_rng(7)
    for n, c in ((3, 1), (4, 0), (4, 2), (5, 1)):
        d = make_dataset(rng.normal(size=(60, n)))
        inputs = ci_inputs_from_data(d, CiTestConfig(alpha=0.05, max_order=c))
        expected = (n * (n - 1) // 2) * sum(math.comb(n - 2, k) for k in range(c + 1))
        assert len(inputs) == expected
        keys = {(w.statement.x, w.statement.y, w.statement.cond) for w in inputs}
        assert len(keys) == len(inputs)


def test_statement_weights_match_pipeline():
    rng = np.random.default_rng(8)
    d = make_dataset(rng.normal(size=(80, 3)))
    cfg = CiTestConfig(alpha=0.05, max_order=0)
    inputs = ci_inputs_from_data(d, cfg)
    for item in inputs:
        r = clamp_correlation(partial_correlation(d, item.statement.x, item.statement.y, 0))
        p = fisher_z_pvalue(r, 80, 0)
        polarity, w = frequentist_weight(p, 0.05)
        assert item.statement.polarity is polarity
        assert item.weight == w


def test_statements_match_the_residual_chain():
    """The kernel reads every test off one correlation matrix through the
    shared recursion memo; each outcome must equal, statement for
    statement and weight for weight, the per-test chain partial_correlation
    (residuals) -> fisher_z_pvalue -> frequentist_weight."""
    checked = 0
    for n in (4, 5, 6):
        for order in range(min(3, n - 2) + 1):
            for n_samples in (30, 200, 2000):
                for seed in (0, 1):
                    scm = random_linear_model(n, 1, 0.4, seed=[seed, n, order])
                    d = sample_data(scm, n_samples, seed=[seed, n, n_samples])
                    cfg = CiTestConfig(alpha=(0.01, 0.05, 0.2)[seed + order % 2], max_order=order)
                    expected = []
                    for x in range(n):
                        for y in range(x + 1, n):
                            others = [v for v in range(n) if v not in (x, y)]
                            for cond in condsets_up_to(others, order):
                                r = clamp_correlation(partial_correlation(d, x, y, cond))
                                p = fisher_z_pvalue(r, n_samples, cond.bit_count())
                                polarity, w = frequentist_weight(p, cfg.alpha)
                                expected.append((canonicalize(x, y, cond, polarity), w))
                    got = ci_inputs_from_data(d, cfg)
                    assert [(i.statement, i.weight) for i in got] == expected
                    checked += len(expected)
    assert checked > 4000


def _test_triples(n, max_order):
    for x in range(n):
        for y in range(x + 1, n):
            for cond in condsets_up_to([v for v in range(n) if v not in (x, y)], max_order):
                yield x, y, cond


def _run_with_skips(values, max_order):
    """Statements, skipped entries and the warnings of one call."""
    skipped = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        inputs = ci_inputs_from_data(make_dataset(values), CiTestConfig(max_order=max_order), skipped)
    for (x, y, cond, message), warning in zip(skipped, caught):
        assert warning.category is UserWarning
        assert str(warning.message) == f"skipping test ({x}, {y} | {cond:#x}): {message}"
    assert len(caught) == len(skipped)
    assert len(inputs) + len(skipped) == len(list(_test_triples(values.shape[1], max_order)))
    return inputs, skipped


COLLINEAR = "conditioning columns are collinear"
VANISHED = "residual variance vanished under conditioning"


@pytest.mark.parametrize("constant", [0.0, 3.7])
def test_ci_skips_a_constant_column(constant):
    """A constant column in a directly built Dataset: every test that
    conditions on it is skipped as collinear, every other test with it as
    an endpoint as vanished residual variance."""
    values = np.random.default_rng(0).normal(size=(64, 4))
    values[:, 2] = constant
    _, skipped = _run_with_skips(values, 2)
    assert skipped == [
        (x, y, cond, COLLINEAR if cond >> 2 & 1 else VANISHED)
        for x, y, cond in _test_triples(4, 2)
        if cond >> 2 & 1 or 2 in (x, y)
    ]


def test_ci_skips_a_duplicated_column():
    """Column 1 is an exact copy of column 0. Conditioning on both is
    collinear; an endpoint given its copy has no residual variance; the
    pair itself correlates fully, so its statements are dependent at the
    floor weight."""
    values = np.random.default_rng(1).normal(size=(64, 4))
    values[:, 1] = values[:, 0]
    inputs, skipped = _run_with_skips(values, 2)
    assert skipped == [
        (x, y, cond, COLLINEAR if cond & 0b11 == 0b11 else VANISHED)
        for x, y, cond in _test_triples(4, 2)
        if cond & 0b11 == 0b11 or (x in (0, 1) and cond >> (1 - x) & 1)
    ]
    pair = [i for i in inputs if (i.statement.x, i.statement.y) == (0, 1)]
    assert [i.statement.cond for i in pair] == [0, 0b100, 0b1000, 0b1100]
    floor = frequentist_weight(0.0, 0.05)
    assert all((i.statement.polarity, i.weight) == floor for i in pair)


def test_ci_skips_a_collinear_conditioning_pair():
    """Column 3 is -2 times column 2: at order 2 the set {2, 3} is
    collinear, and an endpoint given the other column of the pair has no
    residual variance, whatever else is conditioned on."""
    values = np.random.default_rng(2).normal(size=(64, 5))
    values[:, 3] = -2.0 * values[:, 2]
    _, skipped = _run_with_skips(values, 2)
    assert (0, 1, 0b1100, COLLINEAR) in skipped
    assert skipped == [
        (x, y, cond, COLLINEAR if cond & 0b1100 == 0b1100 else VANISHED)
        for x, y, cond in _test_triples(5, 2)
        if cond & 0b1100 == 0b1100
        or ({x, y} & {2, 3} and cond & 0b1100)
    ]


def test_ci_skips_tests_on_a_non_finite_column():
    """A NaN cell in a directly built Dataset makes its column's
    correlations NaN: every test with it as an endpoint is skipped as
    vanished residual variance, every test conditioning on it by the rank
    check, and no other test is touched."""
    values = np.random.default_rng(3).normal(size=(64, 4))
    values[5, 1] = np.nan
    _, skipped = _run_with_skips(values, 1)
    assert [s[:3] for s in skipped] == [
        t for t in _test_triples(4, 1) if 1 in t[:2] or t[2] >> 1 & 1
    ]
    assert all(msg == VANISHED for x, y, cond, msg in skipped if not cond >> 1 & 1)


@pytest.mark.parametrize("scale", [1e-100, 1e200])
def test_ci_rank_check_is_scale_free(scale):
    """A 50-row chain X0 -> X1 -> X2 scaled by 1e-100 or by 1e200 gives the
    unscaled data's six statements up to order 1 and skips none: the rank
    check of a conditioning column does not see its scale."""
    rng = np.random.default_rng(5)
    values = np.cumsum(rng.normal(size=(50, 3)), axis=1)
    want, skipped = _run_with_skips(values, 1)
    assert len(want) == 6 and skipped == []
    assert _run_with_skips(values * scale, 1) == (want, [])


def test_ci_one_column_gives_no_statements():
    """A single variable forms no pair: no statement, skip or warning."""
    inputs, skipped = _run_with_skips(np.random.default_rng(9).normal(size=(20, 1)), 1)
    assert inputs == [] and skipped == []


# -- two-sample tests --------------------------------------------------------------------

def test_identical_samples_p_one():
    rng = np.random.default_rng(9)
    a = rng.normal(size=50)
    assert welch_t_test(a, a) == pytest.approx(1.0)


def test_separated_means_tiny_p():
    rng = np.random.default_rng(10)
    a = rng.normal(0, 1, 1000)
    b = rng.normal(5, 1, 1000)
    assert welch_t_test(a, b) < 1e-10


def test_symmetric_in_samples():
    rng = np.random.default_rng(11)
    a = rng.normal(0, 1, 80)
    b = rng.normal(0.4, 2, 120)
    assert welch_t_test(a, b) == pytest.approx(welch_t_test(b, a), rel=1e-12)


def test_welch_agrees_with_scipy():
    rng = np.random.default_rng(12)
    for _ in range(20):
        a = rng.normal(0, 1, rng.integers(5, 200))
        b = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 3), rng.integers(5, 200))
        want = scipy.stats.ttest_ind(a, b, equal_var=False).pvalue
        assert welch_t_test(a, b) == pytest.approx(want, rel=1e-9)


def test_welch_guards():
    with pytest.raises(ValueError):
        welch_t_test(np.array([1.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        welch_t_test(np.array([1.0, 1.0]), np.array([2.0, 2.0]))
    # the variances overflow, so the degrees of freedom are not finite
    rng = np.random.default_rng(17)
    with pytest.raises(ValueError, match="not finite"):
        welch_t_test(rng.normal(0, 1e200, 50), rng.normal(0, 1e200, 50))


def test_welch_is_scale_free_where_squared_variances_underflow():
    """Scaled by 1e-100, the squared variances of the means fall below the
    smallest double; the degrees of freedom come from the variances
    rescaled by the larger one, so the p-value is the unscaled one."""
    rng = np.random.default_rng(16)
    a, b = rng.normal(0, 1, 50), rng.normal(0.3, 1.5, 60)
    assert (a.var(ddof=1) * 1e-200 / 50) ** 2 == 0.0
    assert welch_t_test(a * 1e-100, b * 1e-100) == pytest.approx(welch_t_test(a, b), rel=1e-12)


# -- the Student-t tail of the Welch test ---------------------------------------------------

def test_t_tail_closed_forms():
    """dof 1 is the Cauchy tail and dof 2 has an algebraic one."""
    for t in (1e-8, 1e-3, 0.1, 0.5, 1.0, 1.96, 3.0, 5.0, 20.0, 100.0):
        for sign in (1.0, -1.0):
            assert _t_two_sided_tail(1.0, sign * t) == pytest.approx(
                1.0 - 2.0 / math.pi * math.atan(t), rel=1e-12
            )
            assert _t_two_sided_tail(2.0, sign * t) == pytest.approx(
                1.0 - t / math.sqrt(2.0 + t * t), rel=1e-12
            )


def test_t_tail_is_exactly_one_at_zero():
    for dof in (0.5, 1.0, 2.7, 10.0, 998.0, 1e6):
        assert _t_two_sided_tail(dof, 0.0) == 1.0
        assert _t_two_sided_tail(dof, -0.0) == 1.0


def test_t_tail_decreases_in_abs_t():
    ts = [float(t) for t in np.geomspace(1e-6, 60.0, 400)]
    for dof in (1.0, 1.5, 2.7, 10.0, 99.5, 998.0, 5000.0):
        tails = [_t_two_sided_tail(dof, t) for t in ts]
        assert all(0.0 <= q <= 1.0 for q in tails)
        assert all(a >= b for a, b in zip(tails, tails[1:]))
        assert all(a > b for a, b in zip(tails, tails[1:]) if b > 1e-300)


def test_t_tail_extreme_and_invalid_arguments():
    assert _t_two_sided_tail(3.0, math.inf) == 0.0
    # t * t overflows; the dof 1 tail is 2 / (pi |t|)
    assert _t_two_sided_tail(1.0, 1e200) == pytest.approx(2.0 / math.pi * 1e-200, rel=1e-12)
    for dof, t in ((3.0, math.nan), (math.nan, 1.0), (0.0, 1.0), (-1.0, 1.0), (math.inf, 1.0)):
        assert math.isnan(_t_two_sided_tail(dof, t))


def test_t_tail_agrees_with_stdtr():
    """scipy's tail is the reference, except at dof 1 and |t| = 1e-8, where
    stdtr itself misses the Cauchy closed form by 3.1e-9 relative; the
    closed-form test covers that point."""
    for dof in (1.0, 1.5, 2.7, 10.0, 99.5, 998.0, 5000.0):
        for t in (1e-8, 0.5, 1.96, 5.0, 20.0, 40.0):
            want = 2.0 * float(stdtr(dof, -t))
            if want > 1e-300 and (dof, t) != (1.0, 1e-8):
                assert _t_two_sided_tail(dof, t) == pytest.approx(want, rel=1e-10)
                assert _t_two_sided_tail(dof, -t) == pytest.approx(want, rel=1e-10)


def test_t_tail_accuracy_just_below_the_fraction_switch():
    """From dof 1e5 to 1e7, just below x = (a+1)/(a+5/2), where the
    continued fraction's first terms cancel, the relative error against
    stdtr (itself within 3e-14 there) stays within the documented
    dof * 1e-16."""
    for dof in np.geomspace(1e5, 1e7, 9):
        dof = float(dof)
        a = 0.5 * dof
        switch = (a + 1.0) / (a + 2.5)
        for gap in (1e-12, 1e-9, 1e-6, 1e-4):
            x = switch * (1.0 - gap)
            t = math.sqrt(dof * (1.0 - x) / x)
            assert dof / (dof + t * t) < switch
            want = 2.0 * float(stdtr(dof, -t))
            assert _t_two_sided_tail(dof, t) == pytest.approx(want, rel=dof * 1e-16), (dof, gap)


def test_t_tail_weights_match_stdtr():
    """Polarity and milli weight agree with the scipy tail on seeded draws,
    among them tails below exp(LOG_P_FLOOR), where the floor clamps both."""
    rng = random.Random(15)
    clamped = 0
    for _ in range(20000):
        dof = math.exp(rng.uniform(0.0, math.log(5000.0)))
        t = math.exp(rng.uniform(math.log(1e-4), math.log(200.0)))
        want = 2.0 * float(stdtr(dof, -t))
        clamped += want < math.exp(-700.0)
        for alpha in (0.01, 0.05):
            assert frequentist_weight(_t_two_sided_tail(dof, t), alpha) == frequentist_weight(
                want, alpha
            ), (dof, t, alpha)
    assert clamped > 100


def test_package_imports_no_scipy():
    """scipy is a test dependency only: importing the package pulls none of it in."""
    code = (
        "import sys\n"
        "import ancestral, ancestral.cli, ancestral.stats, ancestral.simulate, ancestral.evaluation\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# -- intervention statements ----------------------------------------------------------------

def test_identical_datasets_give_notcauses_at_2996():
    rng = np.random.default_rng(13)
    d = make_dataset(rng.normal(size=(60, 4)))
    cfg = CiTestConfig(alpha=0.05)
    out = ancestral_inputs_from_intervention(d, d, 1, cfg)
    assert len(out) == 3
    for item in out:
        assert item.statement.cause == 1
        assert item.statement.effect != 1
        assert item.weight == Weight.finite(2996)
        assert item.statement.polarity.name == "NOT_CAUSES"


def test_shifted_target_detected_as_cause():
    rng = np.random.default_rng(14)
    obs = make_dataset(rng.normal(size=(300, 3)))
    shifted = obs.values.copy()
    shifted[:, 2] += 3.0
    interv = make_dataset(shifted)
    out = ancestral_inputs_from_intervention(obs, interv, 0, CiTestConfig())
    by_effect = {item.statement.effect: item for item in out}
    assert by_effect[2].statement.polarity.name == "CAUSES"
    assert by_effect[1].statement.polarity.name == "NOT_CAUSES"


def test_mismatched_variables_rejected():
    rng = np.random.default_rng(15)
    a = make_dataset(rng.normal(size=(30, 2)), names=("a", "b"))
    b = make_dataset(rng.normal(size=(30, 2)), names=("a", "c"))
    with pytest.raises(DatasetMismatchError):
        ancestral_inputs_from_intervention(a, b, 0, CiTestConfig())
