import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ancestral.cli import main
from ancestral.core import (
    Ancestry,
    AncStatement,
    Polarity,
    Weight,
    WeightedInput,
    canonicalize,
    causes,
    condset,
    not_causes,
)
from ancestral.factfile import (
    FactFileError,
    format_fact_lines,
    parse_fact_files,
    parse_fact_text,
    write_fact_file,
)
from ancestral.simulate import random_linear_model, sample_data
from ancestral.stats import CiTestConfig, Dataset, ci_inputs_from_data, write_dataset

W = Weight.finite


# -- fact files -----------------------------------------------------------------

@st.composite
def fact_file_contents(draw):
    """Distinct variable names, distinct statements of all four kinds with
    weights from 0 to inf, and a point that splits them over two files."""
    n = draw(st.integers(2, 5))
    names = draw(
        st.lists(
            st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,4}", fullmatch=True),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y]

    def ci(pair_cond_pol):
        (x, y), cond, pol = pair_cond_pol
        return canonicalize(x, y, condset(v for v in cond if v not in (x, y)), pol)

    ci_statements = st.tuples(
        st.sampled_from(pairs),
        st.lists(st.integers(0, n - 1), unique=True, max_size=3),
        st.sampled_from(tuple(Polarity)),
    ).map(ci)
    anc_statements = st.builds(
        lambda pair, pol: AncStatement(pair[0], pair[1], pol),
        st.sampled_from(pairs),
        st.sampled_from(tuple(Ancestry)),
    )
    statements = draw(
        st.lists(st.one_of(ci_statements, anc_statements), unique=True, max_size=12)
    )
    weights = st.one_of(st.just(Weight.hard()), st.integers(0, 10**12).map(W))
    inputs = [WeightedInput(stmt, draw(weights)) for stmt in statements]
    return tuple(names), inputs, draw(st.integers(0, len(inputs)))


@settings(max_examples=100, deadline=None)
@given(fact_file_contents())
def test_fact_file_round_trip_property(case):
    names, inputs, split = case
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.facts", Path(tmp) / "b.facts"
        write_fact_file(names, inputs[:split], first)
        write_fact_file(names, inputs[split:], second)
        assert parse_fact_files([first]) == (names, inputs[:split])
        assert parse_fact_files([first, second]) == (names, inputs)


def test_parse_basic_statements():
    names, inputs = parse_fact_text(
        "# comment\n"
        "vars A B C\n"
        "indep A B | : 1000\n"
        "dep A C | B : 2000\n"
        "causes A B : inf\n"
        "notcauses C A : 7\n"
    )
    assert names == ("A", "B", "C")
    assert len(inputs) == 4
    assert inputs[0].statement.triple == (0, 1, 0)
    assert inputs[1].statement.triple == (0, 2, 0b10)
    assert inputs[2].weight.is_hard
    assert inputs[3].statement.cause == 2


def test_parse_accepts_missing_bar_for_empty_cond():
    _, inputs = parse_fact_text("vars A B\nindep A B : 5\n")
    assert inputs[0].statement.cond == 0


def test_roundtrip_preserves_inputs():
    scm = random_linear_model(4, 1, 0.4, seed=2)
    data = sample_data(scm, 120, seed=3)
    inputs = ci_inputs_from_data(data, CiTestConfig(max_order=1))
    inputs += [causes(0, 2, W(42)), not_causes(3, 1)]
    text = format_fact_lines(data.names, inputs)
    names, parsed = parse_fact_text(text)
    assert names == data.names
    assert parsed == inputs


def test_duplicate_statement_rejected():
    with pytest.raises(FactFileError, match="duplicate"):
        parse_fact_text("vars A B\nindep A B | : 5\nindep A B | : 9\n")


def test_opposite_polarities_are_not_duplicates():
    _, inputs = parse_fact_text("vars A B\nindep A B | : 5\ndep A B | : 9\n")
    assert len(inputs) == 2


def test_unknown_variable_rejected():
    with pytest.raises(FactFileError, match="unknown variable"):
        parse_fact_text("vars A B\nindep A Q | : 5\n")


@pytest.mark.parametrize("name", [":", "|", "A:B", "|B", "C:"])
def test_separator_in_header_name_rejected(name):
    # no statement could name such a variable: ':' and '|' split its parts
    message = rf"^line 2: invalid variable name '{re.escape(name)}'$"
    with pytest.raises(FactFileError, match=message):
        parse_fact_text(f"# header\nvars A {name} B\n")


def test_missing_header_rejected():
    with pytest.raises(FactFileError):
        parse_fact_text("indep A B | : 5\n")


def test_bad_weight_rejected():
    with pytest.raises(FactFileError):
        parse_fact_text("vars A B\nindep A B | : -3\n")
    with pytest.raises(FactFileError):
        parse_fact_text("vars A B\nindep A B | : heavy\n")


def test_multi_file_concat_and_conflicts(tmp_path):
    a = tmp_path / "a.facts"
    b = tmp_path / "b.facts"
    a.write_text("vars A B\nindep A B | : 5\n")
    b.write_text("vars A B\ncauses A B : 7\n")
    names, inputs = parse_fact_files([a, b])
    assert names == ("A", "B") and len(inputs) == 2
    c = tmp_path / "c.facts"
    c.write_text("vars A C\ncauses A C : 7\n")
    with pytest.raises(FactFileError, match="vars header"):
        parse_fact_files([a, c])
    d = tmp_path / "d.facts"
    d.write_text("vars A B\nindep A B | : 10\n")
    with pytest.raises(FactFileError, match="duplicate"):
        parse_fact_files([a, d])


def test_multi_file_errors_name_the_file_and_its_line(tmp_path):
    a = tmp_path / "a.facts"
    b = tmp_path / "b.facts"
    a.write_text("vars A B\nindep A B | : 10\n")
    b.write_text("vars A B\n# repeated below\ncauses A B : 2\nindep B A | : 3\n")
    with pytest.raises(FactFileError) as info:
        parse_fact_files([a, b])
    assert str(info.value) == (
        f"{b}: line 4: duplicate canonical statement (first at {a}: line 2)"
    )
    b.write_text("vars A B\nindep A Q | : 3\n")
    with pytest.raises(FactFileError, match=f"^{re.escape(str(b))}: line 2: unknown variable"):
        parse_fact_files([a, b])


# -- CLI ------------------------------------------------------------------------------

def write_sample_dataset(path, n=3, rows=200, seed=5):
    scm = random_linear_model(n, 1, 0.4, seed=seed)
    data = sample_data(scm, rows, seed=seed + 1)
    write_dataset(data, path)
    return data


def test_cmd_test_emits_expected_statements(tmp_path, capsys):
    data_path = tmp_path / "d.csv"
    write_sample_dataset(data_path, n=3)
    out = tmp_path / "facts.txt"
    rc = main(["test", "--data", str(data_path), "--max-order", "1", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("vars ")
    assert len(lines) == 1 + 6  # pairs * (order 0 + one conditioning choice)
    again = tmp_path / "facts2.txt"
    main(["test", "--data", str(data_path), "--max-order", "1", "--out", str(again)])
    assert out.read_bytes() == again.read_bytes()


def test_cmd_test_rejects_bad_alpha(tmp_path, capsys):
    data_path = tmp_path / "d.csv"
    write_sample_dataset(data_path)
    rc = main(["test", "--data", str(data_path), "--alpha", "1.5", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_cmd_rejects_non_finite_cells(tmp_path, capsys, cell):
    """A dataset cell that parses to a non-finite float stops ``test`` and
    ``intervene`` with exit 2 and an error naming its line and column,
    and neither writes a fact file."""
    data_path = tmp_path / "d.csv"
    write_sample_dataset(data_path, n=3, rows=6)
    lines = data_path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[1] = cell
    lines[3] = ",".join(cells)
    data_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "facts.txt"
    runs = (
        ["test", "--data", str(data_path), "--max-order", "1"],
        ["intervene", "--obs", str(data_path), "--int", str(data_path), "--target", "X0"],
    )
    for args in runs:
        assert main(args + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"line 4: column 'X1': non-finite value '{cell}'" in err
        assert not out.exists()


def test_cmd_intervene_identical_files(tmp_path):
    data_path = tmp_path / "d.csv"
    write_sample_dataset(data_path, n=4)
    out = tmp_path / "anc.facts"
    rc = main(
        [
            "intervene",
            "--obs", str(data_path),
            "--int", str(data_path),
            "--target", "X1",
            "--out", str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 3
    assert all(line.startswith("notcauses X1 ") and line.endswith(": 2996") for line in lines[1:])


def test_cmd_intervene_append(tmp_path):
    data_path = tmp_path / "d.csv"
    write_sample_dataset(data_path, n=3)
    out = tmp_path / "anc.facts"
    main(["intervene", "--obs", str(data_path), "--int", str(data_path), "--target", "X0", "--out", str(out)])
    rc = main(
        [
            "intervene",
            "--obs", str(data_path), "--int", str(data_path),
            "--target", "X1", "--out", str(out), "--append",
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 2 + 2


def test_cmd_intervene_append_rejects_a_repeated_target(tmp_path, capsys):
    """Appending the statements of a target already in the file would
    write each of them twice, a file that no reader accepts: the run
    exits 2 and leaves the file as it was."""
    data_path = tmp_path / "d.csv"
    write_sample_dataset(data_path, n=3)
    out = tmp_path / "anc.facts"
    args = ["intervene", "--obs", str(data_path), "--int", str(data_path), "--target", "X0"]
    assert main(args + ["--out", str(out)]) == 0
    before = out.read_bytes()
    assert main(args + ["--out", str(out), "--append"]) == 2
    err = capsys.readouterr().err
    assert "anc.facts: line 4: duplicate canonical statement (first at " in err
    assert "anc.facts: line 2)" in err
    assert out.read_bytes() == before
    assert main(["solve", "--facts", str(out), "--out", str(tmp_path / "s.csv")]) == 0


def test_cmd_intervene_unknown_target(tmp_path, capsys):
    data_path = tmp_path / "d.csv"
    write_sample_dataset(data_path)
    rc = main(
        [
            "intervene",
            "--obs", str(data_path), "--int", str(data_path),
            "--target", "nope", "--out", str(tmp_path / "x"),
        ]
    )
    assert rc == 2
    assert capsys.readouterr().err == "error: unknown variable name 'nope'\n"


def test_cmd_intervene_at_extreme_scales(tmp_path, capsys):
    """Samples scaled by 1e-100, whose squared variances of the mean
    underflow, give the statements of the unscaled samples. Scaled by
    1e200, their variances overflow: the run exits 2 with a message and
    writes no file."""
    rng = np.random.default_rng(21)
    obs, interv = rng.normal(size=(50, 3)), rng.normal(0.5, 1, size=(50, 3))
    outs = {}
    for scale in (1.0, 1e-100, 1e200):
        paths = []
        for name, values in (("obs", obs), ("int", interv)):
            paths.append(tmp_path / f"{name}-{scale}.csv")
            write_dataset(Dataset(("X0", "X1", "X2"), values * scale), paths[-1])
        out = outs[scale] = tmp_path / f"anc-{scale}.facts"
        args = ["intervene", "--obs", str(paths[0]), "--int", str(paths[1]), "--target", "X0"]
        rc = main(args + ["--out", str(out)])
        if scale == 1e200:
            assert rc == 2
            assert "degrees of freedom are not finite" in capsys.readouterr().err
            assert not out.exists()
        else:
            assert rc == 0
    assert outs[1e-100].read_text() == outs[1.0].read_text()


def test_cmd_test_at_extreme_scales(tmp_path):
    """Samples scaled by 1e-100 or by 1e200 give the unscaled samples'
    statement, with the same polarity and weight and no warning: their
    products neither underflow nor overflow in the correlations."""
    rng = np.random.default_rng(22)
    x0 = rng.normal(size=50)
    values = np.column_stack([x0, 0.5 * x0 + rng.normal(size=50)])
    outs = {}
    for scale in (1.0, 1e-100, 1e200):
        data = tmp_path / f"d-{scale}.csv"
        write_dataset(Dataset(("X0", "X1"), values * scale), data)
        out = outs[scale] = tmp_path / f"ci-{scale}.facts"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["test", "--data", str(data), "--max-order", "0", "--out", str(out)]) == 0
        assert not caught
    assert "dep X0 X1" in outs[1.0].read_text()
    assert outs[1e-100].read_text() == outs[1.0].read_text() == outs[1e200].read_text()


def test_cmd_solve_imports_no_numpy(tmp_path):
    """``solve`` needs no numpy: in a fresh interpreter, scoring a fact
    file through the CLI leaves it unimported."""
    facts = tmp_path / "f.facts"
    facts.write_text("vars A B C\ncauses A B : 3000\nindep A C | B : 500\n")
    code = (
        "import sys\n"
        "from ancestral import cli\n"
        f"rc = cli.main(['solve', '--facts', {str(facts)!r}, '--out', {str(tmp_path / 's.csv')!r}])\n"
        "print(rc, 'numpy' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["0", "False"]


def test_cmd_solve_scores_csv(tmp_path):
    facts = tmp_path / "f.facts"
    facts.write_text("vars A B\ncauses A B : 3000\ncauses B A : 1000\n")
    out = tmp_path / "scores.csv"
    rc = main(["solve", "--facts", str(facts), "--out", str(out)])
    assert rc == 0
    assert out.read_text() == "cause,effect,score_milli\nA,B,2000\nB,A,-2000\n"


def test_cmd_solve_empty_facts_scores_zero(tmp_path):
    facts = tmp_path / "f.facts"
    facts.write_text("vars A B C\n")
    out = tmp_path / "scores.csv"
    rc = main(["solve", "--facts", str(facts), "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 6
    assert all(row.endswith(",0") for row in rows)


def test_cmd_solve_hard_notcauses_forces_minus_inf(tmp_path):
    facts = tmp_path / "f.facts"
    facts.write_text("vars A B\nnotcauses A B : inf\n")
    out = tmp_path / "scores.csv"
    rc = main(["solve", "--facts", str(facts), "--out", str(out)])
    assert rc == 0
    rows = dict(
        ((r.split(",")[0], r.split(",")[1]), r.split(",")[2])
        for r in out.read_text().splitlines()[1:]
    )
    assert rows[("A", "B")] == "-inf"


def test_cmd_solve_contradictory_hard_exits_4(tmp_path, capsys):
    facts = tmp_path / "f.facts"
    facts.write_text("vars A B\ncauses A B : inf\nnotcauses A B : inf\n")
    rc = main(["solve", "--facts", str(facts), "--out", str(tmp_path / "s.csv")])
    assert rc == 4


def test_cmd_solve_timeout_exits_3_with_partial_rows(tmp_path):
    import random

    rng = random.Random(0)
    names = [f"V{i}" for i in range(6)]
    lines = ["vars " + " ".join(names)]
    seen = set()
    for _ in range(60):
        x, y = sorted(rng.sample(range(6), 2))
        others = [v for v in range(6) if v not in (x, y)]
        cond = rng.sample(others, rng.randint(0, 1))
        kind = rng.choice(["indep", "dep"])
        key = (kind, x, y, tuple(sorted(cond)))
        if key in seen:
            continue
        seen.add(key)
        cond_part = " ".join(names[c] for c in cond)
        lines.append(
            f"{kind} {names[x]} {names[y]} | {cond_part + ' ' if cond_part else ''}: {rng.randint(1, 4000)}"
        )
    facts = tmp_path / "f.facts"
    facts.write_text("\n".join(lines) + "\n")
    out = tmp_path / "s.csv"
    rc = main(["solve", "--facts", str(facts), "--out", str(out), "--time-limit", "1e-6"])
    assert rc == 3
    rows = out.read_text().splitlines()
    assert rows[0] == "cause,effect,score_milli"
    assert len(rows) == 1 + 30
    assert any(row.endswith(",na") for row in rows[1:])


def test_cmd_solve_mismatched_n_exits_2(tmp_path):
    facts = tmp_path / "f.facts"
    facts.write_text("vars A B\ncauses A B : 5\n")
    rc = main(["solve", "--facts", str(facts), "--n", "3", "--out", str(tmp_path / "s.csv")])
    assert rc == 2


def test_cmd_simulate_deterministic(tmp_path):
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    for out in (out1, out2):
        rc = main(
            [
                "simulate",
                "--n", "4", "--models", "1", "--seed", "7",
                "--samples", "50", "--out-dir", str(out),
            ]
        )
        assert rc == 0
    assert (out1 / "data_0.csv").read_bytes() == (out2 / "data_0.csv").read_bytes()
    assert (out1 / "scm_0.txt").read_bytes() == (out2 / "scm_0.txt").read_bytes()


def test_cmd_simulate_edge_prob_zero_truth_is_identity(tmp_path):
    out = tmp_path / "sim"
    rc = main(
        [
            "simulate",
            "--n", "3", "--models", "1", "--seed", "1",
            "--edge-prob", "0", "--samples", "20", "--out-dir", str(out),
        ]
    )
    assert rc == 0
    assert (out / "truth_0.csv").read_text() == "1,0,0\n0,1,0\n0,0,1\n"


@pytest.mark.parametrize(
    "sizes, message",
    [
        (["--n", "0"], "n_obs must be positive"),
        (["--n", "3", "--latents", "-1"], "n_latent must be nonnegative"),
        (["--n", "3", "--edge-prob", "1.5"], "edge_prob must lie in [0, 1]"),
        (["--n", "3", "--samples", "0"], "n_samples must be positive"),
        (["--n", "3", "--models", "0"], "models must be positive"),
    ],
)
def test_cmd_simulate_rejects_empty_models(tmp_path, capsys, sizes, message):
    out = tmp_path / "sim"
    assert main(["simulate", *sizes, "--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cmd_bench_writes_reports(tmp_path):
    out = tmp_path / "bench"
    rc = main(
        [
            "bench",
            "--n", "4", "--models", "2", "--samples", "120",
            "--max-order", "1", "--seed", "3", "--out-dir", str(out),
        ]
    )
    assert rc == 0
    bench_rows = (out / "bench.csv").read_text().splitlines()
    assert len(bench_rows) == 3
    assert (out / "pr_ancestral.csv").exists()
    assert (out / "pr_nonancestral.csv").exists()
    assert "reference_mean_s" in (out / "reference_comparison.txt").read_text()


@pytest.mark.parametrize(
    "args, message",
    [
        (["--oracle", "--n", "3", "--max-order", "2"], "max_order may not exceed n_obs - 2"),
        (["--n", "4", "--max-order", "-1"], "max_order must be nonnegative"),
        (["--n", "4", "--time-limit", "0"], "time_limit must be positive"),
    ],
    ids=["oracle-order-above-n-2", "negative-order", "zero-time-limit"],
)
def test_cmd_bench_rejects_its_config_before_the_out_dir(tmp_path, capsys, args, message):
    out = tmp_path / "bench"
    assert main(["bench", *args, "--models", "1", "--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cmd_solve_time_limit_bounds_the_whole_call(tmp_path):
    # order-1 facts of `ancestral simulate --seed 0` model 3 at n = 7: the
    # full solve runs for tens of seconds, far past the budget
    scm = random_linear_model(7, 1, 0.3, seed=[0, 3, 0])
    data = sample_data(scm, 500, seed=[0, 3, 1])
    facts = tmp_path / "f.facts"
    write_fact_file(data.names, ci_inputs_from_data(data, CiTestConfig(max_order=1)), facts)
    out = tmp_path / "s.csv"
    start = time.monotonic()
    rc = main(["solve", "--facts", str(facts), "--out", str(out), "--time-limit", "0.5"])
    elapsed = time.monotonic() - start
    assert rc == 3
    assert elapsed < 5.0
    rows = out.read_text().splitlines()
    assert len(rows) == 1 + 42
    assert any(row.endswith(",na") for row in rows[1:])
