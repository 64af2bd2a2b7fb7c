import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import warnings
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import case_table
from embgep import cli, data, displacement, evolution, karva, kernels, metrics
from embgep.cli import main
from references import reference_load

HEADER = "id,Mw,amax_g,Tp_s,Td_s,ay_g,D_m,Tm_s,H_m,Vs_mps"


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def write_cases(tmp_path, rows, name="cases.csv"):
    path = tmp_path / name
    lines = [HEADER]
    for row in rows:
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def case_row(rec_id="A", m_w=7.0, a_max=0.3, t_p=0.4, t_d=0.6, a_y=0.09, d=0.5, t_m="0.5"):
    return (rec_id, repr(m_w), repr(a_max), repr(t_p), repr(t_d), repr(a_y), repr(d), t_m, "", "")


class TestStats:
    def test_synthetic_summary_shape(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("stats", "--synth", 85, "--seed", 3, "--out", out) == 0
        rows = read_rows(out / "summary.csv")
        assert [r["parameter"] for r in rows] == list(data.PARAMETERS)
        corr = read_rows(out / "correlations.csv")
        assert len(corr) == 8
        for i, row in enumerate(corr):
            assert float(row[data.PARAMETERS[i]]) == 1.0  # diagonal
        assert (out / "synthetic_input.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) >= {"summary.csv", "correlations.csv"}

    def test_constant_column_leaves_blank_cells(self, tmp_path):
        rows = [case_row(f"R{i}", m_w=7.0, a_max=0.2 + 0.03 * i, t_p=0.3 + 0.01 * i * i,
                         t_d=0.9 - 0.02 * i, a_y=0.05 + 0.004 * i, d=0.1 + 0.07 * (i % 3))
                for i in range(8)]
        path = write_cases(tmp_path, rows)
        out = tmp_path / "o"
        assert run_cli("stats", "--input", path, "--out", out) == 0
        mat = data._matrix(data.load(path))
        corr = read_rows(out / "correlations.csv")
        names = data.PARAMETERS
        for i, row in enumerate(corr):
            for j in range(i + 1):
                cell = row[names[j]]
                if "Mw" in (names[i], names[j]):
                    assert cell == ""
                elif i == j:
                    assert float(cell) == 1.0
                else:
                    assert float(cell) == metrics.pearson_r(mat[:, i], mat[:, j])

    def test_single_row_leaves_sd_and_correlations_blank(self, tmp_path):
        # the sample SD of one row is undefined, like its correlations
        out = tmp_path / "o"
        assert run_cli("stats", "--input", write_cases(tmp_path, [case_row()]), "--out", out) == 0
        rows = read_rows(out / "summary.csv")
        assert [r["sd"] for r in rows] == [""] * len(data.PARAMETERS)
        assert all(r["min"] == r["max"] == r["mean"] != "" for r in rows)
        corr = read_rows(out / "correlations.csv")
        assert all(row[name] == "" for row in corr for name in data.PARAMETERS)

    def test_empty_dataset_exits_2(self, tmp_path, capsys):
        path = write_cases(tmp_path, [])
        assert run_cli("stats", "--input", path, "--out", tmp_path / "o") == 2
        assert "empty dataset" in capsys.readouterr().err

    def test_missing_input_file_exits_nonzero(self, tmp_path):
        code = run_cli("stats", "--input", tmp_path / "nope.csv", "--out", tmp_path / "o")
        assert code in (1, 2)

    def test_overflowing_columns_exit_2_naming_them(self, tmp_path, capsys):
        for i, (a_y, a_max) in enumerate(OVERFLOW_ROWS):
            path = overflow_cases(tmp_path, ay_row(a_y, a_max))
            assert run_cli("stats", "--input", path, "--out", tmp_path / f"o{i}") == 2
            err = capsys.readouterr().err
            assert "ay, ay_ratio too large" in err and "overflow" in err
            assert "Traceback" not in err
            assert not (tmp_path / f"o{i}" / "summary.csv").exists()

    def test_synth_zero_is_zero_rows(self, tmp_path, capsys):
        assert run_cli("stats", "--synth", 0, "--out", tmp_path / "o") == 2
        assert "argument --synth: must be an integer >= 2, got '0'" in capsys.readouterr().err
        # a bare --synth still means the default size
        assert run_cli("stats", "--synth", "--out", tmp_path / "d") == 0
        assert len(data.load(tmp_path / "d" / "synthetic_input.csv")) == 85


class TestSplit:
    def test_counts_and_files(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("split", "--synth", 85, "--seed", 1, "--trials", 50, "--out", out) == 0
        train = data.load(out / "train.csv")
        test = data.load(out / "test.csv")
        assert (len(train), len(test)) == (63, 22)
        info = json.loads((out / "split.json").read_text())
        assert info["n_train"] == 63
        assert not set(info["train_ids"]) & set(info["test_ids"])


# a_y and a_max cells of one row whose a_y and a_y/a_max have centred
# squares past the float range; at 1e300/1e-300 the ratio itself overflows
# to inf
OVERFLOW_ROWS = [("1e+200", "1e-10"), ("1e+300", "1e-300")]


def ay_row(a_y, a_max):
    """Record 'X' with the cells ``a_y`` and ``a_max``."""
    return ("X", "7.0", a_max, "0.4", "0.6", a_y, "0.5", "0.5", "", "")


def overflow_cases(tmp_path, *extra):
    """A case file of eight ordinary records followed by the rows ``extra``."""
    rows = [case_row(f"R{i}", m_w=6.0 + 0.2 * i, a_max=0.1 + 0.05 * i, t_p=0.3 + 0.02 * i,
                     a_y=0.02 + 0.01 * i, d=0.2 + 0.1 * i) for i in range(8)]
    return write_cases(tmp_path, rows + list(extra))


@pytest.mark.parametrize("command", ["split", "fit"])
@pytest.mark.parametrize("rows,names", [
    *(pytest.param([ay_row(a_y, a_max)], "ay, ay_ratio", id=f"{a_y}-{a_max}")
      for a_y, a_max in OVERFLOW_ROWS),
    # an Mw range past the float range: its max - min overflows
    pytest.param([case_row("X", m_w=-1e308), case_row("Y", m_w=1e308)], "Mw", id="Mw-1e+308"),
])
def test_overflowing_moments_exit_2_naming_columns(tmp_path, capsys, command, rows, names):
    path = overflow_cases(tmp_path, *rows)
    assert run_cli(command, "--input", path, "--trials", 5, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert f"{names} too large" in err and "overflow" in err
    assert "Traceback" not in err


class TestFit:
    def test_fit_outputs(self, tmp_path):
        out = tmp_path / "o"
        code = run_cli("fit", "--synth", 40, "--seed", 2, "--max-generations", 8,
                       "--trials", 20, "--out", out)
        assert code == 0
        # the reader enforces every structural rule of a gene
        codes, pools = karva.kexpr_codes((out / "best.kexpr").read_text(encoding="utf-8"), 3)
        assert codes.shape == (4, 15) and pools.shape == (4, 10)
        hist = read_rows(out / "history.csv")
        assert len(hist) <= 8
        fits = [float(r["best_fitness"]) for r in hist]
        assert all(b >= a for a, b in zip(fits, fits[1:]))
        stages = [r["stage"] for r in read_rows(out / "metrics.csv")]
        assert stages == ["Training", "Validation", "All data"]
        for row in read_rows(out / "metrics.csv"):
            assert row["space"] == "ln_D_m"
            for col in ("r_squared", "mae_paper", "mae_conventional", "rmse",
                        "scatter_index", "bias"):
                assert math.isfinite(float(row[col]))
        hist_rows = read_rows(out / "residual_histogram.csv")
        assert sum(int(r["count"]) for r in hist_rows) == 40
        info = json.loads((out / "metrics.json").read_text())
        assert info["residuals_ln_space"]["marker_low"] <= info["residuals_ln_space"]["marker_high"]
        # a chromosome whose coding programs were scored already is not evaluated again
        assert 0 < info["evaluations"] <= evolution.GepConfig().num_chromosomes * (len(hist) + 1)

    def test_history_counters_add_up_to_evaluations(self, tmp_path):
        argv = ("fit", "--synth", 40, "--seed", 4, "--trials", 20)
        assert run_cli(*argv, "--max-generations", 30, "--out", tmp_path / "run") == 0
        assert run_cli(*argv, "--max-generations", 0, "--out", tmp_path / "initial") == 0
        hist = read_rows(tmp_path / "run" / "history.csv")
        assert list(hist[0]) == ["generation", "best_fitness", "mean_fitness", "evaluations",
                                 "zero_fitness"]
        total = json.loads((tmp_path / "run" / "metrics.json").read_text())["evaluations"]
        initial = json.loads((tmp_path / "initial" / "metrics.json").read_text())["evaluations"]
        assert 0 < initial <= evolution.GepConfig().num_chromosomes
        assert total == initial + sum(int(r["evaluations"]) for r in hist)
        assert all(0 <= int(r["zero_fitness"]) <= evolution.GepConfig().num_chromosomes
                   for r in hist)

    def test_fit_builds_no_gene_or_chromosome(self, tmp_path, monkeypatch):
        # fit evolves, writes and scores the best chromosome as code rows
        built = []
        for cls in (karva.Gene, karva.Chromosome):
            def counted(obj, post_init=cls.__post_init__):
                built.append(type(obj).__name__)
                post_init(obj)

            monkeypatch.setattr(cls, "__post_init__", counted)
        out = tmp_path / "o"
        assert run_cli("fit", "--synth", 40, "--seed", 2, "--max-generations", 20,
                       "--trials", 20, "--out", out) == 0
        assert built == []
        # the counters see a view when one is built
        text = (out / "best.kexpr").read_text(encoding="utf-8")
        oracles.chromosome_from_codes(*karva.kexpr_codes(text, 3), 3)
        assert built == ["Gene"] * 4 + ["Chromosome"]

    def test_fit_zero_generations_reports_initial_best(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("fit", "--synth", 25, "--seed", 3, "--max-generations", 0,
                       "--trials", 5, "--out", out) == 0
        assert read_rows(out / "history.csv") == []
        assert len(read_rows(out / "metrics.csv")) == 3
        info = json.loads((out / "metrics.json").read_text())
        assert info["generations_run"] == 0

    def test_fit_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("fit", "--synth", 30, "--seed", 7, "--max-generations", 5,
                           "--trials", 10, "--out", out) == 0
        assert (a / "best.kexpr").read_bytes() == (b / "best.kexpr").read_bytes()
        assert (a / "history.csv").read_bytes() == (b / "history.csv").read_bytes()

    def test_config_file_respected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("number_of_chromosomes = 12\nmax_generations = 3\n", encoding="utf-8")
        out = tmp_path / "o"
        assert run_cli("fit", "--synth", 20, "--seed", 0, "--config", cfg,
                       "--trials", 5, "--out", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["num_chromosomes"] == 12
        assert manifest["config"]["max_generations"] == 3

    def test_too_small_validation_stage_named(self, tmp_path, capsys, monkeypatch):
        # 4 records split 3/1: one validation row cannot be scored, which is
        # known before the evolution starts
        def no_run(*args, **kwargs):
            raise AssertionError("evolution ran before the stage sizes were checked")

        monkeypatch.setattr(evolution, "run", no_run)
        assert run_cli("fit", "--synth", 4, "--max-generations", 3, "--trials", 5,
                       "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "Validation" in err and "1 row" in err
        assert "non-finite" not in err

    def test_constant_displacement_rejected_before_evolving(self, tmp_path, capsys):
        # R^2 of a constant ln D is undefined, which is known before the evolution
        path = write_cases(tmp_path, [case_row(f"R{i}", m_w=6.0 + 0.1 * i) for i in range(12)])
        out = tmp_path / "o"
        assert run_cli("fit", "--input", path, "--max-generations", 5, "--trials", 5,
                       "--out", out) == 2
        assert "Training: ln D is constant" in capsys.readouterr().err
        assert not (out / "best.kexpr").exists()

    def test_zero_displacement_in_validation_rejected_before_evolving(self, tmp_path, capsys):
        # put D = 0 on a row that the fit's matched split sends to the validation set
        table = data.synthesize(data.EMBANKMENT_SUMMARY, 40, np.random.default_rng(1))
        seed, trials = 22, 5
        for i in range(len(table)):
            zeroed = dataclasses.replace(table, d=np.where(np.arange(len(table)) == i, 0.0,
                                                           table.d))
            split_rng = cli._spawn_rngs(seed, 3)[1]  # the stream cmd_fit splits with
            if table.ids[i] in data.split_matched(zeroed, 0.75, trials, split_rng).test.ids:
                break
        else:
            pytest.fail("no row of the table lands in the validation set")
        data.save(zeroed, tmp_path / "cases.csv")
        out = tmp_path / "o"
        assert run_cli("fit", "--input", tmp_path / "cases.csv", "--seed", seed, "--trials", trials,
                       "--max-generations", 5, "--out", out) == 2
        err = capsys.readouterr().err
        assert f"Validation: record {table.ids[i]!r}: D must be positive" in err
        assert not (out / "best.kexpr").exists()

    def test_stage_whose_ln_displacement_sums_to_zero_accepted(self):
        # the normalised metrics divide by the sum or mean of D in metres,
        # which is positive, not by those of ln D
        rows = case_table(*[(f"R{i}", 7.0, 0.3, 0.4, 0.6, 0.09, d)
                            for i, d in enumerate((2.0, 0.5))])
        X, y = cli._stage_arrays("Validation", rows)
        assert y.sum() == 0.0
        scores = cli._stage_metrics("Validation", y, y + math.log(2.0))  # predicts 2 D
        assert scores["mae_paper"] == pytest.approx((2.0 + 0.5) / 2 / 2.5, rel=1e-12)
        assert scores["scatter_index"] == pytest.approx(math.sqrt((4.0 + 0.25) / 2) / 1.25,
                                                        rel=1e-12)

    def test_normalised_metrics_scored_on_d_in_metres(self, tmp_path):
        # scored on ln D, which is mostly negative, both came out negative
        out = tmp_path / "o"
        assert run_cli("fit", "--synth", 85, "--seed", 3, "--max-generations", 10,
                       "--trials", 20, "--out", out) == 0
        X, ln_d = data.regression_arrays(data.load(out / "synthetic_input.csv"))
        codes, pools = karva.kexpr_codes((out / "best.kexpr").read_text(encoding="utf-8"), 3)
        d, d_pred = np.exp(ln_d), np.exp(kernels.evaluate_codes(codes, pools, X, 3))
        rows = {row["stage"]: row for row in read_rows(out / "metrics.csv")}
        assert all(float(row["mae_paper"]) > 0.0 and float(row["scatter_index"]) > 0.0
                   for row in rows.values())
        assert rows["All data"]["n_used"] == "85"
        assert float(rows["All data"]["mae_paper"]) == pytest.approx(
            np.abs(d_pred - d).sum() / len(d) / d.sum(), rel=1e-12)
        assert float(rows["All data"]["scatter_index"]) == pytest.approx(
            np.sqrt(np.mean((d_pred - d) ** 2)) / d.mean(), rel=1e-12)

    def test_overflowing_predicted_displacement_blanks_normalised_metrics(self, tmp_path,
                                                                          monkeypatch, capsys):
        # ln D = 800 is a finite prediction, but D = e^800 m overflows a float
        evaluate_codes = kernels.evaluate_codes

        def first_row_huge(*args):
            preds = evaluate_codes(*args)
            preds[0] = 800.0
            return preds

        monkeypatch.setattr(kernels, "evaluate_codes", first_row_huge)
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("fit", "--synth", 40, "--seed", 2, "--max-generations", 3,
                           "--trials", 20, "--out", out) == 0
        assert capsys.readouterr().err == ""
        stages = json.loads((out / "metrics.json").read_text())["stages"]
        for row, stage in zip(read_rows(out / "metrics.csv"), stages):
            assert row["mae_paper"] == row["scatter_index"] == ""
            assert stage["mae_paper"] is None and stage["scatter_index"] is None
            for col in ("r_squared", "mae_conventional", "rmse", "bias"):
                assert math.isfinite(float(row[col])) and stage[col] == float(row[col])

    def test_model_that_cannot_score_a_stage_writes_nothing(self, tmp_path, monkeypatch,
                                                            capsys):
        # d0 / (d0 - d0) is not finite on any row, which is known only once
        # the evolution has run: the run exits 2 before making the out dir
        run = evolution.run
        codes, pools = karva.kexpr_codes("/ d0 - d0 d0 d0 d0 | " + "1.0 " * 10, 3)

        def unscorable_best(*args):
            return dataclasses.replace(run(*args), best_codes=codes, best_pools=pools)

        monkeypatch.setattr(evolution, "run", unscorable_best)
        monkeypatch.chdir(tmp_path)
        assert run_cli("fit", "--synth", 20, "--max-generations", 1, "--trials", 3,
                       "--out", "o") == 2
        assert "model non-finite on too many rows to score" in capsys.readouterr().err
        assert not Path("o").exists()

    def test_bad_config_exits_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("population_size = 12\n", encoding="utf-8")
        assert run_cli("fit", "--synth", 20, "--config", cfg, "--out", tmp_path / "o") == 2

    def test_number_of_inputs_other_than_3_exits_2(self, tmp_path, capsys):
        assert_other_input_count_rejected(tmp_path, capsys, "fit", "--synth", 20, "--trials", 5)


def assert_other_input_count_rejected(tmp_path, capsys, *argv):
    # the CLI always fits Mw, ay/amax and Td/Tp, so a config asking for a
    # different input count cannot be honoured and must not be overwritten
    cfg = tmp_path / "inputs.cfg"
    cfg.write_text("number_of_inputs = 5\nmax_generations = 1\n", encoding="utf-8")
    out = tmp_path / "inputs5"
    assert run_cli(*argv, "--config", cfg, "--out", out) == 2
    err = capsys.readouterr().err
    assert "number_of_inputs = 5" in err and "3 features (Mw, ay/amax, Td/Tp)" in err
    assert not (out / "manifest.json").exists()


def assert_bad_pole_eps_rejected(capsys, *argv):
    # a NaN or negative distance never matches, which would turn pole checks off
    for eps in ("nan", "-0.001", "-inf"):
        assert run_cli(*argv, "--pole-eps", eps) == 2
        assert "--pole-eps" in capsys.readouterr().err


POLE_EPS_COMMANDS = [
    ("predict", "--model", "gep", "--synth", 5),
    ("compare", "--synth", 5),
    ("sensitivity", "--param", "period_ratio", "--from", 1.2, "--to", 1.4, "--steps", 5),
]


@pytest.mark.parametrize("argv", POLE_EPS_COMMANDS, ids=lambda argv: argv[0])
def test_zero_pole_eps_exits_2(tmp_path, capsys, argv):
    # a zero distance turns pole checks off too: a row at Td/Tp = 1.2707
    # would be written ok with ln D = -1536 and D_m = 0.0
    assert run_cli(*argv, "--out", tmp_path / "o", "--pole-eps", "0") == 2
    err = capsys.readouterr().err
    assert "--pole-eps" in err and "> 0" in err


class TestPredict:
    def test_pole_row_annotated_and_run_continues(self, tmp_path):
        pole = displacement.POLE_PERIOD_RATIO
        path = write_cases(
            tmp_path,
            [case_row("P", t_p=1.0, t_d=pole), case_row("Q")],
        )
        out = tmp_path / "o"
        assert run_cli("predict", "--model", "gep", "--input", path, "--out", out) == 0
        rows = read_rows(out / "predictions.csv")
        assert rows[0]["status"] == "pole"
        assert rows[0]["value"] == ""
        assert rows[1]["status"] == "ok"
        assert float(rows[1]["D_m"]) > 0

    def test_missing_tm_column_errors_naming_it(self, tmp_path, capsys):
        path = tmp_path / "no_tm.csv"
        path.write_text(
            "id,Mw,amax_g,Tp_s,Td_s,ay_g,D_m,H_m,Vs_mps\nA,7.0,0.3,0.4,0.6,0.09,0.5,,\n",
            encoding="utf-8",
        )
        assert run_cli("predict", "--model", "tsai_chien", "--input", path, "--out", tmp_path / "o") == 2
        assert "Tm_s" in capsys.readouterr().err

    def test_blank_tm_cell_is_not_applicable(self, tmp_path):
        path = write_cases(tmp_path, [case_row("A", t_m="")])
        out = tmp_path / "o"
        assert run_cli("predict", "--model", "tsai_chien", "--input", path, "--out", out) == 0
        rows = read_rows(out / "predictions.csv")
        assert rows[0]["status"] == "missing_input"

    def test_value_matches_module_oracle(self, tmp_path):
        path = write_cases(tmp_path, [case_row("A", a_y=0.09, a_max=0.3)])  # x = 0.3
        out = tmp_path / "o"
        assert run_cli("predict", "--model", "hynes_griffin", "--input", path, "--out", out) == 0
        row = read_rows(out / "predictions.csv")[0]
        assert float(row["value"]) == pytest.approx(float(oracles.hynes_griffin_exact(0.3)), abs=1e-12)
        assert row["in_range"] == "true"

    def test_unknown_model_exits_2(self, tmp_path):
        assert run_cli("predict", "--model", "bogus", "--synth", 5, "--out", tmp_path / "o") == 2

    def test_bad_pole_eps_exits_2(self, tmp_path, capsys):
        assert_bad_pole_eps_rejected(capsys, "predict", "--model", "gep", "--synth", 5,
                                     "--out", tmp_path / "o")

    @pytest.mark.parametrize("model", ["hynes_griffin", "saygili_rathje", "tsai_chien"])
    def test_overflowing_row_is_domain_error(self, tmp_path, capsys, model):
        # ay/amax = 9e197 overflows x**4; the row is labelled, the run goes on
        path = write_cases(tmp_path, [case_row("T", a_max=1e-200), case_row("Q")])
        out = tmp_path / "o"
        assert run_cli("predict", "--model", model, "--input", path, "--out", out) == 0
        assert "Traceback" not in capsys.readouterr().err
        rows = read_rows(out / "predictions.csv")
        assert [(r["status"], r["value"], r["scale"], r["D_m"]) for r in rows[:1]] == [
            ("domain_error", "", "", "")]
        assert rows[1]["status"] == "ok"


class TestCompare:
    def test_out_of_range_rows_absent_only_for_that_model(self, tmp_path):
        rows = [
            case_row("IN", m_w=7.0, a_y=0.09, a_max=0.3),
            case_row("HIGH", m_w=8.0, a_y=0.09, a_max=0.3),  # above jibson's 7.6 cap
        ]
        path = write_cases(tmp_path, rows)
        out = tmp_path / "o"
        assert run_cli("compare", "--input", path, "--out", out) == 0
        jibson_ids = {r["id"] for r in read_rows(out / "relative_error_jibson.csv")}
        hg_ids = {r["id"] for r in read_rows(out / "relative_error_hynes_griffin.csv")}
        assert jibson_ids == {"IN"}
        assert hg_ids == {"IN", "HIGH"}

    def test_each_model_evaluates_only_its_applied_range(self, tmp_path, monkeypatch):
        table = data.synthesize(data.EMBANKMENT_SUMMARY, 300, np.random.default_rng(3))
        path = tmp_path / "cases.csv"
        data.save(table, path)
        evaluate, rows = displacement.evaluate, {}

        def spy(model_id, columns, *args):
            rows[model_id] = {len(column) for column in columns.values()}
            return evaluate(model_id, columns, *args)

        monkeypatch.setattr(displacement, "evaluate", spy)
        assert run_cli("compare", "--input", path, "--out", tmp_path / "o") == 0
        columns = table.model_columns()
        expected = {model_id: {int(displacement.in_range(model_id, columns).sum())}
                    for model_id in displacement.MODEL_IDS}
        assert rows == expected
        assert len({n for (n,) in expected.values()}) > 2  # the ranges differ on these rows

    def test_perfect_gep_predictions_step_at_zero(self, tmp_path):
        recs = []
        rng = np.random.default_rng(0)
        for i in range(6):
            m_w = float(rng.uniform(6.0, 7.5))
            a_max, t_p = 0.3, 0.4
            a_y = float(rng.uniform(0.03, 0.12))
            t_d = float(rng.uniform(0.2, 0.45))
            d = math.exp(displacement.gep_ln_displacement(m_w, a_y / a_max, t_d / t_p))
            recs.append(case_row(f"R{i}", m_w=m_w, a_max=a_max, t_p=t_p, t_d=t_d, a_y=a_y, d=d))
        path = write_cases(tmp_path, recs)
        out = tmp_path / "o"
        assert run_cli("compare", "--input", path, "--out", out) == 0
        gep_rows = read_rows(out / "relative_error_gep.csv")
        assert all(abs(float(r["relative_error_pct"])) < 1e-9 for r in gep_rows)
        cum = read_rows(out / "cumulative_frequency.csv")
        gep_fracs = [float(r["gep"]) for r in cum if r["gep"] != ""]
        assert gep_fracs[-1] == 1.0

    def test_cumulative_fractions_monotone_per_model(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("compare", "--synth", 60, "--seed", 5, "--out", out) == 0
        cum = read_rows(out / "cumulative_frequency.csv")
        for model_id in displacement.MODEL_IDS:
            fracs = [float(r[model_id]) for r in cum if r[model_id] != ""]
            assert all(b >= a for a, b in zip(fracs, fracs[1:]))
            if fracs:
                assert fracs[-1] == 1.0

    def test_pole_rows_annotated_not_dropped(self, tmp_path):
        pole = displacement.POLE_PERIOD_RATIO
        path = write_cases(tmp_path, [case_row("P", t_p=1.0, t_d=pole)])
        out = tmp_path / "o"
        assert run_cli("compare", "--input", path, "--out", out) == 0
        gep_rows = read_rows(out / "relative_error_gep.csv")
        assert gep_rows[0]["status"] == "pole"
        assert gep_rows[0]["relative_error_pct"] == ""

    def test_bad_pole_eps_exits_2(self, tmp_path, capsys):
        assert_bad_pole_eps_rejected(capsys, "compare", "--synth", 5, "--out", tmp_path / "o")

    def test_overflowing_row_is_domain_error(self, tmp_path, capsys):
        path = write_cases(tmp_path, [case_row("T", a_max=1e-200), case_row("Q")])
        out = tmp_path / "o"
        assert run_cli("compare", "--input", path, "--out", out) == 0
        assert "Traceback" not in capsys.readouterr().err
        rows = read_rows(out / "relative_error_tsai_chien.csv")  # T is in its applied range
        assert [(r["id"], r["status"], r["D_predicted_m"]) for r in rows] == [
            ("T", "domain_error", ""), ("Q", "ok", rows[1]["D_predicted_m"])]

    def test_nonfinite_prediction_is_domain_error(self, tmp_path):
        # T_m = 1e300 gives a finite ln D (cm) of 1218, but D in meters overflows
        path = write_cases(tmp_path, [case_row("T", t_m="1e300"), case_row("Q")])
        out = tmp_path / "o"
        assert run_cli("compare", "--input", path, "--out", out) == 0
        rows = read_rows(out / "relative_error_tsai_chien.csv")
        assert [(r["status"], r["D_predicted_m"], r["relative_error_pct"]) for r in rows[:1]] == [
            ("domain_error", "", "")]
        cum = read_rows(out / "cumulative_frequency.csv")
        assert len(cum) == 101
        for row in cum:
            for cell in row.values():
                assert cell == "" or math.isfinite(float(cell))
        assert float(cum[-1]["tsai_chien"]) == 1.0  # Q alone is scored

    def test_overflowing_error_is_labelled(self, tmp_path, capsys):
        # (D_p - D_m) / D_m overflows for a subnormal measured D
        path = write_cases(tmp_path, [case_row("S", d=5e-324), case_row("Q")])
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("compare", "--input", path, "--out", out) == 0
        assert capsys.readouterr().err == ""
        for model_id in displacement.MODEL_IDS:
            rows = read_rows(out / f"relative_error_{model_id}.csv")
            assert [(r["id"], r["status"], r["relative_error_pct"]) for r in rows] == [
                ("S", "error_overflow", ""), ("Q", "ok", rows[1]["relative_error_pct"])]
            assert math.isfinite(float(rows[1]["relative_error_pct"]))
        cum = read_rows(out / "cumulative_frequency.csv")
        assert all(float(cum[-1][model_id]) == 1.0 for model_id in displacement.MODEL_IDS)


class TestSensitivity:
    def test_magnitude_curve(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("sensitivity", "--param", "Mw", "--from", 4.9, "--to", 8.3,
                       "--steps", 35, "--out", out) == 0
        rows = read_rows(out / "sensitivity.csv")
        assert len(rows) == 35
        vals = [float(r["ln_D_m"]) for r in rows]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_family_mode_groups(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("sensitivity", "--family", "ay_ratio", "--levels", "0.2,0.5,1.0",
                       "--from", 5.0, "--to", 8.0, "--steps", 4, "--out", out) == 0
        rows = read_rows(out / "sensitivity.csv")
        assert len(rows) == 12
        assert sorted({r["level"] for r in rows}) == ["0.2", "0.5", "1.0"]

    def test_pole_crossing_grid_exits_zero_with_markers(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("sensitivity", "--param", "period_ratio", "--from", 1.2695,
                       "--to", 1.2717, "--steps", 9, "--out", out) == 0
        rows = read_rows(out / "sensitivity.csv")
        statuses = {r["status"] for r in rows}
        assert "pole" in statuses
        for r in rows:
            if r["status"] == "pole":
                assert r["ln_D_m"] == ""
            else:
                assert math.isfinite(float(r["ln_D_m"]))

    def test_magnitude_zero_marked_not_fatal(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("sensitivity", "--param", "Mw", "--from", 0, "--to", 8.3,
                       "--steps", 5, "--out", out) == 0
        rows = read_rows(out / "sensitivity.csv")
        assert len(rows) == 5
        assert (rows[0]["value"], rows[0]["ln_D_m"], rows[0]["status"]) == ("0.0", "", "domain_error")
        for r in rows[1:]:
            assert r["status"] == "ok" and math.isfinite(float(r["ln_D_m"]))

    def test_most_steps_allowed(self, tmp_path):
        out = tmp_path / "o"
        assert run_cli("sensitivity", "--family", "ay_ratio", "--levels", "0.2,0.5",
                       "--from", 5, "--to", 8, "--steps", cli.MAX_SENSITIVITY_POINTS // 2,
                       "--out", out) == 0
        assert len(read_rows(out / "sensitivity.csv")) == cli.MAX_SENSITIVITY_POINTS

    def test_negative_ay_ratio_level_is_domain_error(self, tmp_path):
        # a_y >= 0 and a_max > 0 in every case history, so ay/amax < 0 is no case
        out = tmp_path / "o"
        assert run_cli("sensitivity", "--family", "ay_ratio", "--levels=-0.5,1",
                       "--from", 5, "--to", 8, "--steps", 3, "--out", out) == 0
        rows = read_rows(out / "sensitivity.csv")
        assert [(r["level"], r["ln_D_m"], r["status"]) for r in rows[:3]] == [
            ("-0.5", "", "domain_error")] * 3
        assert all(r["status"] == "ok" and math.isfinite(float(r["ln_D_m"])) for r in rows[3:])

    def test_negative_period_ratio_is_domain_error(self, tmp_path):
        # T_d >= 0 and T_p > 0 in every case history, so Td/Tp < 0 is no case
        out = tmp_path / "o"
        assert run_cli("sensitivity", "--param", "period_ratio", "--from", -2, "--to", -1,
                       "--steps", 2, "--out", out) == 0
        rows = read_rows(out / "sensitivity.csv")
        assert [(r["value"], r["ln_D_m"], r["status"]) for r in rows] == [
            ("-2.0", "", "domain_error"), ("-1.0", "", "domain_error")]

    def test_bad_param_exits_2(self, tmp_path):
        assert run_cli("sensitivity", "--param", "Tp", "--from", 1, "--to", 2,
                       "--steps", 3, "--out", tmp_path / "o") == 2

    def test_bad_pole_eps_exits_2(self, tmp_path, capsys):
        assert_bad_pole_eps_rejected(capsys, "sensitivity", "--param", "period_ratio",
                                     "--from", 1.2, "--to", 1.4, "--steps", 5,
                                     "--out", tmp_path / "o")

    @pytest.mark.parametrize("options,message", [
        (("--steps", "-1"), "argument --steps: must be an integer >= 1, got '-1'"),
        (("--steps", "0"), "argument --steps: must be an integer >= 1, got '0'"),
        (("--steps", "3", "--family", "ay_ratio", "--levels", "0.2,x"),
         "argument --levels: expected comma-separated numbers, e.g. 0.2,0.5,1.0, got '0.2,x'"),
        (("--steps", "3", "--family", "ay_ratio", "--levels", ","),
         "argument --levels: expected comma-separated numbers, e.g. 0.2,0.5,1.0, got ','"),
        (("--steps", "3", "--levels", "0.5"), "argument --levels: needs --family"),
        (("--steps", "3", "--family", "ay_ratio"), "argument --family: needs --levels"),
        (("--steps", "10000000000000"), "argument --steps: at most 100000 grid points over all"
         " curves, got 10000000000000 x 1 curve(s)"),
        (("--steps", "40000", "--family", "ay_ratio", "--levels", "0.2,0.5,1.0"),
         "argument --steps: at most 100000 grid points over all curves, got 40000 x 3 curve(s)"),
        (("--steps", "3", "--family", "ay_ratio", "--levels", "nan,inf"),
         "argument --levels: every level must be finite, got 'nan,inf'"),
        (("--steps", "3", "--to", "inf"), "argument --from/--to: 3 grid point(s) from 5.0 to inf"
         " include a non-finite value"),
        (("--steps", "1", "--to", "nan"), "argument --from/--to: 1 grid point(s) from 5.0 to nan"
         " include a non-finite value"),
        (("--steps", "3", "--param", "period_ratio", "--from=1e308", "--to=-1e308"),
         "argument --from/--to: 3 grid point(s) from 1e+308 to -1e+308 include a non-finite"),
    ], ids=["steps_negative", "steps_zero", "levels_not_a_number", "levels_empty",
            "levels_without_family", "family_without_levels", "steps_too_many",
            "family_points_too_many", "levels_not_finite", "grid_to_inf", "grid_to_nan",
            "grid_step_overflows"])
    def test_bad_option_exits_2_naming_it(self, tmp_path, capsys, options, message):
        out = tmp_path / "o"
        assert run_cli("sensitivity", "--from", 5, "--to", 8, *options, "--out", out) == 2
        err = capsys.readouterr().err
        assert message in err and "usage:" in err  # argparse's error, not a crash
        assert not out.exists()


class TestSweep:
    def test_shape_argmax_determinism(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("number_of_chromosomes = 8\nmax_generations = 2\n", encoding="utf-8")
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("sweep", "--synth", 15, "--seed", 4, "--config", cfg,
                           "--genes", "1:3", "--heads", "4,6", "--out", out) == 0
        rows = read_rows(a / "sweep.csv")
        assert len(rows) == 6
        argmax = json.loads((a / "sweep_argmax.json").read_text())
        best = max(rows, key=lambda r: float(r["fitness"]))
        assert argmax["fitness"] == float(best["fitness"])
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()

    def test_number_of_inputs_other_than_3_exits_2(self, tmp_path, capsys):
        assert_other_input_count_rejected(tmp_path, capsys, "sweep", "--synth", 15,
                                          "--genes", "1", "--heads", "4")

    def test_bad_grid_cell_rejected_before_evolving(self, tmp_path, capsys, monkeypatch):
        # the gene count 0 comes last in the grid, after cells that would evolve
        def no_run(*args, **kwargs):
            raise AssertionError("evolution ran before every grid cell was checked")

        monkeypatch.setattr(evolution, "run", no_run)
        assert run_cli("sweep", "--synth", 20, "--genes", "3,0", "--heads", "4:12",
                       "--out", tmp_path / "o") == 2
        assert "number of genes must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o" / "sweep.csv").exists()

    def test_overflowing_feature_ratio_exits_2_naming_the_record(self, tmp_path, capsys):
        # ay / amax = 1e300 / 1e-300 is inf: a chromosome dividing by d1 would
        # score that row a finite 0 that the scalar oracle flags
        path = overflow_cases(tmp_path, ay_row("1e+300", "1e-300"))
        assert run_cli("sweep", "--input", path, "--genes", "1:2", "--heads", "4:5",
                       "--max-generations", 2, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "record 'X': ay_ratio not finite" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o" / "sweep.csv").exists()

    def test_evolves_without_the_case_table(self, tmp_path, monkeypatch):
        # the engine reads only X, y: the table and its ids are freed before
        # the grid runs, and the artifacts keep their golden bytes
        tables, alive = [], []
        synthesize, sweep = data.synthesize, evolution.sweep

        def keep_ref(*args, **kwargs):
            table = synthesize(*args, **kwargs)
            tables.append(weakref.ref(table))
            return table

        def spy(*args, **kwargs):
            alive.append([ref() is not None for ref in tables])
            return sweep(*args, **kwargs)

        monkeypatch.setattr(data, "synthesize", keep_ref)
        monkeypatch.setattr(evolution, "sweep", spy)
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["sweep"]
        assert run_cli(*golden["argv"], "--out", tmp_path) == 0
        assert alive == [[False]]
        assert (hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest()
                == golden["sha256"]["sweep.csv"])


@pytest.mark.parametrize("argv", [
    ["sweep", "--genes", "3,0"],
    ["sweep", "--genes", "x"],
    ["sweep", "--heads", ","],
    ["sweep", "--config", "bad.cfg"],
    ["fit", "--config", "bad.cfg"],
    ["fit", "--config", "missing.cfg"],
    ["split", "--trials", "0"],
    ["split", "--fraction", "1.5"],
    ["fit", "--trials", "0"],
])
def test_bad_config_or_grid_exits_2_before_writing_data(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    Path("bad.cfg").write_text("bad = 1\n", encoding="utf-8")
    assert run_cli(*argv, "--synth", 20, "--out", "o") == 2
    assert not Path("o").exists()


@pytest.mark.parametrize("argv, message", [
    (["split", "--synth", "1"], "argument --synth: must be an integer >= 2, got '1'"),
    (["split", "--synth", "-5"], "argument --synth: must be an integer >= 2, got '-5'"),
    (["stats", "--synth", "10", "--seed", "-1"],
     "argument --seed: must be an integer >= 0, got '-1'"),
    (["split", "--synth", "10", "--fraction", "x"],
     "argument --fraction: must be a number > 0 and < 1, got 'x'"),
    (["predict", "--model", "gep", "--synth", "10", "--pole-eps", "x"],
     "argument --pole-eps: must be a number > 0, got 'x'"),
    (["fit", "--synth", "10", "--max-generations", "-1"],
     "argument --max-generations: must be an integer >= 0, got '-1'"),
    (["stats", "--input", "missing.csv"], "No such file or directory: 'missing.csv'"),
    (["stats", "--input", "bad_header.csv"], "bad header (missing column(s): Vs_mps)"),
    (["stats", "--input", "extra_column.csv"], "bad header (unexpected column(s): note)"),
    (["stats", "--input", "swapped_columns.csv"], "bad header (columns are out of order)"),
    (["predict", "--model", "gep", "--input", "return_id.csv"],
     "line 4: id 'B\\rB' holds a carriage return"),
    # a synthesized table too small for the command is not written either
    (["split", "--synth", "3"], "need at least 4 records to split, got 3"),
    (["fit", "--synth", "4", "--trials", "5", "--max-generations", "1"],
     "Validation: the set has 1 row(s), at least 2 are needed to score it"),
], ids=["synth_one", "synth_negative", "seed_negative", "fraction_not_a_number",
        "pole_eps_not_a_number", "max_generations_negative", "input_missing",
        "input_bad_header", "input_extra_column", "input_swapped_columns",
        "input_carriage_return_id", "split_synth_too_small",
        "fit_synth_too_small"])
def test_bad_option_or_input_exits_2_before_making_the_out_dir(tmp_path, monkeypatch, capsys,
                                                              argv, message):
    monkeypatch.chdir(tmp_path)
    Path("bad_header.csv").write_text(HEADER.rpartition(",")[0] + "\n", encoding="utf-8")
    Path("extra_column.csv").write_text(HEADER + ",note\n", encoding="utf-8")
    Path("swapped_columns.csv").write_text(HEADER.replace("id,Mw", "Mw,id") + "\n",
                                           encoding="utf-8")
    write_cases(tmp_path, [case_row("A"), case_row('"B\rB"')], name="return_id.csv")
    assert run_cli(*argv, "--out", "o") == 2
    err = capsys.readouterr().err
    assert message in err
    # a bad option is argparse's error, with its usage line
    assert ("usage:" in err) == message.startswith("argument ")
    assert not Path("o").exists()


def test_every_checked_option_names_itself_on_text_that_is_not_a_number(tmp_path, capsys):
    [commands] = [action for action in cli.build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
    checked = set()
    for command, parser in commands.choices.items():
        for action in parser._actions:
            if not getattr(action.type, "__qualname__", "").startswith("_option."):
                continue
            option = action.option_strings[0]
            out = tmp_path / command / option
            # argparse converts an option's value as it reads it, so the
            # command's other required options need not be given
            assert run_cli(command, option, "x", "--out", out) == 2
            err = capsys.readouterr().err
            assert f"argument {option}: must be " in err and "got 'x'" in err
            assert "usage:" in err and "invalid _" not in err
            assert not out.exists()
            checked.add(option)
    assert checked == {"--seed", "--synth", "--trials", "--fraction", "--pole-eps",
                       "--max-generations", "--steps"}


def test_ids_with_commas_quotes_and_line_feeds_read_back_from_every_table(tmp_path):
    ids = ("plain", "a,b", 'say "hi"', "two\nlines", ',"\n""')
    table = data.synthesize(data.EMBANKMENT_SUMMARY, len(ids), np.random.default_rng(3))
    cases = tmp_path / "cases.csv"
    data.save(dataclasses.replace(table, ids=ids), cases)
    assert run_cli("predict", "--model", "gep", "--input", cases, "--out", tmp_path / "p") == 0
    assert run_cli("compare", "--input", cases, "--out", tmp_path / "c") == 0
    for path in (tmp_path / "p" / "predictions.csv", tmp_path / "c" / "relative_error_gep.csv"):
        with open(path, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert header[0] == "id"
        assert [row[0] for row in rows] == list(ids)
        assert {len(row) for row in rows} == {len(header)}


@pytest.mark.parametrize("argv, reads_config", [
    (["fit", "--trials", "5"], True),
    (["sweep", "--genes", "1", "--heads", "4"], True),
    (["stats"], False),
])
def test_manifest_digests_the_input_and_config_files(tmp_path, argv, reads_config):
    cases, cfg = tmp_path / "cases.csv", tmp_path / "run.cfg"
    data.save(data.synthesize(data.EMBANKMENT_SUMMARY, 20, np.random.default_rng(0)), cases)
    cfg.write_text("number_of_chromosomes = 6\nmax_generations = 1\n", encoding="utf-8")
    options = ["--config", cfg] if reads_config else []
    assert run_cli(*argv, *options, "--input", cases, "--out", tmp_path / "o") == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    read = [cases, cfg] if reads_config else [cases]
    assert manifest["inputs"] == {str(p): "sha256:" + hashlib.sha256(p.read_bytes()).hexdigest()
                                  for p in read}


FIT_ONCE = ["--trials", "5", "--max-generations", "1"]
SWEEP_ONCE = ["--genes", "1", "--heads", "4", "--max-generations", "1"]


@pytest.mark.parametrize("argv", [
    ["stats", "--synth", "20"],
    ["stats", "--input", "cases.csv"],
    ["split", "--trials", "5", "--synth", "20"],
    ["split", "--trials", "5", "--input", "cases.csv"],
    ["fit", *FIT_ONCE, "--synth", "20"],
    ["fit", *FIT_ONCE, "--input", "cases.csv", "--config", "run.cfg"],
    ["predict", "--model", "gep", "--synth", "20"],
    ["predict", "--model", "gep", "--input", "cases.csv"],
    ["compare", "--synth", "20"],
    ["compare", "--input", "cases.csv"],
    ["sensitivity", "--from", "5", "--to", "8", "--steps", "4"],
    ["sweep", *SWEEP_ONCE, "--synth", "20"],
    ["sweep", *SWEEP_ONCE, "--input", "cases.csv", "--config", "run.cfg"],
], ids=lambda argv: "-".join([argv[0], *(a[2:] for a in argv if a in ("--synth", "--input"))]))
def test_manifest_lists_exactly_what_the_command_read_and_wrote(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    data.save(data.synthesize(data.EMBANKMENT_SUMMARY, 20, np.random.default_rng(0)),
              "cases.csv")
    Path("run.cfg").write_text("number_of_chromosomes = 6\n", encoding="utf-8")
    assert run_cli(*argv, "--out", "o") == 0

    def digests(paths):
        return {name: "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()
                for name, path in paths}

    manifest = json.loads(Path("o", "manifest.json").read_text())
    read = [argv[i + 1] for i, option in enumerate(argv) if option in ("--input", "--config")]
    assert manifest["inputs"] == digests((name, Path(name)) for name in read)
    assert manifest["outputs"] == digests((path.name, path) for path in Path("o").iterdir()
                                          if path.name != "manifest.json")
    assert ("synthetic_input.csv" in manifest["outputs"]) == ("--synth" in argv)


@pytest.mark.parametrize("option, text, message", [
    ("--genes", "x", "--genes 'x': expected integers as lo:hi or a,b,..."),
    ("--genes", "1:", "--genes '1:': expected integers as lo:hi or a,b,..."),
    ("--heads", "4:6:8", "--heads '4:6:8': expected integers as lo:hi or a,b,..."),
    ("--genes", ",", "--genes ',': the grid is empty"),
    ("--heads", "7:5", "--heads '7:5': the grid is empty"),
    # a length past sys.maxsize, and one past what a list may hold, which
    # fails before anything is allocated
    ("--heads", "1:9223372036854775808", "--heads '1:9223372036854775808': the grid is too"
     " large to build"),
    ("--genes", "1:2000000000000000000", "--genes '1:2000000000000000000': the grid is too"
     " large to build"),
])
def test_bad_grid_error_names_the_option_and_text(tmp_path, capsys, option, text, message):
    assert run_cli("sweep", "--synth", 20, option, text, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("exc", [MemoryError(), ValueError(), OSError()])
def test_an_error_without_a_message_is_named_by_its_type(tmp_path, capsys, monkeypatch, exc):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_stats", fail)
    assert run_cli("stats", "--synth", 10, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == f"error: {type(exc).__name__}\n"


def test_sweep_workers_exception_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    parent, real_run = os.getpid(), evolution.run

    def run_one_column_in_worker(config, X, y, rng):
        return real_run(config, X if os.getpid() == parent else X[:, :1], y, rng)

    monkeypatch.setattr(evolution, "run", run_one_column_in_worker)
    assert run_cli("sweep", "--synth", 20, "--genes", "1:2", "--heads", 4, "--max-generations", 1,
                   "--out", tmp_path / "o") == 2
    assert "but X has 1 column(s)" in capsys.readouterr().err
    assert not (tmp_path / "o" / "sweep.csv").exists()
    assert not (tmp_path / "o").exists()


def run_capped(tmp_path, *argv):
    """The CLI run with ``argv`` in a child process that may map 3 GB, so an
    allocation of tens of GiB fails the same way on every host."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (3_000_000_000, 3_000_000_000))\n"
            "from embgep.cli import main\n"
            "sys.exit(main(sys.argv[1:]))")
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path, env=env,
                          capture_output=True, text=True)


@pytest.mark.skipif(sys.platform != "linux", reason="caps the child's address space")
@pytest.mark.parametrize("command, argv", [
    ("sweep", ["--genes", "1", "--heads", "100000000", "--max-generations", "0"]),
    ("fit", ["--config", "big.cfg"]),
])
def test_geometry_too_large_to_allocate_exits_2_and_leaves_no_out_dir(tmp_path, command, argv):
    # the population arrays of either run need tens of GiB
    (tmp_path / "big.cfg").write_text("number_of_chromosomes = 1000000000\n")
    proc = run_capped(tmp_path, command, "--synth", "10", *argv, "--out", "o")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: Unable to allocate") and "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.skipif(sys.platform != "linux", reason="caps the child's address space")
def test_grid_too_large_to_list_exits_2_naming_the_option(tmp_path):
    # a list of 10**11 heads needs 800 GB
    proc = run_capped(tmp_path, "sweep", "--synth", "10", "--heads", "1:100000000000",
                      "--max-generations", "0", "--out", "o")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: --heads '1:100000000000': the grid is too large to build\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("cpus", [1, 3])
def test_manifest_records_environment_and_sweep_workers(tmp_path, monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    assert run_cli("sweep", "--synth", 20, "--genes", "1:2", "--heads", 4, "--max-generations", 1,
                   "--out", tmp_path / "sweep") == 0
    assert run_cli("stats", "--synth", 20, "--out", tmp_path / "stats") == 0
    sweep_manifest, stats_manifest = (json.loads((tmp_path / name / "manifest.json").read_text())
                                      for name in ("sweep", "stats"))
    assert sweep_manifest["workers"] == min(2, cpus) and "workers" not in stats_manifest
    for manifest in (sweep_manifest, stats_manifest):
        assert manifest["environment"] == {"python": platform.python_version(),
                                           "numpy": np.__version__}


def test_engine_stage_timings_only_in_the_manifest(tmp_path):
    for command, extra in (("fit", ("--trials", 5)), ("sweep", ("--genes", 1, "--heads", 4))):
        out = tmp_path / command
        assert run_cli(command, "--synth", 20, "--max-generations", 3, *extra, "--out", out) == 0
        timings = json.loads((out / "manifest.json").read_text())["timings_s"]
        assert set(timings) == set(evolution.STAGES)
        assert all(seconds >= 0.0 for seconds in timings.values()) and timings["evaluation"] > 0
    assert run_cli("stats", "--synth", 20, "--out", tmp_path / "stats") == 0
    assert "timings_s" not in json.loads((tmp_path / "stats" / "manifest.json").read_text())


ENGINE_MODULES = {"embgep.evolution", "embgep.karva", "embgep.kernels"}


def modules_after(code: str, prefix: str = "embgep") -> set[str]:
    """The modules under ``prefix`` loaded after running ``code`` in a fresh
    interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    code += f"\nimport sys; print(' '.join(m for m in sys.modules if m.startswith({prefix!r})))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    return set(proc.stdout.split())


def test_closed_form_commands_load_no_engine(tmp_path):
    loaded = modules_after(
        "from embgep.cli import main\n"
        f"assert main(['stats', '--synth', '20', '--out', {str(tmp_path / 's')!r}]) == 0\n"
        "assert main(['sensitivity', '--from', '5', '--to', '8', '--steps', '4',"
        f" '--out', {str(tmp_path / 'v')!r}]) == 0"
    )
    assert "embgep.cli" in loaded and not loaded & ENGINE_MODULES
    loaded = modules_after("import embgep.data")
    assert "embgep.data" in loaded and not loaded & (ENGINE_MODULES | {"embgep.metrics"})


def test_commands_reading_input_build_no_rng(tmp_path):
    # stream 0 of the seed is kept for synthesis; stats, predict and compare
    # draw no other, so with --input they build no generator at all
    path = write_cases(tmp_path, [case_row("A"), case_row("B", m_w=6.5)])
    code = "from embgep.cli import main\n"
    for argv in (["stats"], ["predict", "--model", "jibson"], ["compare"]):
        argv += ["--input", str(path), "--out", str(tmp_path / argv[0])]
        code += f"assert main({argv!r}) == 0\n"
    assert modules_after(code, prefix="numpy.random") == set()


def blas_setting_and_threads(env_value: str | None) -> tuple[str, int | None]:
    """``OPENBLAS_NUM_THREADS`` and the thread count (None without /proc) of
    a fresh interpreter after ``import embgep.cli``, started with the
    variable unset or set to ``env_value``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if env_value is not None:
        env["OPENBLAS_NUM_THREADS"] = env_value
    code = ("import os, embgep.cli\n"
            "status = '/proc/self/status'\n"
            "lines = open(status).readlines() if os.path.exists(status) else ['Threads: -1']\n"
            "threads = next(line for line in lines if line.startswith('Threads:')).split()[1]\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'], threads)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    value, threads = proc.stdout.split()
    return value, None if threads == "-1" else int(threads)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="counts threads in /proc")
def test_cli_starts_numpy_with_one_blas_thread():
    # no command calls a BLAS routine, so an OpenBLAS worker would only spin
    assert blas_setting_and_threads(None) == ("1", 1)


def test_cli_keeps_the_users_blas_thread_setting():
    assert blas_setting_and_threads("2")[0] == "2"


GOLDEN = Path(__file__).resolve().parent / "fixtures" / "golden_digests.json"


class TestDeterminism:
    @staticmethod
    def digests(outdir):
        out = {}
        for path in sorted(outdir.iterdir()):
            if path.name == "manifest.json":
                continue
            out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        return out

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("stats", "--synth", 30, "--seed", 11, "--out", out) == 0
        assert self.digests(a) == self.digests(b)
        ma = json.loads((a / "manifest.json").read_text())
        mb = json.loads((b / "manifest.json").read_text())
        assert ma["outputs"] == mb["outputs"]

    @pytest.mark.parametrize("command", ["fit", "sweep", "stats", "split", "predict", "compare",
                                         "sensitivity", "sensitivity_family", "split_5000",
                                         "compare_5000"])
    def test_same_seed_artifacts_match_the_golden_digests(self, tmp_path, command):
        # the digests pin the engine's RNG stream and arithmetic, and the
        # closed-form layer's CSV reading, writing and formulas, across
        # commits; a change that alters any of them on purpose updates the
        # fixture and says why
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[command]
        assert run_cli(*golden["argv"], "--out", tmp_path) == 0
        digests = self.digests(tmp_path)
        assert {name: digests[name] for name in golden["sha256"]} == golden["sha256"]


# valid in every numeric column: the edges of the float range and padding
EDGE_CELLS = ["5e-324", "1e-308", "1e-300", "1e300", "1e308", " 0.3 ", "1.0", "0.999"]
# any cell, valid or not in a given column
FUZZ_CELLS = ["", " ", "nan", "inf", "-inf", "0", "-0.0", "-2", "x", "R0", "5e-324", "1e-308",
              "1e308", "-1e308", " 0.3 "]
ORDINARY = ("7.0", "0.3", "0.4", "0.6", "0.09", "0.5", "0.5", "", "")


@st.composite
def fuzzed_csv(draw, ordinary_weight=4) -> str:
    """Rows of ordinary cells and float-range edges, each ordinary cell drawn
    ``ordinary_weight`` times as often as one edge; up to two cells are
    replaced by any of FUZZ_CELLS, and now and then a row is cut short."""
    n = draw(st.integers(1, 6))
    rows = [[f"R{i}"] + [draw(st.sampled_from([cell] * ordinary_weight + EDGE_CELLS))
                         for cell in ORDINARY]
            for i in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, 9))] = draw(
            st.sampled_from(FUZZ_CELLS))
    if draw(st.integers(0, 9)) == 0:
        rows[draw(st.integers(0, n - 1))].pop()
    return "\n".join([HEADER] + [",".join(row) for row in rows]) + "\n"


@settings(max_examples=250, deadline=None)
@given(fuzzed_csv(), st.sampled_from([2, 3, 4096]),
       st.sampled_from(displacement.MODEL_IDS), st.booleans())
def test_fuzzed_cells_exit_0_or_2(text, block_rows, model, ambraseys_cm):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cases.csv"
        path.write_text(text, encoding="utf-8")
        try:
            expected, message = reference_load(path), None
        except data.DatasetError as exc:
            expected, message = None, str(exc)
        with mock.patch.object(data, "_BLOCK_ROWS", block_rows):
            if message is None:
                assert data.load(path) == expected
            else:  # the first bad cell is named, with today's wording
                with pytest.raises(data.DatasetError) as info:
                    data.load(path)
                assert str(info.value) == message
        predict = ["predict", "--model", model] + (["--ambraseys-cm"] if ambraseys_cm else [])
        assert_exit_0_or_2(Path(tmp), message, ["stats"], predict, ["compare"],
                           *evolving_commands(Path(tmp)))


def evolving_commands(tmp: Path) -> list[list[str]]:
    """split, fit and sweep argv with few trials, a 2x2 grid and a
    4-chromosome, 1-generation run."""
    cfg = tmp / "gep.cfg"
    cfg.write_text("number_of_chromosomes = 4\nmax_generations = 1\n", encoding="utf-8")
    return [["split", "--trials", "5"], ["fit", "--trials", "5", "--config", str(cfg)],
            ["sweep", "--genes", "1:2", "--heads", "1:2", "--config", str(cfg)]]


def assert_exit_0_or_2(tmp: Path, message, *argvs):
    """Each command on ``tmp/cases.csv`` exits 0 or 2 without a traceback; a
    load error ``message`` is the error of every command."""
    for argv in argvs:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([*argv, "--input", str(tmp / "cases.csv"), "--out", str(tmp / argv[0])])
        assert code in (0, 2), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("error: ")
        if message is not None:
            assert code == 2 and message in err.getvalue()


@settings(max_examples=100, deadline=None)
@given(fuzzed_csv(ordinary_weight=40))
def test_fuzzed_mostly_ordinary_tables_split_and_fit_exit_0_or_2(text):
    # with few edge cells some tables load and pass the split's overflow
    # check, so split writes files and fit reaches the evolution
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cases.csv"
        path.write_text(text, encoding="utf-8")
        try:
            reference_load(path)
            message = None
        except data.DatasetError as exc:
            message = str(exc)
        assert_exit_0_or_2(Path(tmp), message, *evolving_commands(Path(tmp)))


# small integers only, so that no drawn config asks for a large population
CONFIG_VALUES = {
    "int": ["-1", "0", "1", "2", "3", " 4 ", "+2", "1_0", "1.5", "nan", "inf", "x", ""],
    "rate": ["0", "0.1", "1", "1.0", "-0.1", "1.5", "-0", "nan", "inf", "-inf", "1e-320", "x", ""],
    "linking_function": ["+", "*", ""],
    "function_set": ["+, -, *, /", "+,-,*,/", "+, -", "x"],
}
CONFIG_KEYS = ([(key, "int") for key in evolution._INT_KEYS]
               + [(key, "rate") for key in evolution._RATE_KEYS]
               + [("linking_function", "linking_function"), ("function_set", "function_set")]
               + [(key, "rate") for key in ("population_size", "Mutation", "rate of mutation", "")])
CONFIG_SEPARATORS = [" = ", "=", "\t=\t", " == ", ": ", " ", ""]


@st.composite
def fuzzed_config(draw) -> str:
    """Config text of up to 5 ``key sep value`` lines after one that keeps
    the run to 1 generation: known and unknown keys, good and bad
    separators and values, now and then a comment or a blank line."""
    lines = ["max_generations = 1"]
    for _ in range(draw(st.integers(0, 5))):
        key, kind = draw(st.sampled_from(CONFIG_KEYS))
        separator = draw(st.sampled_from(CONFIG_SEPARATORS))
        line = key + separator + draw(st.sampled_from(CONFIG_VALUES[kind]))
        lines.append(draw(st.sampled_from([line, line, line, "# " + line, ""])))
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def small_cases(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("config_fuzz")
    data.save(data.synthesize(data.EMBANKMENT_SUMMARY, 12, np.random.default_rng(5)),
              tmp / "cases.csv")
    return tmp


@settings(max_examples=60, deadline=None)
@given(text=fuzzed_config())
def test_fuzzed_config_text_exits_0_or_2(small_cases, text):
    (small_cases / "gep.cfg").write_text(text, encoding="utf-8")
    cfg = str(small_cases / "gep.cfg")
    assert_exit_0_or_2(small_cases, None, ["fit", "--trials", "3", "--config", cfg],
                       ["sweep", "--genes", "1:2", "--heads", "1:2", "--config", cfg])
