"""Acceptance gate: one test per shipped criterion, at the stated tolerances.

Each test prints a CRITERION line (visible with -s / -rA); the pytest -v
verdict per test is the official pass/fail record.

Criterion 8c is a known red: the exact-arithmetic oracle refutes the stated
period-ratio trend for the formula itself (ln D has a local maximum near
T_d/T_p = 1.80 at the mean anchors before its decreasing branch), so no
implementation that reproduces the formula (criterion 1) can satisfy the
trend as stated.  The test asserts the stated trend anyway and documents
the refutation in its assertion message.
"""

import csv
import hashlib
import itertools
import json
import math
import time

import numpy as np
import pytest

import oracles
from embgep import data, displacement, evolution, karva, metrics
from embgep.cli import main as cli_main

PASS = "CRITERION {n} PASS: {msg}"


def run_cli(*argv):
    return cli_main([str(a) for a in argv])


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def assert_all_cells_finite(path):
    for row in read_rows(path):
        for value in row.values():
            if value in ("", None):
                continue
            try:
                num = float(value)
            except ValueError:
                continue
            assert math.isfinite(num), f"non-finite value {value!r} leaked into {path.name}"


def test_criterion_01_gep_formula_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    checked = 0
    worst = 0.0
    while checked < 100:
        m_w = float(rng.uniform(4.9, 8.3))
        x = float(rng.uniform(0.0, 3.5))
        r = float(rng.uniform(0.117, 4.0))
        if abs(5.55 * r - 7.052) < 0.05:
            continue
        got = displacement.gep_ln_displacement(m_w, x, r)
        exact = float(oracles.gep_formula_exact(m_w, x, r))
        worst = max(worst, abs(got - exact))
        assert abs(got - exact) <= 1e-9
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(PASS.format(n=1, msg=f"100 grid points, worst |err| = {worst:.2e}, {elapsed:.3f}s"))


def one_row(model_id, **inputs):
    """The value of one row through ``displacement.evaluate``."""
    return float(displacement.evaluate(model_id, {k: [v] for k, v in inputs.items()}).value[0])


def test_criterion_02_baseline_oracle_equivalence():
    rng = np.random.default_rng(77)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        x_mid = float(rng.uniform(0.05, 0.95))
        x_hg = float(rng.uniform(0.01, 0.6))
        x_md = float(rng.uniform(0.1, 0.9))
        a_max = float(rng.uniform(0.06, 0.9))
        t_m = float(rng.uniform(0.2, 1.2))
        pairs = (
            (one_row("hynes_griffin", ay_ratio=x_hg), oracles.hynes_griffin_exact(x_hg)),
            (one_row("ambraseys_menu", ay_ratio=x_mid), oracles.ambraseys_menu_exact(x_mid)),
            (one_row("jibson", ay_ratio=x_mid), oracles.jibson_exact(x_mid)),
            (one_row("saygili_rathje", a_max=a_max, ay_ratio=x_mid),
             oracles.saygili_rathje_exact(a_max, x_mid)),
            (one_row("madiai", ay_ratio=x_md), oracles.madiai_exact(x_md)),
            (one_row("tsai_chien", a_max=a_max, ay_ratio=x_mid, t_m=t_m),
             oracles.tsai_chien_exact(a_max, x_mid, t_m)),
        )
        for got, exact in pairs:
            err = abs(got - float(exact))
            worst = max(worst, err)
            assert err <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(PASS.format(n=2, msg=f"6 models x 100 points, worst |err| = {worst:.2e}, {elapsed:.3f}s"))


def test_criterion_03_pole_safety_across_paths(tmp_path):
    pole = displacement.POLE_PERIOD_RATIO
    eps = displacement.DEFAULT_POLE_EPS

    # direct calls: typed error, never a non-finite number
    for offset in (0.0, 0.5 * eps, -0.9 * eps):
        with pytest.raises(displacement.PoleError):
            displacement.gep_ln_displacement(7.0, 0.5, pole + offset)

    header = "id,Mw,amax_g,Tp_s,Td_s,ay_g,D_m,Tm_s,H_m,Vs_mps"
    near = pole + 0.4 * eps
    csv_path = tmp_path / "pole.csv"
    csv_path.write_text(
        header + f"\nP,7.0,0.3,1.0,{near!r},0.09,0.5,0.5,,\nQ,7.0,0.3,0.4,0.6,0.09,0.5,0.5,,\n",
        encoding="utf-8",
    )

    out_p = tmp_path / "predict"
    assert run_cli("predict", "--model", "gep", "--input", csv_path, "--out", out_p) == 0
    rows = read_rows(out_p / "predictions.csv")
    assert rows[0]["status"] == "pole" and rows[0]["value"] == ""
    assert rows[1]["status"] == "ok"
    assert_all_cells_finite(out_p / "predictions.csv")

    out_c = tmp_path / "compare"
    assert run_cli("compare", "--input", csv_path, "--out", out_c) == 0
    gep_rows = read_rows(out_c / "relative_error_gep.csv")
    assert {r["id"]: r["status"] for r in gep_rows}["P"] == "pole"
    for f in out_c.glob("*.csv"):
        assert_all_cells_finite(f)

    out_s = tmp_path / "sens"
    assert run_cli("sensitivity", "--param", "period_ratio", "--from", pole - 3 * eps,
                   "--to", pole + 3 * eps, "--steps", 13, "--out", out_s) == 0
    sens = read_rows(out_s / "sensitivity.csv")
    assert any(r["status"] == "pole" for r in sens)
    assert_all_cells_finite(out_s / "sensitivity.csv")
    print(PASS.format(n=3, msg="pole inputs come back typed/marked in predict, compare, sensitivity"))


def test_criterion_04_metric_identities():
    ym = np.array([0.3, 1.7, 2, 5.5])
    p = metrics.PredictionSet(ym, ym.copy())
    exact = (
        metrics.r_squared(p), metrics.mae_paper(p), metrics.rmse(p),
        metrics.scatter_index(p), metrics.bias(p),
    )
    assert exact == (1.0, 0.0, 0.0, 0.0, 0.0)

    rng = np.random.default_rng(404)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        pset = metrics.PredictionSet(rng.normal(0, 3, n), rng.normal(0, 3, n))
        assert metrics.bias(pset) <= metrics.rmse(pset) + 1e-12
    for _ in range(1000):
        errs = rng.normal(0, 100, int(rng.integers(1, 50)))
        grid = np.sort(rng.uniform(-300, 300, 25))
        fracs = metrics.cumulative_frequency(errs, grid)
        assert np.all(np.diff(fracs) >= 0) and np.all((fracs >= 0) & (fracs <= 1))
    print(PASS.format(n=4, msg="(1,0,0,0,0) exact; bias<=rmse and monotone cumfreq on 10^3 sets"))


def test_criterion_05_genome_structural_soundness():
    config = evolution.GepConfig(num_chromosomes=50, num_inputs=3)  # published defaults
    rng = np.random.default_rng(9001)
    codes, pools = evolution.initialize(config, rng)
    rounds = 2000  # 2000 rounds x 50 chromosomes = 1e5 suite applications
    applications = 0
    for _ in range(rounds):
        evolution.apply_operators(codes, pools, config, rng)
        applications += len(codes)
        for chrom in oracles.population_views(codes, pools, config.num_inputs):
            assert len(chrom.genes) == config.num_genes
            for gene in chrom.genes:
                assert gene.head_length == config.head_size
                assert gene.length == config.gene_length
                assert all(s.is_terminal for s in gene.tail)
                assert len(gene.constants) == karva.POOL_SIZE
    assert applications == 100_000

    head_alphabet = "+ - * / d0 d1 c0 c1".split()
    tail_alphabet = "d0 d1 c0 c1".split()
    pool = tuple(float(i) for i in range(10))
    count = 0
    for head in itertools.product(head_alphabet, repeat=2):
        for tail in itertools.product(tail_alphabet, repeat=3):
            symbols = [karva.parse_symbol(t) for t in head + tail]
            gene = karva.Gene(tuple(symbols[:2]), tuple(symbols[2:]), pool)
            tree = oracles.decode(gene)
            assert tree.size == karva.consumed_length(gene) <= gene.length
            stack = [tree]
            while stack:
                node = stack.pop()
                assert len(node.children) == (0 if node.symbol.is_terminal else 2)
                stack.extend(node.children)
            count += 1
    assert count == 4096
    print(PASS.format(n=5, msg="10^5 operator applications, 0 violations; 4096 genes decode clean"))


def test_criterion_06_gep_recovery():
    data_rng = np.random.default_rng(123)
    X = data_rng.uniform(0.0, 1.0, (50, 2))
    y = X[:, 0] + 2.0 * X[:, 1] + data_rng.normal(0.0, 0.01, 50)

    target_fitness = 950.0
    success_seed = None
    tried = []
    for seed in range(10):
        config = evolution.GepConfig(
            num_inputs=2, rng_seed=seed, max_generations=2000, stagnation_limit=2000
        )
        t0 = time.perf_counter()
        result = evolution.run(config, X, y)
        elapsed = time.perf_counter() - t0
        assert elapsed <= 60.0, f"seed {seed} took {elapsed:.1f}s"
        hist = result.report.per_generation_best
        assert all(b >= a for a, b in zip(hist, hist[1:])), "elitism violated"
        tried.append((seed, result.report.fitness, elapsed))
        if result.report.fitness >= target_fitness:
            success_seed = seed
            assert result.report.rmse <= 1000.0 / target_fitness - 1.0 + 1e-12
            break
    assert success_seed is not None, f"no seed reached {target_fitness}: {tried}"
    print(PASS.format(
        n=6,
        msg=f"seed {success_seed} reached fitness "
            f"{tried[-1][1]:.1f} in {tried[-1][2]:.1f}s (<= 60s)",
    ))


def test_criterion_07_split_contract():
    records = data.synthesize(data.EMBANKMENT_SUMMARY, 85, np.random.default_rng(1))
    probe = data.split_matched(records, 0.75, trials=5, rng=np.random.default_rng(0))
    assert (len(probe.train), len(probe.test)) == (63, 22)

    n_seeds = 50
    single = [
        data.split_matched(records, 0.75, trials=1, rng=np.random.default_rng(1000 + s)).score
        for s in range(n_seeds)
    ]
    median_single = float(np.median(single))
    matched = [
        data.split_matched(records, 0.75, trials=10_000, rng=np.random.default_rng(2000 + s)).score
        for s in range(n_seeds)
    ]
    wins = sum(score <= median_single for score in matched)
    assert wins >= math.ceil(0.95 * n_seeds), f"{wins}/{n_seeds} matched splits beat the median"
    print(PASS.format(n=7, msg=f"63/22 counts; matched <= single-trial median in {wins}/{n_seeds} seeds"))


MW, XR, PR = (displacement.MEAN_MW, displacement.MEAN_AY_RATIO, displacement.MEAN_PERIOD_RATIO)


def test_criterion_08a_magnitude_trend():
    grid = [float(v) for v in np.linspace(4.9, 8.3, 35)]
    oracle_vals = [float(oracles.gep_formula_exact(m, XR, PR)) for m in grid]
    assert all(b > a for a, b in zip(oracle_vals, oracle_vals[1:])), "oracle refutes the trend"
    got = displacement.sensitivity_profile("Mw", grid).value.tolist()
    assert all(b > a for a, b in zip(got, got[1:]))
    print(PASS.format(n="8a", msg="ln D strictly increases in Mw over [4.9, 8.3] (oracle-confirmed)"))


def test_criterion_08b_ay_ratio_anchor_comparison():
    assert float(oracles.gep_formula_exact(MW, 1.0, PR)) < float(oracles.gep_formula_exact(MW, 0.5, PR))
    lo, hi = displacement.sensitivity_profile("ay_ratio", [0.5, 1.0]).value.tolist()
    assert hi < lo
    print(PASS.format(n="8b", msg="ln D at ay_ratio 1.0 < at 0.5 (oracle-confirmed)"))


def test_criterion_08c_period_ratio_trend_as_stated():
    """As stated: ln D strictly decreases in period_ratio over [1.5, 4.0].

    The exact-arithmetic oracle refutes this for the formula as published:
    at the mean anchors ln D rises from r = 1.5 to a local maximum near
    r = 1.80 and only then falls (it does decrease strictly on [1.9, 4.0]).
    Kept faithful to the stated range, and therefore red.
    """
    grid = [float(v) for v in np.linspace(1.5, 4.0, 35)]
    oracle_vals = [float(oracles.gep_formula_exact(MW, XR, r)) for r in grid]
    assert all(b < a for a, b in zip(oracle_vals, oracle_vals[1:])), (
        "oracle refutes the stated trend: ln D is not strictly decreasing on "
        "[1.5, 4.0] (local max near r = 1.80); it does decrease strictly on [1.9, 4.0]"
    )
    got = displacement.sensitivity_profile("period_ratio", grid).value.tolist()
    assert all(b < a for a, b in zip(got, got[1:]))
    print(PASS.format(n="8c", msg="ln D strictly decreases in period_ratio over [1.5, 4.0]"))


def test_criterion_09_published_numbers_documented_irreproducible(tmp_path):
    from pathlib import Path

    raw = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    readme = " ".join(raw.replace("*", " ").split())
    assert "not publicly available" in readme or "not published" in readme
    assert "cannot be reproduced" in readme

    out = tmp_path / "fit"
    assert run_cli("fit", "--synth", 85, "--seed", 13, "--max-generations", 10,
                   "--trials", 50, "--out", out) == 0
    rows = read_rows(out / "metrics.csv")
    assert [r["stage"] for r in rows] == ["Training", "Validation", "All data"]
    assert [int(r["n"]) for r in rows] == [63, 22, 85]
    for row in rows:
        for col in ("r_squared", "mae_paper", "rmse", "scatter_index", "bias"):
            assert math.isfinite(float(row[col]))
    print(PASS.format(n=9, msg="irreproducibility documented; report layout reproduced on synthetic data"))


def _digests(outdir):
    out = {}
    for path in sorted(outdir.iterdir()):
        if path.name == "manifest.json":
            continue
        out[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_criterion_10_cli_determinism(tmp_path):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("number_of_chromosomes = 10\nmax_generations = 3\n", encoding="utf-8")
    pole = displacement.POLE_PERIOD_RATIO
    commands = {
        "stats": ["stats", "--synth", 40, "--seed", 5],
        "split": ["split", "--synth", 40, "--seed", 5, "--trials", 100],
        "fit": ["fit", "--synth", 40, "--seed", 5, "--config", cfg, "--trials", 20],
        "predict": ["predict", "--model", "gep", "--synth", 40, "--seed", 5],
        "compare": ["compare", "--synth", 40, "--seed", 5],
        "sensitivity": ["sensitivity", "--param", "period_ratio", "--from", 1.2,
                        "--to", pole + 2.0, "--steps", 21],
        "sweep": ["sweep", "--synth", 20, "--seed", 5, "--config", cfg,
                  "--genes", "1:2", "--heads", "4,5"],
    }
    for name, argv in commands.items():
        out_a = tmp_path / f"{name}_a"
        out_b = tmp_path / f"{name}_b"
        assert run_cli(*argv, "--out", out_a) == 0, name
        assert run_cli(*argv, "--out", out_b) == 0, name
        assert _digests(out_a) == _digests(out_b), f"{name} outputs differ between reruns"
        ma = json.loads((out_a / "manifest.json").read_text())
        mb = json.loads((out_b / "manifest.json").read_text())
        assert ma["outputs"] == mb["outputs"], f"{name} manifests disagree on digests"
        assert set(ma["outputs"]) == set(_digests(out_a)), f"{name} manifest misses artifacts"
    print(PASS.format(n=10, msg="all 7 commands byte-identical across reruns (manifest digest match)"))
