import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embgep import data
from references import reference_load

from embgep.data import (
    EMBANKMENT_SUMMARY,
    GENERATION_TOLERANCE,
    CaseHistory,
    DatasetError,
    ParamStats,
    load,
    match_score,
    regression_arrays,
    save,
    split_matched,
    split_records,
    summarize,
    synthesize,
)

HEADER = "id,Mw,amax_g,Tp_s,Td_s,ay_g,D_m,Tm_s,H_m,Vs_mps"


def write_csv(tmp_path, body, name="cases.csv"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return path


class TestLoad:
    def test_basic_row(self, tmp_path):
        path = write_csv(tmp_path, HEADER + "\nA,7.0,0.3,0.4,0.6,0.1,0.5,,,\n")
        records = load(path)
        assert len(records) == 1
        assert records[0].id == "A"
        assert records[0].t_m is None

    def test_td_derived_from_geometry(self, tmp_path):
        path = write_csv(tmp_path, HEADER + "\nA,7.0,0.3,0.4,,0.1,0.5,,25,200\n")
        records = load(path)
        assert records[0].t_d == 0.5  # 4 * 25 / 200

    def test_td_missing_and_underivable(self, tmp_path):
        path = write_csv(tmp_path, HEADER + "\nA,7.0,0.3,0.4,,0.1,0.5,,,\n")
        with pytest.raises(DatasetError, match="line 2"):
            load(path)

    def test_negative_amax_rejected_with_line(self, tmp_path):
        path = write_csv(
            tmp_path,
            HEADER + "\nA,7.0,0.3,0.4,0.6,0.1,0.5,,,\nB,7.0,-0.1,0.4,0.6,0.1,0.5,,,\n",
        )
        with pytest.raises(DatasetError, match="line 3"):
            load(path)

    def test_empty_file_gives_empty_list(self, tmp_path):
        assert load(write_csv(tmp_path, "")) == []
        assert load(write_csv(tmp_path, HEADER + "\n")) == []

    def test_bad_header_names_missing_column(self, tmp_path):
        path = write_csv(tmp_path, HEADER.replace(",Tm_s", "") + "\nA,7.0,0.3,0.4,0.6,0.1,0.5,,\n")
        with pytest.raises(DatasetError, match="Tm_s"):
            load(path)

    def test_non_numeric_cell(self, tmp_path):
        path = write_csv(tmp_path, HEADER + "\nA,seven,0.3,0.4,0.6,0.1,0.5,,,\n")
        with pytest.raises(DatasetError, match="line 2.*Mw"):
            load(path)

    def test_duplicate_id(self, tmp_path):
        row = "A,7.0,0.3,0.4,0.6,0.1,0.5,,,\n"
        path = write_csv(tmp_path, HEADER + "\n" + row + row)
        with pytest.raises(DatasetError, match="duplicate"):
            load(path)

    def test_unreadable_row_names_its_line(self, tmp_path):
        huge = "1" * 200_000  # past csv.field_size_limit()
        path = write_csv(tmp_path, HEADER + f"\nA,7.0,0.3,0.4,0.6,0.1,0.5,,,\nB,{huge},0.3,,,,,,,\n")
        with pytest.raises(DatasetError, match="line 3: field larger than field limit"):
            load(path)
        path = write_csv(tmp_path, HEADER + f"\nA,x,0.3,0.4,0.6,0.1,0.5,,,\nB,{huge},0.3,,,,,,,\n")
        with pytest.raises(DatasetError, match="line 2: column Mw is not a number"):
            load(path)

    def test_wrong_column_count(self, tmp_path):
        path = write_csv(tmp_path, HEADER + "\nA,7.0,0.3\n")
        with pytest.raises(DatasetError, match="line 2"):
            load(path)

    def test_ratio_consistency_after_load(self, tmp_path, synth85):
        path = tmp_path / "synth.csv"
        save(synth85, path)
        for r in load(path):
            assert r.ay_ratio * r.a_max == pytest.approx(r.a_y, abs=1e-12)
            assert r.period_ratio * r.t_p == pytest.approx(r.t_d, abs=1e-12)

    def test_save_load_round_trip_exact(self, tmp_path, synth85):
        path = tmp_path / "synth.csv"
        save(synth85, path)
        again = load(path)
        assert again == synth85
        path2 = tmp_path / "resave.csv"
        save(again, path2)
        assert path.read_bytes() == path2.read_bytes()


OK_ROW = "7.0,0.3,0.4,0.6,0.1,0.5,,,"

# each body puts its first bad cell after other rows, so that a block
# boundary or a mask in the wrong order would name another line
BLOCK_BODIES = {
    "valid": f"A,{OK_ROW}\nB,7.0,0.3,0.4,,0.1,0.5,0.7,25,200\n\nC, 6.5 ,1e-300,0.4,0.6,0,0,,,\n",
    "duplicate_id": f"A,{OK_ROW}\nB,{OK_ROW}\nC,{OK_ROW}\nA,{OK_ROW}\n",
    "empty_id": f"A,{OK_ROW}\nB,{OK_ROW}\n  ,{OK_ROW}\n",
    "underivable_td": f"A,{OK_ROW}\nB,{OK_ROW}\nC,7.0,0.3,0.4,,0.1,0.5,,25,\nD,x,0.3,0.4,0.6,0.1,0.5,,,\n",
    "bad_cell_before_short_row": f"A,{OK_ROW}\nB,7.0,0.3,0.4,0.6,0.1,-1,,,\nC,7.0\n",
    "short_row_before_bad_cell": f"A,{OK_ROW}\nB,7.0\nC,7.0,0.3,0.4,0.6,0.1,-1,,,\n",
    "two_bad_cells_in_a_row": f"A,{OK_ROW}\nB,7.0,0,0.4,0.6,0.1,0.5,0,,\n",
    "later_column_on_an_earlier_line": f"A,{OK_ROW}\nB,7.0,0.3,0.4,0.6,0.1,0.5,,,-2\nC,nan,0.3,0.4,0.6,0.1,0.5,,,\n",
    "non_finite_optional": f"A,{OK_ROW}\nB,7.0,0.3,0.4,inf,0.1,0.5,,,\n",
    "zero_tp": f"A,{OK_ROW}\nB,{OK_ROW}\nC,7.0,0.3,0,0.6,0.1,0.5,,,\n",
    "zero_height": f"A,{OK_ROW}\nB,7.0,0.3,0.4,,0.1,0.5,,0,200\n",
    "quoted_multiline_id": f'"A\nA",{OK_ROW}\nB,{OK_ROW}\nC,7.0,0.3,0.4,0.6,,0.5,,,\n',
}


@pytest.mark.parametrize("block_rows", [1, 2, 4096])
@pytest.mark.parametrize("body", BLOCK_BODIES.values(), ids=BLOCK_BODIES)
def test_block_masks_match_row_reader(tmp_path, monkeypatch, body, block_rows):
    monkeypatch.setattr(data, "_BLOCK_ROWS", block_rows)
    path = write_csv(tmp_path, HEADER + "\n" + body)
    try:
        expected = reference_load(path)
    except DatasetError as exc:
        with pytest.raises(DatasetError) as info:
            load(path)
        assert str(info.value) == str(exc)
    else:
        assert load(path) == expected


class TestMatrix:
    def test_equals_per_record_reference_bitwise(self, synth85):
        records = list(synth85) + [
            CaseHistory("big", 7.0, 1e-10, 0.4, 0.6, 1e200, 0.5),
            CaseHistory("inf", 7.0, 1e-300, 1e-300, 1e300, 1e300, 0.5),
            CaseHistory("tiny", 7.0, 3.0, 7.0, 1e-310, 1e-310, 0.0),
        ]
        reference = np.array(
            [[r.m_w, r.a_max, r.t_p, r.t_d, r.a_y, r.ay_ratio, r.period_ratio, r.d]
             for r in records]
        )
        mat = data._matrix(records)
        assert mat.shape == (len(records), len(data.PARAMETERS))
        assert mat.tobytes() == reference.tobytes()

    def test_empty(self):
        assert data._matrix([]).shape == (0, len(data.PARAMETERS))


class TestSummarize:
    def test_single_record_degenerate(self):
        rec = CaseHistory("A", 7.0, 0.3, 0.4, 0.6, 0.1, 0.5)
        stats = summarize([rec])
        s = stats["Mw"]
        assert s.minimum == s.maximum == s.mean == 7.0
        assert s.sd == 0.0
        assert s.degenerate

    def test_two_point_sd(self):
        recs = [
            CaseHistory("A", 7.0, 0.3, 0.4, 0.6, 0.1, 1.0),
            CaseHistory("B", 7.0, 0.3, 0.4, 0.6, 0.1, 3.0),
        ]
        s = summarize(recs)["D"]
        assert s.mean == 2.0
        assert s.sd == pytest.approx(math.sqrt(2.0))

    def test_empty_rejected(self):
        with pytest.raises(DatasetError):
            summarize([])

    def test_synthetic_round_trip_within_declared_tolerance(self, synth85):
        stats = summarize(synth85)
        for name, tol in GENERATION_TOLERANCE.items():
            target = EMBANKMENT_SUMMARY[name]
            # small-sample run: allow 4x the asymptotic tolerance
            assert abs(stats[name].mean - target.mean) <= 4 * tol * abs(target.mean)


class TestSplit:
    def test_published_counts_at_85(self, synth85):
        split = split_matched(synth85, 0.75, trials=10, rng=np.random.default_rng(0))
        assert len(split.train_ids) == 63
        assert len(split.test_ids) == 22

    def test_disjoint_and_exhaustive(self, synth85):
        split = split_matched(synth85, 0.6, trials=3, rng=np.random.default_rng(1))
        train, test = set(split.train_ids), set(split.test_ids)
        assert not train & test
        assert train | test == {r.id for r in synth85}

    def test_single_trial_is_plain_random_split(self, synth85):
        rng = np.random.default_rng(9)
        split = split_matched(synth85, 0.75, trials=1, rng=rng)
        perm = np.argsort(np.random.default_rng(9).random((1, 85)), axis=1)[0]
        expected_train = {synth85[i].id for i in perm[:63]}
        assert set(split.train_ids) == expected_train

    def test_more_trials_never_worse_for_same_stream(self, synth85):
        for seed in range(5):
            one = split_matched(synth85, 0.75, trials=1, rng=np.random.default_rng(seed))
            many = split_matched(synth85, 0.75, trials=200, rng=np.random.default_rng(seed))
            assert many.score <= one.score

    def test_score_matches_direct_computation(self, synth85):
        split = split_matched(synth85, 0.75, trials=4, rng=np.random.default_rng(3))
        train, test = split_records(synth85, split)
        assert match_score(train, test, synth85) == split.score

    def test_result_independent_of_chunk_size(self, synth85, monkeypatch):
        def split(trials_per_chunk):
            monkeypatch.setattr(data, "_SPLIT_CHUNK_BYTES", trials_per_chunk * 8 * len(synth85))
            return split_matched(synth85, 0.75, trials=40, rng=np.random.default_rng(5))

        whole = split(40)
        assert split(2) == whole
        assert split(3) == whole

    def test_memory_bounded_at_20k_rows(self):
        records = synthesize(EMBANKMENT_SUMMARY, 20_000, np.random.default_rng(11))
        tracemalloc.start()
        try:
            split_matched(records, 0.75, trials=256, rng=np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_bad_fraction_and_small_n(self, synth85):
        with pytest.raises(DatasetError):
            split_matched(synth85, 1.0)
        with pytest.raises(DatasetError):
            split_matched(synth85, 0.0)
        with pytest.raises(DatasetError):
            split_matched(synth85[:3], 0.75)
        with pytest.raises(DatasetError):
            split_matched(synth85, 0.75, trials=0)


class TestSynthesize:
    def test_values_inside_published_bounds(self, synth85):
        stats = summarize(synth85)
        for name in data.PARAMETERS:
            target = EMBANKMENT_SUMMARY[name]
            assert stats[name].minimum >= target.minimum - 1e-12
            assert stats[name].maximum <= target.maximum + 1e-12

    def test_deterministic(self):
        a = synthesize(EMBANKMENT_SUMMARY, 85, np.random.default_rng(4))
        b = synthesize(EMBANKMENT_SUMMARY, 85, np.random.default_rng(4))
        assert a == b

    def test_large_sample_means_track_targets(self):
        records = synthesize(EMBANKMENT_SUMMARY, 10_000, np.random.default_rng(6))
        stats = summarize(records)
        for name, tol in GENERATION_TOLERANCE.items():
            target = EMBANKMENT_SUMMARY[name]
            assert abs(stats[name].mean - target.mean) <= tol * abs(target.mean), name

    def test_period_ratio_clear_of_pole(self):
        from embgep.displacement import DEFAULT_POLE_EPS, POLE_PERIOD_RATIO

        records = synthesize(EMBANKMENT_SUMMARY, 5000, np.random.default_rng(8))
        ratios = np.array([r.period_ratio for r in records])
        assert np.all(np.abs(ratios - POLE_PERIOD_RATIO) >= DEFAULT_POLE_EPS)

    def test_infeasible_targets_rejected(self):
        bad = dict(EMBANKMENT_SUMMARY)
        bad["Mw"] = ParamStats(4.9, 8.3, 7.0, 0.0)  # sd 0 with min < max
        with pytest.raises(DatasetError):
            synthesize(bad, 10, np.random.default_rng(0))
        bad["Mw"] = ParamStats(8.3, 4.9, 7.0, 0.5)  # min > max
        with pytest.raises(DatasetError):
            synthesize(bad, 10, np.random.default_rng(0))

    def test_small_n_rejected(self):
        with pytest.raises(DatasetError):
            synthesize(EMBANKMENT_SUMMARY, 1, np.random.default_rng(0))

    def test_returns_table_without_geometry(self):
        table = synthesize(EMBANKMENT_SUMMARY, 12, np.random.default_rng(3))
        assert isinstance(table, data.CaseTable)
        assert table.ids[0] == "synth-01" and table.ids[-1] == "synth-12"
        assert np.isnan(table.h).all() and np.isnan(table.vs).all()

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([("amax", 0.0), ("amax", math.nan), ("Tp", 0.0), ("Tp", math.nan),
                            ("Td", -0.01), ("Td", math.nan), ("ay", -1e-12), ("ay", math.nan),
                            ("D", -0.5), ("D", math.nan)]),
           st.integers(2, 20_000), st.integers(0, 9))
    def test_target_minimum_breaking_a_row_invariant_named(self, bad, n, seed):
        # a row drawn at such a minimum would break a CaseHistory invariant
        # (a_max, T_p > 0; T_d, a_y, D >= 0), whether or not a row lands on it
        name, minimum = bad
        targets = dict(EMBANKMENT_SUMMARY)
        targets[name] = dataclasses.replace(targets[name], minimum=minimum)
        with pytest.raises(DatasetError, match=f"^{name}: min must be"):
            synthesize(targets, n, np.random.default_rng(seed))


class TestRegressionArrays:
    def test_feature_layout(self, synth85):
        X, y = regression_arrays(synth85)
        assert X.shape == (85, 3)
        assert y.shape == (85,)
        assert X[0, 0] == synth85[0].m_w
        assert X[0, 1] == synth85[0].ay_ratio
        assert y[0] == math.log(synth85[0].d)

    def test_zero_displacement_rejected(self):
        rec = CaseHistory("A", 7.0, 0.3, 0.4, 0.6, 0.1, 0.0)
        with pytest.raises(DatasetError):
            regression_arrays([rec])
