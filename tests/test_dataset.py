import csv
import dataclasses
import math
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import case_table
from embgep import data, displacement
from references import reference_load, reference_parse_column, reference_split_ids

from embgep.data import (
    EMBANKMENT_SUMMARY,
    GENERATION_TOLERANCE,
    DatasetError,
    ParamStats,
    load,
    match_score,
    regression_arrays,
    save,
    split_matched,
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
        assert records.ids[0] == "A"
        assert np.isnan(records.t_m[0])

    def test_td_derived_from_geometry(self, tmp_path):
        path = write_csv(tmp_path, HEADER + "\nA,7.0,0.3,0.4,,0.1,0.5,,25,200\n")
        records = load(path)
        assert records.t_d[0] == 0.5  # 4 * 25 / 200

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
        assert load(write_csv(tmp_path, "")) == case_table()
        assert load(write_csv(tmp_path, HEADER + "\n")) == case_table()

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
        t = load(path)
        for i in range(len(t)):
            assert t.ay_ratio[i] * t.a_max[i] == pytest.approx(t.a_y[i], abs=1e-12)
            assert t.period_ratio[i] * t.t_p[i] == pytest.approx(t.t_d[i], abs=1e-12)

    def test_byte_order_mark_before_header_is_read_and_never_written(self, tmp_path, synth85):
        # a spreadsheet may save UTF-8 with a BOM; the header still matches
        plain = tmp_path / "plain.csv"
        save(synth85, plain)
        assert not plain.read_bytes().startswith(b"\xef\xbb\xbf")
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert load(marked) == synth85 == reference_load(marked)

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
    "carriage_return_id": f'A,{OK_ROW}\n"B\nB",{OK_ROW}\n"C\rC",{OK_ROW}\nD,7.0,x,,,,,,,\n',
    # a body that starts with a byte-order mark brings its own header
    "bom_header": f"\ufeff{HEADER}\nA,{OK_ROW}\nB,{OK_ROW}\nC,7.0,0.3,0.4,0.6,0.1,-1,,,\n",
}


@pytest.mark.parametrize("block_rows", [1, 2, 4096])
@pytest.mark.parametrize("body", BLOCK_BODIES.values(), ids=BLOCK_BODIES)
def test_block_masks_match_row_reader(tmp_path, monkeypatch, body, block_rows):
    monkeypatch.setattr(data, "_BLOCK_ROWS", block_rows)
    path = write_csv(tmp_path, body if body.startswith("\ufeff") else HEADER + "\n" + body)
    try:
        expected = reference_load(path)
    except DatasetError as exc:
        with pytest.raises(DatasetError) as info:
            load(path)
        assert str(info.value) == str(exc)
    else:
        assert load(path) == expected


def test_id_of_the_first_block_repeated_in_the_third_names_the_later_line(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "_BLOCK_ROWS", 4)
    ids = [f"R{i}" for i in range(11)] + ["R1"]
    path = write_csv(tmp_path, HEADER + "\n" + "".join(f"{i},{OK_ROW}\n" for i in ids))
    for reader in (load, reference_load):
        with pytest.raises(DatasetError) as info:
            reader(path)
        assert str(info.value) == "line 13: duplicate id 'R1'"


def test_multi_block_load_keeps_the_ids_in_file_order(tmp_path, monkeypatch):
    # ids out of sorted and hash order, padded, and one that looks numeric
    monkeypatch.setattr(data, "_BLOCK_ROWS", 3)
    ids = ["z9", " b ", "10", "a", "é", "9", "Q", "x y", "1e3", "m"]
    path = write_csv(tmp_path, HEADER + "\n" + "".join(f"{i},{OK_ROW}\n" for i in ids))
    table, expected = load(path), reference_load(path)
    assert table.ids == tuple(i.strip() for i in ids) == expected.ids
    assert table == expected


# cells that mix numbers, blanks, whitespace-only cells and non-numbers
PARSE_CELLS = ["", " ", "\t", "  \n", "7.0", " 0.3 ", "-2", "1e-308", "5e-324", "1e308",
               "1e500", "nan", "-inf", "1_0", "x", "R0", "0x10", "1e", "é"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(PARSE_CELLS), max_size=12))
@example([""] * 5)
@example(["7.0", "", "x"])
def test_parse_column_matches_cell_by_cell_reference(cells):
    got = data._parse_column(cells)
    want = reference_parse_column(cells)
    assert got[0].dtype == np.float64 and got[0].tobytes() == want[0].tobytes()
    assert [a.tolist() for a in got[1:]] == [a.tolist() for a in want[1:]]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.sampled_from(PARSE_CELLS[:8] + ["0.5", "", ""]), min_size=9,
                         max_size=9), min_size=1, max_size=6),
       st.sampled_from([1, 2, 4096]))
def test_load_names_the_reference_first_bad_cell(rows, block_rows):
    # any column may be blank, padded, out of range or not a number; the
    # loader names the same line and column as the row-by-row reference
    text = HEADER + "\n" + "".join(f"R{i}," + ",".join(row) + "\n" for i, row in enumerate(rows))
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(data, "_BLOCK_ROWS", block_rows):
        path = Path(tmp) / "cases.csv"
        path.write_text(text, encoding="utf-8")
        try:
            expected = reference_load(path)
        except DatasetError as exc:
            with pytest.raises(DatasetError) as info:
                load(path)
            assert str(info.value) == str(exc)
        else:
            assert load(path) == expected


# the characters a cell may need quoting for, plus spaces and non-ASCII text
WRITE_CELLS = st.text(st.sampled_from([",", '"', "\r", "\n", " ", "a", "0", ".", "é", "Ω",
                                       "漢", "\t"]), max_size=5)


@st.composite
def cell_tables(draw):
    """A header and equal-length columns of str cells, one to four wide."""
    width = draw(st.integers(1, 4))
    rows = draw(st.integers(0, 9))
    header = draw(st.lists(WRITE_CELLS, min_size=width, max_size=width))
    columns = [draw(st.lists(WRITE_CELLS, min_size=rows, max_size=rows)) for _ in range(width)]
    return header, columns


@settings(max_examples=400, deadline=None)
@given(cell_tables(), st.sampled_from(["\n", "\r\n"]), st.sampled_from([1, 2, 4096]))
@example((["id", "D_m"], [[], []]), "\r\n", 4096)  # a header-only table
@example(([""], [["", "a", ""]]), "\n", 2)  # the empty cell of a one-column row
def test_write_csv_matches_csv_writer(table, lineterminator, block_rows):
    header, columns = table
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(data, "_BLOCK_ROWS", block_rows):
        ours, theirs = Path(tmp) / "ours.csv", Path(tmp) / "theirs.csv"
        data.write_csv(ours, header, columns, lineterminator)
        with open(theirs, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator=lineterminator)
            writer.writerow(header)
            writer.writerows(zip(*columns))
        assert ours.read_bytes() == theirs.read_bytes()


@pytest.mark.parametrize("column", [
    [math.nan] * 3,
    [math.nan, 1.5, -2.0],
    [0.1, 2.5, math.nan],
    [0.1, 2.5, 1e300],
    [0.0, -0.0, math.inf, -math.inf, 5e-324, math.nan],
])
def test_float_cells_are_repr_or_blank_where_nan(column):
    assert data.csv_cells(np.array(column)) == ["" if v != v else repr(v) for v in column]


class TestMatrix:
    def test_equals_per_record_reference_bitwise(self, synth85):
        records = data.CaseTable.concat([synth85, case_table(
            ("big", 7.0, 1e-10, 0.4, 0.6, 1e200, 0.5),
            ("inf", 7.0, 1e-300, 1e-300, 1e300, 1e300, 0.5),
            ("tiny", 7.0, 3.0, 7.0, 1e-310, 1e-310, 0.0),
        )])
        # the ratios divided as Python floats, one record at a time
        rows = zip(*(getattr(records, name).tolist()
                     for name in ("m_w", "a_max", "t_p", "t_d", "a_y", "d")))
        reference = np.array([[m_w, a_max, t_p, t_d, a_y, a_y / a_max, t_d / t_p, d]
                              for m_w, a_max, t_p, t_d, a_y, d in rows])
        mat = data._matrix(records)
        assert mat.shape == (len(records), len(data.PARAMETERS))
        assert mat.tobytes() == reference.tobytes()

    def test_empty(self):
        assert data._matrix(case_table()).shape == (0, len(data.PARAMETERS))


class TestSummarize:
    def test_single_record_degenerate(self):
        stats = summarize(case_table(("A", 7.0, 0.3, 0.4, 0.6, 0.1, 0.5)).parameter_columns())
        s = stats["Mw"]
        assert s.minimum == s.maximum == s.mean == 7.0
        assert s.sd == 0.0
        assert s.degenerate

    def test_two_point_sd(self):
        recs = case_table(
            ("A", 7.0, 0.3, 0.4, 0.6, 0.1, 1.0),
            ("B", 7.0, 0.3, 0.4, 0.6, 0.1, 3.0),
        )
        s = summarize(recs.parameter_columns())["D"]
        assert s.mean == 2.0
        assert s.sd == pytest.approx(math.sqrt(2.0))

    def test_empty_rejected(self):
        with pytest.raises(DatasetError):
            summarize(case_table().parameter_columns())

    def test_synthetic_round_trip_within_declared_tolerance(self, synth85):
        stats = summarize(synth85.parameter_columns())
        for name, tol in GENERATION_TOLERANCE.items():
            target = EMBANKMENT_SUMMARY[name]
            # small-sample run: allow 4x the asymptotic tolerance
            assert abs(stats[name].mean - target.mean) <= 4 * tol * abs(target.mean)


class TestSplit:
    def test_published_counts_at_85(self, synth85):
        split = split_matched(synth85, 0.75, trials=10, rng=np.random.default_rng(0))
        assert len(split.train) == 63
        assert len(split.test) == 22

    def test_disjoint_and_exhaustive(self, synth85):
        split = split_matched(synth85, 0.6, trials=3, rng=np.random.default_rng(1))
        train, test = set(split.train.ids), set(split.test.ids)
        assert not train & test
        assert train | test == set(synth85.ids)
        # each side holds its records' rows, in table order
        row = {rec_id: i for i, rec_id in enumerate(synth85.ids)}
        for side in (split.train, split.test):
            index = [row[rec_id] for rec_id in side.ids]
            assert index == sorted(index)
            assert side == synth85.take(index)

    def test_single_trial_is_plain_random_split(self, synth85):
        rng = np.random.default_rng(9)
        split = split_matched(synth85, 0.75, trials=1, rng=rng)
        perm = np.argsort(np.random.default_rng(9).random((1, 85)), axis=1)[0]
        expected_train = {synth85.ids[i] for i in perm[:63]}
        assert set(split.train.ids) == expected_train

    @pytest.mark.parametrize("n,trials", [(85, 20), (5000, 64)])
    def test_ids_match_the_argsort_reference(self, n, trials):
        # at 5000 rows a chunk holds 26 trials, so 64 trials take three chunks
        table = synthesize(EMBANKMENT_SUMMARY, n, np.random.default_rng(n))
        for seed in range(30):
            split = split_matched(table, 0.75, trials, rng=np.random.default_rng(seed))
            assert (split.train.ids, split.test.ids) == reference_split_ids(
                table, 0.75, trials, np.random.default_rng(seed))

    def test_more_trials_never_worse_for_same_stream(self, synth85):
        for seed in range(5):
            one = split_matched(synth85, 0.75, trials=1, rng=np.random.default_rng(seed))
            many = split_matched(synth85, 0.75, trials=200, rng=np.random.default_rng(seed))
            assert many.score <= one.score

    def test_score_matches_direct_computation(self, synth85):
        split = split_matched(synth85, 0.75, trials=4, rng=np.random.default_rng(3))
        assert match_score(split.train, split.test, synth85) == split.score
        assert match_score(split.train, split.test) == split.score

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
        # the centred columns and their squares (2.4 MiB) and a 1 MiB chunk buffer
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_bad_fraction_and_small_n(self, synth85):
        with pytest.raises(DatasetError):
            split_matched(synth85, 1.0)
        with pytest.raises(DatasetError):
            split_matched(synth85, 0.0)
        with pytest.raises(DatasetError):
            split_matched(synth85.take(range(3)), 0.75)
        with pytest.raises(DatasetError):
            split_matched(synth85, 0.75, trials=0)


class TestSynthesize:
    def test_values_inside_published_bounds(self, synth85):
        stats = summarize(synth85.parameter_columns())
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
        stats = summarize(records.parameter_columns())
        for name, tol in GENERATION_TOLERANCE.items():
            target = EMBANKMENT_SUMMARY[name]
            assert abs(stats[name].mean - target.mean) <= tol * abs(target.mean), name

    def test_period_ratio_clear_of_pole(self):
        from embgep.displacement import DEFAULT_POLE_EPS, POLE_PERIOD_RATIO

        records = synthesize(EMBANKMENT_SUMMARY, 5000, np.random.default_rng(8))
        ratios = records.period_ratio
        assert np.all(np.abs(ratios - POLE_PERIOD_RATIO) >= DEFAULT_POLE_EPS)

    def test_infeasible_targets_rejected(self):
        bad = dict(EMBANKMENT_SUMMARY)
        bad["Mw"] = ParamStats(4.9, 8.3, 7.0, 0.0)  # sd 0 with min < max
        with pytest.raises(DatasetError):
            synthesize(bad, 10, np.random.default_rng(0))
        bad["Mw"] = ParamStats(8.3, 4.9, 7.0, 0.5)  # min > max
        with pytest.raises(DatasetError):
            synthesize(bad, 10, np.random.default_rng(0))
        bad["Mw"] = ParamStats(4.9, 8.3, 7.0, -0.5)
        with pytest.raises(DatasetError, match="^Mw: SD must be >= 0"):
            synthesize(bad, 10, np.random.default_rng(0))
        bad["Mw"] = ParamStats(4.9, 8.3, 8.5, 0.5)
        with pytest.raises(DatasetError, match=r"^Mw: mean outside \[min, max\]"):
            synthesize(bad, 10, np.random.default_rng(0))
        del bad["Mw"]
        with pytest.raises(DatasetError, match="^targets missing parameter 'Mw'"):
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
        # a row drawn at such a minimum would break a row invariant
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
        assert X[0, 0] == synth85.m_w[0]
        assert X[0, 1] == synth85.a_y[0] / synth85.a_max[0]
        assert y[0] == math.log(synth85.d[0])

    def test_zero_displacement_rejected(self):
        with pytest.raises(DatasetError):
            regression_arrays(case_table(("A", 7.0, 0.3, 0.4, 0.6, 0.1, 0.0)))


def _traced(call):
    """``call()``'s result, its tracemalloc peak and what it leaves
    allocated (what it returns), in bytes above what was allocated before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - base, current - base


# how far the transient of a call may grow from N rows to 4N rows: a
# transient the size of one block does not grow, one the size of the table
# grows fourfold
MEMORY_GROWTH_BOUND = 1.5


@pytest.mark.parametrize("call", ["load", "evaluate", "write_csv", "split_matched"])
def test_transient_memory_stays_bounded_as_rows_grow(tmp_path, monkeypatch, call):
    # the transient is the tracemalloc peak less what the call returns and
    # what it holds by design: load's insertion-ordered dict of the ids read
    # so far, which is the duplicate check's index and becomes the id
    # column, and the split screen's centred parameter columns and their
    # squares (two n x 8 float64 arrays), which are freed before the two
    # tables it returns are made
    joined = data._joined

    def transient(n):
        table = synthesize(EMBANKMENT_SUMMARY, n, np.random.default_rng(n))
        path = tmp_path / f"cases_{n}.csv"
        save(table, path)
        columns = table.model_columns()
        if call == "load":
            # two phases, split where load first joins a column: the blocks
            # are parsed while the id dict is held, and the columns are
            # joined once it is dropped, each from its blocks
            block_peaks = []

            def join(parts):
                if not block_peaks:
                    block_peaks.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.reset_peak()
                return joined(parts)

            monkeypatch.setattr(data, "_joined", join)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                loaded = load(path)
                kept, join_peak = (m - base for m in tracemalloc.get_traced_memory())
            finally:
                tracemalloc.stop()
            assert loaded == table
            # the join holds one float column twice, as its blocks and its
            # whole, so its transient is about one column's bytes
            assert join_peak - kept <= 2 * 8 * n, f"join transient at {n} rows"
            # while the blocks are parsed, the ids are the dict and not yet the tuple
            return (block_peaks[0] - base - kept + sys.getsizeof(table.ids)
                    - sys.getsizeof(dict.fromkeys(table.ids)))
        if call == "evaluate":
            _, peak, kept = _traced(lambda: displacement.evaluate("tsai_chien", columns))
            return peak - kept
        if call == "write_csv":
            result = displacement.evaluate("gep", columns)
            cells = [table.ids, result.value, result.d_m, displacement.in_range("gep", columns),
                     result.status]
            _, peak, _ = _traced(lambda: data.write_csv(
                tmp_path / "out.csv", ("id", "value", "D_m", "in_range", "status"), cells, "\n"))
            return peak
        _, peak, _ = _traced(
            lambda: split_matched(table, 0.75, trials=16, rng=np.random.default_rng(0)))
        return peak - 2 * 8 * 8 * n

    # at 19 000 and 76 000 rows the dict of ids is most full (22 and 25
    # bytes a row), so a second copy of the float columns (72) would show,
    # and so would a second list of the ids (8) held while the blocks are
    # parsed
    n = 19_000
    assert n >= 4 * data._BLOCK_ROWS
    small, large = transient(n), transient(4 * n)
    assert 0 < small and large <= MEMORY_GROWTH_BOUND * small, (
        f"transient {small / 2**20:.2f} MiB at {n} rows, {large / 2**20:.2f} MiB at {4 * n}")
