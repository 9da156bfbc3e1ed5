import datetime as dt
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from ifrlag.errors import (
    ConfigError,
    DomainError,
    GapUnrepairable,
    IngestError,
    MissingColumn,
    PolicyViolation,
    UnparseableRow,
)
from ifrlag.ingest import (
    ColumnMapping,
    RepairPolicy,
    load_dataset,
    write_dataset_csv,
)

MAPPING = ColumnMapping("date", "cases", "deaths", "tests")
POLICY = RepairPolicy()
MARCH = dt.date(2020, 3, 1)


def csv_bytes(rows, header="date,cases,deaths,tests"):
    return ("\n".join([header] + rows) + "\n").encode()


def day(n):
    return (MARCH + dt.timedelta(days=n - 1)).isoformat()


def test_complete_csv_needs_no_repair():
    raw = csv_bytes([f"{day(1)},10,1,1000", f"{day(2)},20,0,1500",
                     f"{day(3)},15,2,1800"])
    ds, log = load_dataset(raw, MAPPING, POLICY, 1_000_000,
                           (MARCH, dt.date(2020, 3, 3)))
    assert len(ds) == 3
    assert log == []
    np.testing.assert_array_equal(ds.cases.values, [10, 20, 15])
    np.testing.assert_array_equal(ds.tests.values, [1000, 1500, 1800])
    assert ds.cases.origin_day == MARCH


def test_missing_test_value_interpolated_at_midpoint():
    raw = csv_bytes([f"{day(1)},1,0,1000", f"{day(2)},2,0,", f"{day(3)},3,0,3000"])
    ds, log = load_dataset(raw, MAPPING, POLICY, 1_000_000,
                           (MARCH, dt.date(2020, 3, 3)))
    assert ds.tests.values[1] == 2000.0
    assert len(log) == 1
    assert (log[0].day, log[0].field, log[0].action) == (2, "tests", "interpolate")
    assert log[0].value == 2000.0


def test_zero_tests_with_cases_raised_to_cases():
    raw = csv_bytes([f"{day(1)},7,0,0"])
    ds, log = load_dataset(raw, MAPPING, POLICY, 1_000_000, (MARCH, MARCH))
    assert ds.tests.values[0] == 7.0
    assert [(e.field, e.action, e.value) for e in log] == [
        ("tests", "raise_tests", 7.0)]


def test_case_exceeds_test_error_policy():
    raw = csv_bytes([f"{day(1)},7,0,3"])
    policy = RepairPolicy(case_exceeds_test="error")
    with pytest.raises(PolicyViolation, match="day 1"):
        load_dataset(raw, MAPPING, policy, 1_000_000, (MARCH, MARCH))


def test_missing_row_inside_range_treated_as_all_missing():
    raw = csv_bytes([f"{day(1)},10,1,1000", f"{day(3)},30,3,3000"])
    ds, log = load_dataset(raw, MAPPING, POLICY, 1_000_000,
                           (MARCH, dt.date(2020, 3, 3)))
    assert len(ds) == 3
    np.testing.assert_array_equal(ds.cases.values, [10, 0, 30])
    np.testing.assert_array_equal(ds.deaths.values, [1, 0, 3])
    assert ds.tests.values[1] == 2000.0
    actions = {(e.day, e.field): e.action for e in log}
    assert actions[(2, "cases")] == "fill_zero"
    assert actions[(2, "deaths")] == "fill_zero"
    assert actions[(2, "tests")] == "interpolate"


def test_repair_log_lines_in_order():
    # every kind of repair: cases and deaths blank on day 2, no row for day 4,
    # tests blank on days 6-7, zero tests with cases on day 9
    raw = csv_bytes([f"{day(1)},10,1,1000", f"{day(2)},,,1200",
                     f"{day(3)},30,3,1400", f"{day(5)},50,5,1600",
                     f"{day(6)},60,6,", f"{day(7)},70,7,",
                     f"{day(8)},80,8,1900", f"{day(9)},9,0,0"])
    _, log = load_dataset(raw, MAPPING, POLICY, 1_000_000,
                          (MARCH, dt.date(2020, 3, 9)))
    assert [e.to_json() for e in log] == [
        '{"day": 2, "field": "cases", "action": "fill_zero", "value": 0.0}',
        '{"day": 2, "field": "deaths", "action": "fill_zero", "value": 0.0}',
        '{"day": 4, "field": "cases", "action": "fill_zero", "value": 0.0}',
        '{"day": 4, "field": "deaths", "action": "fill_zero", "value": 0.0}',
        '{"day": 4, "field": "tests", "action": "interpolate", "value": 1500.0}',
        '{"day": 6, "field": "tests", "action": "interpolate", "value": 1700.0}',
        '{"day": 7, "field": "tests", "action": "interpolate", "value": 1800.0}',
        '{"day": 9, "field": "tests", "action": "raise_tests", "value": 9.0}',
    ]


def test_boundary_test_gap_is_unrepairable():
    raw = csv_bytes([f"{day(1)},1,0,", f"{day(2)},2,0,2000"])
    with pytest.raises(GapUnrepairable, match="day 1"):
        load_dataset(raw, MAPPING, POLICY, 1_000_000, (MARCH, dt.date(2020, 3, 2)))
    raw = csv_bytes([f"{day(1)},1,0,2000", f"{day(2)},2,0,"])
    with pytest.raises(GapUnrepairable, match="day 2"):
        load_dataset(raw, MAPPING, POLICY, 1_000_000, (MARCH, dt.date(2020, 3, 2)))


def test_test_gap_without_any_observed_tests_is_unrepairable():
    raw = csv_bytes([f"{day(1)},1,0,", f"{day(2)},2,0,", f"{day(3)},3,0,900"])
    with pytest.raises(GapUnrepairable, match="tests column has no observed values"):
        load_dataset(raw, MAPPING, POLICY, 1_000_000, (MARCH, dt.date(2020, 3, 2)))


def test_gap_fill_error_policy():
    raw = csv_bytes([f"{day(1)},1,0,1000", f"{day(2)},2,0,", f"{day(3)},3,0,3000"])
    policy = RepairPolicy(test_gap_fill="error")
    with pytest.raises(PolicyViolation):
        load_dataset(raw, MAPPING, policy, 1_000_000, (MARCH, dt.date(2020, 3, 3)))


def test_missing_column_detected():
    raw = csv_bytes([f"{day(1)},1,0"], header="date,cases,deaths")
    with pytest.raises(MissingColumn, match="tests"):
        load_dataset(raw, MAPPING, POLICY, 1_000_000, (MARCH, MARCH))


@pytest.mark.parametrize(
    "row",
    ["not-a-date,1,0,100", f"{day(1)},abc,0,100", f"{day(1)},1.5,0,100",
     f"{day(1)},1,inf,100"],
)
def test_unparseable_rows_name_the_line(row):
    raw = csv_bytes([row])
    with pytest.raises(UnparseableRow, match="line 2"):
        load_dataset(raw, MAPPING, POLICY, 1_000_000, (MARCH, MARCH))


def test_errors_name_the_line_a_record_starts_on():
    # a quoted cell spans lines 2 and 3, so the bad cases cell is on line 4
    raw = csv_bytes([f'{day(1)},1,0,100,"two\nlines"', f"{day(2)},abc,0,100,x"],
                    header="date,cases,deaths,tests,notes")
    with pytest.raises(UnparseableRow, match="line 4: cases"):
        load_dataset(raw, MAPPING, POLICY, 1_000_000, (MARCH, dt.date(2020, 3, 2)))


def test_unreadable_csv_is_an_unparseable_row():
    latin1 = "d\xe4te,cases,deaths,tests\n".encode("latin-1")
    with pytest.raises(UnparseableRow, match="not UTF-8"):
        load_dataset(latin1, MAPPING, POLICY, 1_000_000, (MARCH, MARCH))
    oversized = csv_bytes([f'{day(1)},1,0,"{"9" * 200_000}"'])
    with pytest.raises(UnparseableRow, match="line 2: field larger"):
        load_dataset(oversized, MAPPING, POLICY, 1_000_000, (MARCH, MARCH))
    with pytest.raises(UnparseableRow, match="empty CSV: no header row"):
        load_dataset(b"", MAPPING, POLICY, 1_000_000, (MARCH, MARCH))


def test_duplicate_date_rejected():
    raw = csv_bytes([f"{day(1)},1,0,100", f"{day(1)},2,0,200"])
    with pytest.raises(UnparseableRow, match="duplicate"):
        load_dataset(raw, MAPPING, POLICY, 1_000_000, (MARCH, MARCH))


def test_first_faulty_row_is_reported():
    # a bad cell on line 2 comes before the duplicate date on line 4
    raw = csv_bytes([f"{day(1)},-3,0,100", f"{day(2)},2,0,200", f"{day(2)},2,0,200"])
    with pytest.raises(PolicyViolation, match="line 2: negative cases"):
        load_dataset(raw, MAPPING, POLICY, 1_000_000, (MARCH, dt.date(2020, 3, 2)))


def test_negative_value_rejected():
    raw = csv_bytes([f"{day(1)},-3,0,100"])
    with pytest.raises(PolicyViolation, match="negative"):
        load_dataset(raw, MAPPING, POLICY, 1_000_000, (MARCH, MARCH))


def test_bad_values_outside_range_are_ignored():
    # later negative-correction rows must not sink a load limited to earlier days
    raw = csv_bytes([f"{day(1)},10,1,1000", f"{day(2)},-99,0,abc"])
    ds, _ = load_dataset(raw, MAPPING, POLICY, 1_000_000, (MARCH, MARCH))
    assert len(ds) == 1
    with pytest.raises(PolicyViolation):
        load_dataset(raw, MAPPING, POLICY, 1_000_000, (MARCH, dt.date(2020, 3, 2)))


def test_blank_records_are_skipped():
    # a blank line, a whitespace-only line and a row of empty cells are not
    # days: they change neither the series nor the repair log
    rows = [f"{day(1)},10,1,1000", f"{day(2)},20,2,", f"{day(4)},40,4,4000"]
    with_blanks = rows[:1] + ["", "   ", ",,,"] + rows[1:]
    date_range = (MARCH, dt.date(2020, 3, 4))
    ds, log = load_dataset(csv_bytes(rows), MAPPING, POLICY, 1_000_000, date_range)
    ds_b, log_b = load_dataset(csv_bytes(with_blanks), MAPPING, POLICY, 1_000_000,
                               date_range)
    for name in ("cases", "deaths", "tests"):
        np.testing.assert_array_equal(getattr(ds_b, name).values,
                                      getattr(ds, name).values)
    assert ds_b.cases.origin_day == ds.cases.origin_day
    assert log_b == log
    assert len(log) == 4  # tests on day 2; cases, deaths and tests on day 3


def test_short_rows_tolerated_past_mapped_columns():
    # trailing unmapped cells may be absent; mapped ones may not
    raw = csv_bytes([f"{day(1)},10,1,1000", f"{day(2)},20,0"],
                    header="date,cases,deaths,tests,extra")
    ds, _ = load_dataset(csv_bytes([f"{day(1)},10,1,1000,x"],
                                   header="date,cases,deaths,tests,extra"),
                         MAPPING, POLICY, 1_000_000, (MARCH, MARCH))
    assert ds.tests.values[0] == 1000.0
    with pytest.raises(UnparseableRow, match="line 3"):
        load_dataset(raw, MAPPING, POLICY, 1_000_000, (MARCH, dt.date(2020, 3, 2)))


def test_integral_float_representation_accepted():
    raw = csv_bytes([f"{day(1)},10.0,1.0,100.0"])
    ds, _ = load_dataset(raw, MAPPING, POLICY, 1_000_000, (MARCH, MARCH))
    assert ds.cases.values[0] == 10.0


def test_mapping_requires_distinct_columns():
    with pytest.raises(ConfigError):
        ColumnMapping("date", "cases", "cases", "tests")


def test_policy_enum_validation():
    with pytest.raises(ConfigError):
        RepairPolicy(test_gap_fill="extrapolate")
    with pytest.raises(ConfigError):
        RepairPolicy(negative_value="clamp")
    with pytest.raises(ConfigError):
        RepairPolicy(case_exceeds_test="ignore")


def test_identical_bytes_give_identical_output():
    raw = csv_bytes([f"{day(1)},10,1,0", f"{day(2)},20,0,", f"{day(3)},15,2,1800"])
    first = load_dataset(raw, MAPPING, POLICY, 1_000_000,
                         (MARCH, dt.date(2020, 3, 3)))
    second = load_dataset(raw, MAPPING, POLICY, 1_000_000,
                          (MARCH, dt.date(2020, 3, 3)))
    np.testing.assert_array_equal(first[0].tests.values, second[0].tests.values)
    assert [e.to_json() for e in first[1]] == [e.to_json() for e in second[1]]


def test_repair_log_serializes_as_json_lines():
    raw = csv_bytes([f"{day(1)},7,0,0"])
    _, log = load_dataset(raw, MAPPING, POLICY, 1_000_000, (MARCH, MARCH))
    parsed = json.loads(log[0].to_json())
    assert set(parsed) == {"day", "field", "action", "value"}
    assert parsed["day"] == 1


@settings(max_examples=40)
@given(
    st.integers(1, 8),
    st.floats(1, 1e5, allow_nan=False),
    st.floats(1, 1e5, allow_nan=False),
)
def test_interpolated_tests_lie_strictly_between_flanks(gap_len, left, right):
    left, right = round(left), round(right)
    if left == right:
        right = left + gap_len + 1
    rows = [f"{day(1)},0,0,{left}"]
    rows += [f"{day(2 + g)},0,0," for g in range(gap_len)]
    rows += [f"{day(gap_len + 2)},0,0,{right}"]
    raw = csv_bytes(rows)
    ds, log = load_dataset(raw, MAPPING, POLICY, 10_000_000,
                           (MARCH, MARCH + dt.timedelta(days=gap_len + 1)))
    lo, hi = min(left, right), max(left, right)
    filled = ds.tests.values[1:-1]
    assert np.all(filled > lo) and np.all(filled < hi)
    assert len(log) == gap_len


def test_write_then_load_round_trip(tmp_path):
    ds = make_dataset(cases=[10, 20, 15], tests=[1000, 1500, 1800],
                      deaths=[1, 0, 2], origin=MARCH)
    path = tmp_path / "out.csv"
    write_dataset_csv(ds, path)
    loaded, log = load_dataset(path.read_bytes(), MAPPING, POLICY, 1_000_000,
                               (MARCH, dt.date(2020, 3, 3)))
    assert log == []
    np.testing.assert_array_equal(loaded.cases.values, ds.cases.values)
    np.testing.assert_array_equal(loaded.deaths.values, ds.deaths.values)
    np.testing.assert_array_equal(loaded.tests.values, ds.tests.values)


def test_large_counts_survive_the_csv_round_trip(tmp_path):
    # values past 1e6 must not degrade to scientific notation
    ds = make_dataset(cases=[1_234_567, 89], tests=[98_765_432, 1_000_000],
                      deaths=[7_654_321, 0], population=200_000_000,
                      origin=MARCH)
    path = tmp_path / "big.csv"
    write_dataset_csv(ds, path)
    loaded, _ = load_dataset(path.read_bytes(), MAPPING, POLICY, 200_000_000,
                             (MARCH, dt.date(2020, 3, 2)))
    np.testing.assert_array_equal(loaded.cases.values, ds.cases.values)
    np.testing.assert_array_equal(loaded.tests.values, ds.tests.values)
    np.testing.assert_array_equal(loaded.deaths.values, ds.deaths.values)


def test_bytes_with_bom_tolerated():
    raw = b"\xef\xbb\xbf" + csv_bytes([f"{day(1)},1,0,100"])
    ds, _ = load_dataset(raw, MAPPING, POLICY, 1_000_000, (MARCH, MARCH))
    assert ds.cases.values[0] == 1.0


def test_source_that_is_not_bytes_is_an_ingest_error(tmp_path):
    raw = csv_bytes([f"{day(1)},1,0,100"])
    path = tmp_path / "data.csv"
    path.write_bytes(raw)
    with open(path, "rb") as fh:
        for source in (raw.decode(), fh):
            with pytest.raises(IngestError, match="must be bytes"):
                load_dataset(source, MAPPING, POLICY, 1_000_000, (MARCH, MARCH))


def test_population_must_be_an_integer():
    # the population is passed to Dataset as given, not truncated
    raw = csv_bytes([f"{day(1)},10,1,1000"])
    with pytest.raises(DomainError, match="population must be an integer"):
        load_dataset(raw, MAPPING, POLICY, 1e7 + 0.5, (MARCH, MARCH))


def test_reversed_date_range_is_a_config_error():
    raw = csv_bytes([f"{day(1)},10,1,1000"])
    with pytest.raises(ConfigError, match="precedes start"):
        load_dataset(raw, MAPPING, POLICY, 1_000_000, (dt.date(2020, 3, 2), MARCH))
