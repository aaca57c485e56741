"""Tests for the revenue-share analysis and the bundled dataset."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairshare.empirical import (
    BAND,
    HalfYear,
    RevenueRecord,
    load_revenue_records,
    parse_window,
    revenue_share,
    window_revenue,
)
from reference import window_labels


def labels(window):
    return [h.label() for h in window]


# --- window parsing -------------------------------------------------------------


def test_parse_window_span():
    window = parse_window("2018H2..2021H1")
    assert labels(window) == ["2018H2", "2019H1", "2019H2",
                              "2020H1", "2020H2", "2021H1"]


def test_parse_window_full_year():
    assert labels(parse_window("2019")) == ["2019H1", "2019H2"]


def test_parse_window_comma_units():
    assert labels(parse_window("2018H2,2020")) == ["2018H2", "2020H1", "2020H2"]


def test_parse_window_rejects_duplicates():
    with pytest.raises(ValueError, match="twice"):
        parse_window("2019,2019H1")


def test_parse_window_rejects_backwards_span():
    with pytest.raises(ValueError, match="backwards"):
        parse_window("2021..2019")


def test_parse_window_rejects_bad_tokens():
    with pytest.raises(ValueError, match="token"):
        parse_window("19H1")
    with pytest.raises(ValueError, match="token"):
        parse_window("2019H3")
    with pytest.raises(ValueError):
        parse_window("")


# years on both sides of 1000, whose labels "999H1" and "1000H1" sort as text
# in the other order than as years
YEARS = st.integers(997, 1002).map(lambda year: f"{year:04d}")
TOKENS = st.one_of(YEARS, st.builds("{}H{}".format, YEARS, st.sampled_from([1, 2, 1, 2, 3])),
                   st.sampled_from(["", " ", "19H1", "2019h1", "99999"]))
PARTS = st.one_of(TOKENS, st.builds("{} .. {}".format, TOKENS, TOKENS),
                  st.builds("{}..{}".format, TOKENS, TOKENS))


@settings(max_examples=500, deadline=None)
@given(st.lists(PARTS, min_size=1, max_size=5).map(",".join))
def test_parse_window_matches_the_stepping_parser(spec):
    try:
        expected = window_labels(spec)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            parse_window(spec)
        assert str(raised.value) == str(exc), spec
    else:
        assert labels(parse_window(spec)) == expected, spec


@pytest.mark.parametrize("spec, message", [
    ("2019..", "bad window token ''"), ("..2019", "bad window token ''"),
    ("..", "bad window token ''"), ("2019,", "empty window component"),
    ("2021H1..2019", "window span runs backwards: 2021H1..2019H2"),
    ("0999..1000,1000H2,0999H1", "window counts half-years twice: 1000H2, 999H1"),
])
def test_parse_window_keeps_its_words(spec, message):
    with pytest.raises(ValueError) as raised:
        parse_window(spec)
    assert str(raised.value).startswith(message)
    with pytest.raises(ValueError) as oracle:
        window_labels(spec)
    assert str(oracle.value) == str(raised.value)


def test_parse_window_refuses_a_long_repeat_quickly():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^window counts half-years twice: 1000H1, "):
        parse_window("1000..9999,1000..9999")
    assert time.perf_counter() - start < 5.0


def test_halfyear_validation():
    with pytest.raises(ValueError):
        HalfYear(2020, 0)


# --- records --------------------------------------------------------------------


def test_record_validation():
    with pytest.raises(ValueError, match="revenue"):
        RevenueRecord(2020, "X", 0.0)
    with pytest.raises(ValueError, match="negative"):
        RevenueRecord(2020, "X", 5.0, payout=-1.0)
    with pytest.raises(ValueError, match="exceeds"):
        RevenueRecord(2020, "X", 5.0, payout=6.0)
    assert RevenueRecord(2020, "X", 5.0, payout=2.0).payout == 2.0


def test_bundled_records():
    records = load_revenue_records()
    assert len(records) == 10
    youtube = {r.year: r.revenue for r in records if r.entity == "YouTube"}
    assert youtube == {2017: 8.1, 2018: 11.1, 2019: 15.1, 2020: 19.7, 2021: 28.8}
    alphabet = {r.year: r.revenue for r in records if r.entity == "Alphabet"}
    assert alphabet[2021] == 257.6


def test_load_records_from_path(tmp_path):
    path = tmp_path / "rows.json"
    path.write_text('{"records": [{"year": 2022, "entity": "Z", "revenue": 3.5}]}',
                    encoding="utf-8")
    records = load_revenue_records(path)
    assert records == (RevenueRecord(2022, "Z", 3.5),)


def test_load_records_reports_bad_rows(tmp_path):
    path = tmp_path / "rows.json"
    path.write_text('{"records": [{"entity": "Z", "revenue": 3.5}]}',
                    encoding="utf-8")
    with pytest.raises(ValueError, match="index 0"):
        load_revenue_records(path)


# --- windowed revenue -------------------------------------------------------------


def test_window_revenue_half_years_halve_the_annual_figure():
    records = (RevenueRecord(2019, "X", 10.0),)
    assert window_revenue(records, parse_window("2019H1"), "X") == 5.0
    assert window_revenue(records, parse_window("2019"), "X") == 10.0


def test_window_revenue_reproduces_headline_denominator():
    records = load_revenue_records()
    total = window_revenue(records, parse_window("2018H2..2021H1"), "YouTube")
    assert total == pytest.approx(54.75)


def test_window_revenue_missing_year():
    records = load_revenue_records()
    with pytest.raises(ValueError, match=r"\[2016\]"):
        window_revenue(records, parse_window("2016..2017"), "YouTube")


def test_window_revenue_duplicate_rows_rejected():
    records = (RevenueRecord(2019, "X", 10.0), RevenueRecord(2019, "X", 12.0))
    with pytest.raises(ValueError, match="duplicate"):
        window_revenue(records, parse_window("2019"), "X")


# --- share estimates ----------------------------------------------------------------


def test_headline_share_inside_band():
    estimate = revenue_share(load_revenue_records(), 30.0,
                             parse_window("2018H2..2021H1"), "YouTube")
    assert estimate.window_revenue == pytest.approx(54.75)
    assert estimate.share == pytest.approx(30 / 54.75, abs=1e-12)
    assert estimate.inside_band
    assert estimate.distance_to_band == pytest.approx(30 / 54.75 - 0.5, abs=1e-12)


def test_zero_payout_is_outside_band():
    estimate = revenue_share(load_revenue_records(), 0.0,
                             parse_window("2019"), "YouTube")
    assert estimate.share == 0.0
    assert not estimate.inside_band
    assert estimate.distance_to_band == 0.5


def test_share_just_above_band_reported_outside():
    # 68% sits 0.0133 above the 2/3 bound: close, but outside
    records = (RevenueRecord(2021, "X", 100.0),)
    estimate = revenue_share(records, 68.0, parse_window("2021"), "X")
    assert estimate.share == pytest.approx(0.68)
    assert not estimate.inside_band
    assert estimate.distance_to_band == pytest.approx(0.68 - BAND[1], abs=1e-12)
    assert estimate.distance_to_band < 0.014


def test_band_edges_are_inside():
    records = (RevenueRecord(2021, "X", 90.0),)
    low = revenue_share(records, 45.0, parse_window("2021"), "X")
    high = revenue_share(records, 60.0, parse_window("2021"), "X")
    assert low.share == 0.5 and low.inside_band
    assert high.share == pytest.approx(2 / 3) and high.inside_band


def test_share_errors():
    records = load_revenue_records()
    with pytest.raises(ValueError, match="negative"):
        revenue_share(records, -1.0, parse_window("2019"), "YouTube")
    with pytest.raises(ValueError, match="no half-years"):
        revenue_share(records, 1.0, (), "YouTube")
    with pytest.raises(ValueError, match="no revenue rows"):
        revenue_share(records, 1.0, parse_window("2019"), "TikTok")
