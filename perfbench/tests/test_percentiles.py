"""The tail-percentile rule: report the highest percentile with at least
ten samples beyond it, together with the sample count."""

import numpy as np
import pytest

from perfbench.percentiles import fast_mode, percentile, sliced_op_wall_us, summarize, tail_percentile


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),
        (20, "50"),
        (99, "50"),
        (100, "90"),
        (999, "90"),
        (1000, "99"),
        (9999, "99"),
        (10000, "99.9"),
        (99999, "99.9"),
        (100000, "99.99"),
    ],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_percentile_refuses_a_tail_with_too_few_samples_beyond():
    with pytest.raises(ValueError):
        percentile(np.arange(999), "99")
    assert percentile(np.arange(1000), "99") == np.percentile(np.arange(1000), 99)


def test_summary_reports_sample_count_median_and_tail():
    samples = np.arange(1, 10001)
    summary = summarize(samples, scale=1e-3)
    assert summary["n"] == 10000
    assert summary["tail"] == "99.9"
    assert summary["p50"] == pytest.approx(5.0005)
    assert summary["tail_value"] == pytest.approx(np.percentile(samples, 99.9) * 1e-3)


def test_summary_refuses_too_few_samples_for_a_median():
    with pytest.raises(ValueError):
        summarize(np.arange(19))


def test_fast_mode_is_the_median_of_the_fast_cluster():
    # Slices at about 100 (uncontended) and 170 (contended).
    assert fast_mode([170, 101, 168, 100, 104, 175, 109]) == 102.5
    assert fast_mode([100]) == 100


def test_sliced_figures_ignore_the_contended_slices():
    # Four slices of 1000 ops, 1 us each; the third runs 1.7x slower.
    op_ns = [1000] * 2000 + [1700] * 1000 + [1000] * 1000
    op_start_ns = np.concatenate(([0], np.cumsum(op_ns)[:-1]))
    figures = sliced_op_wall_us(op_start_ns, op_ns, int(np.sum(op_ns)), slices=4)
    assert figures["wall_us_per_op"] == pytest.approx(1.0)
    assert figures["op_wall_us.p50"] == pytest.approx(1.0)
    assert figures["op_wall_us.p99"] == pytest.approx(1.0)
