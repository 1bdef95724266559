"""The measurement kit the ``tools/bench_*.py`` harnesses share: its timer,
its census and its JSON record."""

import gc
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import _kit as kit  # noqa: E402
import ab  # noqa: E402


def test_timer_minimum_is_at_most_its_median():
    timing = kit.over(sum, [(range(50),)] * 20, repeats=5)
    assert 0 < timing.min <= timing.median


def test_timer_passes_each_repeat_its_setup_and_summarises_parts():
    seen = []
    parts = kit.per_call(lambda state: {"a": state, "b": 2 * state}, 3,
                         setup=lambda repeat: seen.append(repeat) or repeat + 1, parts=True)
    assert seen == [0, 1, 2]
    assert parts == {"a": kit.Timing(1, 2), "b": kit.Timing(2, 4)}


@pytest.mark.parametrize("enabled", [True, False])
def test_timer_restores_the_collector_after_a_call_that_raises(enabled):
    def run():
        assert not gc.isenabled()
        raise RuntimeError("boom")

    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(RuntimeError):
            kit.per_call(run, 3)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_census_counts_what_each_value_keeps():
    assert kit.census(lambda i: bytes(1_000), list(range(200))) >= 1_000
    objects, retained = kit.census(lambda i: [i], list(range(200)), gc_objects=True)
    assert objects >= 1 and retained > 0


def test_main_prints_one_json_record(capsys):
    def measure(seed, repeats):
        return {"echo": [seed, repeats]}

    kit.main(measure, repeats=5, argv=["--seed", "3", "--repeats", "1"])
    record = json.loads(capsys.readouterr().out)
    assert list(record) == ["harness", "command", "python", "nproc", "seed", "repeats", "echo"]
    assert record["harness"] == "test_tools_kit"
    assert (record["seed"], record["repeats"], record["echo"]) == (3, 1, [3, 1])
    assert record["command"].endswith("test_tools_kit.py --seed 3 --repeats 1")


def test_ab_runner_reads_every_number_of_a_record_and_tells_measured_from_deterministic():
    record = {"probe_us_min": {"dark": 11.5}, "tap_entry": {"gc_objects": 2.0, "ok": True},
              "shapes": [{"shape": "a", "records": 1, "encode_us_median": 1.9}],
              "op_ms_p50": 0.3, "peak_rss_mb": 50.1, "pairs_per_s": 5e3,
              "sim_pairs_per_hour": 48000.0}
    flat = dict(ab.flatten(record))
    assert flat == {"probe_us_min.dark": 11.5, "tap_entry.gc_objects": 2.0, "shapes.0.records": 1,
                    "shapes.0.encode_us_median": 1.9, "op_ms_p50": 0.3, "peak_rss_mb": 50.1,
                    "pairs_per_s": 5e3, "sim_pairs_per_hour": 48000.0}
    measured = {name for name in flat if any(map(ab.MEASURED.search, name.split(".")))}
    assert measured == {"probe_us_min.dark", "shapes.0.encode_us_median", "op_ms_p50",
                        "peak_rss_mb", "pairs_per_s"}
