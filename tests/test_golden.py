"""Pinned artifact digests: refactors must leave every CLI output byte-identical.

The digests were computed from the code as it stood before the engine was
rewritten as a stage pipeline.  A change that moves any of them changes the
simulator's behaviour and must say so; it is not a refactor.
"""

import hashlib
from pathlib import Path

import pytest

from eochain.cli import EXIT_OK, main
from eochain.engine import geometry_tables
from eochain.presets import get_preset

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
TRACE = SCENARIOS / "acceptance_trace.csv"

GOLDEN = {
    "run-iride-heo": (
        ["run", "--preset", "iride-heo", "--seed", "42", "--duration", "86400"],
        {
            "events.csv": "8e740f9bd1262b0175e4e2b1d1758e1b23aac62dc460bac907a988bc5e44ceb5",
            "marketplace.jsonl": "f539d1a70b9ef8091f3be83c0d2fb8ec91358a74c37c69fe10d8282083aa1da7",
            "plan.json": "9e6ae6c0ee0f1fc9d807cf771fe7e97c9f808b42c8d4581a91bc202ad3884037",
            "run_report.csv": "7da84ed1a298082ecba97bd1e7e6c0b7a28f58e09ba5f0e2e8698bfe02920141",
            "run_report.json": "df22d625baf2e788f1c70d6f754ca8cf95833792d40aa70df8acb5c5359f79df",
            "transfers.csv": "6fc68217b1c1748009ae0434f24381efc233e42b9da3d674eb3c94eab6430b4a",
        },
    ),
    "run-effis-like": (
        ["run", "--preset", "effis-like", "--seed", "0"],
        {
            "events.csv": "6af0b9efacd5cb73877c9e98c8b0ad564990efda30b701e72dcd1c5cbb951117",
            "marketplace.jsonl": "9bf881454736fb3e851932ffc82251e795703c7f2f406d61371a2a1f50065868",
            "plan.json": "92a3a2e2ccc021cee7e01cea3152558161abe9f497d22c4c15400d6521027eaf",
            "run_report.csv": "b8bfa94876be57651b782d1da3383e80a38ca23c6a39479a811cbe7cd7d5ab44",
            "run_report.json": "85b74362f44d82ab19f9e24afe4add5a1cb5dea3339df193b8412daba2313f77",
            "transfers.csv": "cb9cf16a43910d421aaa72f075dd0a6740947ca1032a2bf98673f4524be4fdef",
        },
    ),
    # The high-event-rate path: iride-heo at 50 events/AOI/day, so most
    # scenes hold several fires and many events lie in two AOI discs.  Its
    # digests were computed before the event-AOI membership table replaced
    # the per-scene scan of every event.
    "run-iride-heo-stress": (
        ["run", "--scenario", str(SCENARIOS / "iride_heo_stress.yaml"), "--seed", "0",
         "--duration", "86400"],
        {
            "events.csv": "867870ce151dc86b393b4f5fabb73b67ab95ae06e666581f88d5334f07e24905",
            "marketplace.jsonl": "e54082c7a8ec2c3d9e8cacbdf5fc2d11ccb23f5fdbbd55c5986345b98acb96cc",
            "plan.json": "11a34ebbaef39a8b63331d62797e2524fad060c98eda0f6e1c37eb7a43628de3",
            "run_report.csv": "6e0c95572448281ed3b9ca35f6e9ca5b8171e4a14e7f6b0a02b0a263a9c552ba",
            "run_report.json": "7de2068c7bf7df1c9357f527eadda952c2c3eddfb0ad90d437bf356318350706",
            "transfers.csv": "55ba6ba195dd92fb87ec43e3847df5206ef9e096977dc167020cd97b51554fd8",
        },
    ),
    # Full horizon: the acceptance trace has events up to 451,555 s.
    "compare-acceptance": (
        ["compare", "--preset", "iride-heo", "--baseline", "effis-like",
         "--events", str(TRACE), "--seed", "42"],
        {
            "compare_report.csv": "5b722fa0605b55f21bc1f037b1ee76afd5c8ea6e5d35c35526aa1dda6f72c288",
            "compare_report.json": "259397be5ab2fd8f452287a7ae0148d6b3d02a600ac781dd273508fe7c7cb3c6",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifacts_match_pinned_digests(name, tmp_path):
    argv, expected = GOLDEN[name]
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == expected


# Every window of both presets over their default 7-day horizon, as
# "satellite target start end" lines with the float reprs, contact table
# first.  The digests were computed before the window search read one
# visibility test, psi <= limit, for stations and AOIs alike.
WINDOW_DIGESTS = {
    "effis-like": (124, "47ac24b73f90c8a33a41594b8a52bbd6dd9b57a2dd5f8c8339ce01f282d5f144"),
    "iride-heo": (1872, "d8b7aab051a4a0e7e181d2116484291164a349055b10378f65db75efff996f86"),
}


@pytest.mark.parametrize("preset", sorted(WINDOW_DIGESTS))
def test_geometry_tables_match_pinned_digest(preset):
    digest, count = hashlib.sha256(), 0
    for table in geometry_tables(get_preset(preset)):
        for (sat_id, target_id), windows in table.items():
            for w in windows:
                digest.update(f"{sat_id} {target_id} {w.start!r} {w.end!r}\n".encode())
                count += 1
    assert (count, digest.hexdigest()) == WINDOW_DIGESTS[preset]
