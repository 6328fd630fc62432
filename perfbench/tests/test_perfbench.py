"""Self-tests of the benchmark: every workload end to end at smoke size, and
every check fed a corrupted response.

Run from the checkout root::

    PYTHONPATH=src:. python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import itertools
import json
import pathlib
import subprocess
import sys

import pytest

from perfbench.checks import CheckError, Checker, paper_errors
from perfbench.harness import Connection
from perfbench.inputs import city_specs, mix_plan, serial_requests

ROOT = pathlib.Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_prints_every_end_to_end_metric(workload: str) -> None:
    result = _run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["plan_mix", "city_sim"])
def test_traced_smoke_run_prints_every_per_layer_metric(workload: str) -> None:
    result = _run(workload, trace=1)
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_inputs_are_a_function_of_the_seed() -> None:
    first = [r[3] for r in itertools.islice(serial_requests(5), 40)]
    assert first == [r[3] for r in itertools.islice(serial_requests(5), 40)]
    assert first != [r[3] for r in itertools.islice(serial_requests(6), 40)]
    assert len(set(first)) == len(first)
    assert [r.body for r in mix_plan(5, 2.0)] == [r.body for r in mix_plan(5, 2.0)]
    assert city_specs(5, 0) == city_specs(5, 0) != city_specs(6, 0)
    assert city_specs(5, 0) != city_specs(5, 1)


# --------------------------------------------------------------------------- #
# Corrupted responses                                                         #
# --------------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def responses():
    """One genuine response per scalar kind, plus sweep rows, from a live service."""
    from repro.service import ServiceConfig, ThreadedServer

    config = ServiceConfig(port=0, workers=0, result_cache=False, request_log=False)
    out = {}
    with ThreadedServer(config) as server:
        conn = Connection(server.port)
        for kind, path, body, blob in itertools.islice(serial_requests(11), 4):
            status, data = conn.post(path, blob)
            assert status == 200
            out[kind] = (path, body, json.loads(data))
        sweep = {"d1": [20.0, 40.0, 60.0], "m": 2, "bandwidth": 10e3}
        rows = [row for _, row in conn.stream("/v1/overlay/feasible", json.dumps(sweep).encode())]
        out["overlay_stream"] = ("/v1/overlay/feasible", sweep, rows)
        conn.close()
    return out


def _fails(fn) -> None:
    with pytest.raises(CheckError):
        fn()


def test_genuine_responses_pass(responses) -> None:
    checker = Checker()
    for kind in ("ebar", "overlay", "underlay", "interweave"):
        checker.check(*responses[kind])
    checker.check_stream(*responses["overlay_stream"])


def test_ebar_off_by_1e_3_fails(responses) -> None:
    path, body, payload = copy.deepcopy(responses["ebar"])
    payload["e_bar"] *= 1.0 + 1e-3
    _fails(lambda: Checker().check(path, body, payload))


def test_interweave_wrong_amplitude_fails(responses) -> None:
    path, body, payload = copy.deepcopy(responses["interweave"])
    payload["amplitudes"][0] *= 1.0 + 1e-6
    _fails(lambda: Checker().check(path, body, payload))
    payload["amplitudes"][0] = 2.5  # outside [0, sum(gamma)]
    _fails(lambda: Checker().check(path, body, payload))


@pytest.mark.parametrize(
    "field, change",
    [
        ("feasible", lambda row: not row["feasible"]),
        ("e1", lambda row: row["e1"] * (1.0 - 1e-6)),
        ("b_direct", lambda row: row["b_direct"] + 1),
        ("d2", lambda row: row["d2"] * 1.01),
        ("d3", lambda row: row["d3"] * 1.01),
    ],
)
def test_overlay_corruptions_fail(responses, field, change) -> None:
    path, body, payload = copy.deepcopy(responses["overlay"])
    row = payload["rows"][0]
    assert row["feasible"]
    row[field] = change(row)
    _fails(lambda: Checker().check(path, body, payload))


def test_underlay_corruptions_fail(responses) -> None:
    path, body, payload = copy.deepcopy(responses["underlay"])
    payload["rows"][0]["total_pa"] *= 1.0 + 1e-6
    _fails(lambda: Checker().check(path, body, payload))
    path, body, payload = copy.deepcopy(responses["underlay"])
    # Another b with its own, self-consistent total: the optimality check fails.
    checker = Checker()
    row = payload["rows"][0]
    for b in range(1, 17):
        total = checker._underlay_total(body, b, row["distance"])
        if b != row["b"] and total is not None:
            row["b"], row["total_pa"] = b, total
            break
    _fails(lambda: checker.check(path, body, payload))


def test_stream_without_terminal_row_fails(responses) -> None:
    path, body, rows = copy.deepcopy(responses["overlay_stream"])
    _fails(lambda: Checker().check_stream(path, body, rows[:-1]))
    _fails(lambda: Checker().check_stream(path, body, rows[:1] + rows[2:]))


@pytest.fixture(scope="module")
def sim_rows():
    from repro.scenario import ScenarioRuntime
    from repro.scenario.spec import scenario_from_mapping

    return list(ScenarioRuntime(scenario_from_mapping(city_specs(4, 0, smoke=True)[0])).run())


def test_sim_rows_pass_and_corruptions_fail(sim_rows) -> None:
    checker = Checker()
    assert checker.sim_rows(sim_rows) == sim_rows[-1]["digest"]
    dropped = sim_rows[:1] + sim_rows[2:]
    _fails(lambda: checker.sim_rows(dropped))
    _fails(lambda: checker.sim_rows(sim_rows[:-1]))
    bad = copy.deepcopy(sim_rows)
    bad[0]["delivered"] += 1
    _fails(lambda: checker.sim_rows(bad))
    bad = copy.deepcopy(sim_rows)
    bad[0]["live_nodes"] = bad[0]["present_nodes"] + 1
    _fails(lambda: checker.sim_rows(bad))


def test_paper_report_corruptions_are_reported() -> None:
    report = {"check_failures": [], "digests": [{"a": "1"}, {"a": "1"}], "siso_ebar": 1.98e-18}
    assert paper_errors(report) == []
    assert paper_errors(dict(report, digests=[{"a": "1"}, {"a": "2"}]))
    assert paper_errors(dict(report, siso_ebar=2.1e-18))
    assert paper_errors(dict(report, check_failures=["table4: shape"]))
