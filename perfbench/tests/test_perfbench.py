"""Self-tests of the benchmark (not part of the package's suite).

    python3 -m pytest perfbench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import scatsplit as ss  # noqa: E402
from scatsplit import cli  # noqa: E402

import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = workloads.draw_inputs(workload, 7, 40)
    assert first == workloads.draw_inputs(workload, 7, 40)
    assert first != workloads.draw_inputs(workload, 8, 40)
    # a longer draw extends a shorter one, so a run's inputs do not depend on its length
    assert workloads.draw_inputs(workload, 7, 80)[:40] == first


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_count_is_set_by_seconds(workload):
    for seconds in (12, 24, 60):
        n = workloads.op_count(workload, seconds)
        assert abs(n * workloads.NOMINAL_OP_S[workload] - seconds) <= workloads.NOMINAL_OP_S[workload]
    assert workloads.op_count(workload, 0.01) == 1


def _solved_on(inp):
    """The (barrier, k grid) pairs an op solves on, which the program's memo caches key on."""
    bar = tuple(sorted(inp["barrier"].items()))
    keys = []
    if "k_grid" in inp:
        keys.append((bar, inp["k_grid"]))
    if "k0" in inp:
        keys.append((bar, (inp["k0"], inp["sigma"], inp["n_k"])))
    return keys


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_two_ops_share_an_input(workload):
    inputs = workloads.draw_inputs(workload, 3, 400)
    inputs += workloads.draw_inputs(workload, 3, 1, stream=1)  # the warm-up op
    keys = [key for inp in inputs for key in _solved_on(inp)]
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_configs_round_trip_through_the_cli_parser(workload, tmp_path):
    for inp in workloads.draw_inputs(workload, 5, 12):
        path = tmp_path / "run.ini"
        path.write_text(workloads.render_config(inp, {}))
        cfg = cli.load_config(str(path), "times", str(tmp_path), False, None, "default")
        assert cfg.barrier == workloads.build_barrier(ss, inp)
        if "k0" in inp:
            assert cfg.packet_params == {"x0": inp["x0"], "sigma": inp["sigma"],
                                         "k0": inp["k0"], "n": inp["n_k"]}


def _bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    spec = _bench_spec()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "11",
         "--seconds", "0.01", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace:
        assert (ROOT / ".perfbench_runs" / workload / "layers.txt").is_file()
        assert (ROOT / ".perfbench_runs" / workload / "traced" / "spans.csv").is_file()
