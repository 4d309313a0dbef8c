"""Tests of the benchmark itself (not part of the tverlab suite).

    python3 -m pytest bench

Two traced runs of one seed must do exactly the same work, the answer
checks must reject tampered certificates, and the command must refuse to
run where there is no tverlab source tree.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_tverlab()

import tracing  # noqa: E402
import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path("bench") / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=300)


def traced_run(workload, seed):
    out = bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    digest = next(line.split()[1] for line in lines if line.startswith("cli_digest "))
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_two_runs_of_one_seed_agree(workload):
    first, first_digest = traced_run(workload, 3)
    second, second_digest = traced_run(workload, 3)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {name for name, _ in tracing.LAYER_METRICS}
    for name in tracing.DETERMINISTIC:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first_digest == second_digest


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_one_seed_gives_the_same_inputs(workload, tmp_path):
    contents = []
    for name in ("a", "b"):
        directory = tmp_path / name
        directory.mkdir()
        workloads.WORKLOADS[workload].setup(7, 2, directory)
        contents.append({p.name: p.read_bytes() for p in directory.iterdir()})
    assert contents[0] == contents[1]


def test_checks_accept_certificates_and_reject_tampered_copies(tmp_path):
    cli = workloads.Cli()
    rng = workloads.random.Random(5)
    points = [workloads.moment_point(a, 3) for a in workloads.clustered_alphas(rng)]
    kinds = set()
    for size in (16, 8):
        path = tmp_path / f"p{size}.otps"
        workloads.write_otps(path, points[:size], 3)
        code, records = cli(["intersect", path, "--alternating", 4])
        assert code == 0
        record = records[0]
        blocks = workloads.alternating_blocks(points[:size], 4)
        kinds.add(record["certificate"]["kind"])
        assert workloads.replay_certificate(record["certificate"], blocks, 3)
        assert not workloads.replay_certificate(record["certificate"], blocks[::-1], 3)
        for kind in range(2):
            bad = workloads.tamper(record, kind)["certificate"]
            assert not workloads.replay_certificate(bad, blocks, 3)
    assert kinds == {"witness", "farkas"}


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "answers_per_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = bench("--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
