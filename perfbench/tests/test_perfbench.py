"""Tests of the benchmark itself; run with

    python3 -m pytest perfbench/tests

The acceptance-mix call count takes a few minutes.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def mods():
    return workloads.load_modules(ROOT)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_lists_every_metric_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert all(m["name"][0].isalnum() for m in spec["per_layer"] + spec["end_to_end"])
    assert [m["name"] for m in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.per_layer_names()


def test_a_corrupted_reference_raises_the_fail_ratio(mods, tmp_path):
    wl = workloads.build("delone_scarf", workloads.DEFAULT_SEED, mods, tmp_path)
    ops = [op for name in ("cli", "random_trio") for op in wl.classes[name][:3]]
    refs = workloads.load_reference()
    assert all(op.key in refs for op in ops)
    assert run.timed_loop(ops, refs, 60)[1] == 0

    corrupted = dict(refs)
    corrupted[ops[0].key] = "0" * 64
    latencies, failed = run.timed_loop(ops, corrupted, 60, log=sys.stdout)
    assert (len(latencies), failed) == (len(ops), 1)


def test_tail_has_ten_operations_beyond_it_or_is_the_maximum():
    assert run.tail([float(i) for i in range(100, 0, -1)]) == (90.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_every_prefix_of_the_stream_keeps_the_pattern(mods, tmp_path):
    wl = workloads.build("lattice_cells", 7, mods, tmp_path)
    stream = wl.stream()
    ops = [next(stream) for _ in range(3 * len(wl.pattern))]
    for name in wl.classes:
        drawn = [op for op in ops if op in wl.classes[name]]
        assert len(drawn) == 3 * wl.pattern.count(name)


def test_two_traced_runs_give_identical_counts():
    runs = []
    for _ in range(2):
        proc = _bench("--workload", "delone_scarf", "--seed", "3", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    counts = [
        {k: v["value"] for k, v in r["metrics"].items() if v["unit"] in ("count", "bytes", "bits")}
        for r in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["delone.hull_complex.calls"] > 0
    assert runs[0]["failed"] == 0


def test_without_the_package_sources_the_benchmark_refuses_to_run(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "lattice_cells", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_wrappers_count_every_lp_solve_of_the_acceptance_mix(mods):
    """The 50-set lift mix of the acceptance suite makes 18,145 lp_solve
    calls: 17,975 through _lp's own binding, the count ROADMAP.md gives, and
    170 from region's boundedness test through voronoi's binding, which
    that count missed.  A wrapper missing a module binding counts fewer."""
    rng = random.Random(20260818)
    sizes = [(3, k) for k in (2, 3, 3, 4, 4) for _ in range(5)]
    sizes += [(4, k) for k in (2, 2, 3, 3, 4) for _ in range(5)]
    sets = [workloads._random_gp_sites(rng, mods, n, count, True) for n, count in sizes]
    tracer = tracing.Tracer(mods)
    tracer.install()
    try:
        for S in sets:
            assert mods["lift"].verify_lift(S)["isomorphic"]
    finally:
        tracer.uninstall()
    calls = {k: v[0] for k, v in tracer.stats.items()}
    assert calls["lp.lp_solve.int"] + calls["lp.lp_solve.poly"] == 17975 + 170
    assert calls["lift.verify_lift"] == 50
    assert calls["lift.power_diagram_poset.symbolic"] == 50
