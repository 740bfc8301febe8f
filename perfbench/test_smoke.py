"""Smoke test of the benchmark: tiny boxes, every workload, traced and not.

Run from the repository root:  python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

WORKLOADS = ("identity-web", "route-agreement", "float-orthogonality")
END_TO_END = ("wall_s", "op_p50_s", "op_tail_s", "fail_share", "peak_rss_mb", "setup_s")
PER_LAYER = (
    "kernel.mul_trunc.calls", "kernel.mul_trunc.s", "kernel.mul_trunc.term_pairs",
    "numerics.series_geom_pow.calls", "numerics.series_geom_pow.s",
    "numerics.series_mul.calls", "numerics.series_mul.s",
    "bivariate.monic_eval_gf.calls", "bivariate.monic_eval_gf.s",
    "bivariate.monic_eval_gf.distinct", "bivariate.monic_eval_gf.useful_ratio",
    "bivariate.gf_series.builds_per_point",
    "bivariate.check_recurrence.self_s", "bivariate.check_difference.self_s",
    "bivariate.check_lowering.self_s", "bivariate.check_duality.self_s",
    "bivariate.monic_eval_raising.calls", "bivariate.monic_eval_raising.s",
    "bivariate.monic_eval_hyp.calls", "bivariate.monic_eval_hyp.s",
    "kernel.hyp_sum.calls", "kernel.hyp_sum.s", "kernel.hyp_sum.terms",
    "multivariate.monic_eval_gf_d.calls", "multivariate.monic_eval_gf_d.s",
    "multivariate.monic_eval_raising_d.calls", "multivariate.monic_eval_raising_d.s",
    "bivariate.factorized_eval.s", "bivariate.general_sum_eval.s",
    "univariate.meixner.calls", "univariate.krawtchouk.calls",
    "bivariate.check_orthogonality.self_s", "multivariate.check_orthogonality_d.self_s",
    "bivariate.monic_poly_coeffs.calls", "bivariate.monic_poly_coeffs.s",
    "numerics.solve_linear_system.calls", "numerics.solve_linear_system.s",
    "bivariate.check_addition.s",
    "numerics.pochhammer.hits", "numerics.pochhammer.misses", "numerics.pochhammer.entries",
    "lorentz.product_of.calls", "lorentz.product_of.s",
    "harness.run_suite.calls", "harness.run_suite.self_s",
    "trace.overhead_share",
)


def run_bench(*extra, cwd=ROOT, run=RUN):
    cmd = [sys.executable, run, "--workload", "all", "--smoke", "--seconds", "1", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def metric_blocks(stdout):
    """workload -> {metric name: value} from the human-readable lines."""
    blocks = {}
    current = None
    for line in stdout.splitlines():
        if line.startswith("# workload "):
            current = blocks.setdefault(line.split()[2].rstrip(":"), {})
        elif line.startswith("# PROBLEM") or line.startswith("# FAILED"):
            raise AssertionError(line)
        elif current is not None and line and not line.startswith(("#", "{")):
            name, value = line.split()[:2]
            current[name] = float(value)
        elif not line:
            current = None
    return blocks


def test_every_metric_is_emitted_and_nothing_fails():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))
    # twice traced: the second run must repeat the first run's counts exactly
    for trace in ("0", "1", "1"):
        done = run_bench("--trace", trace)
        assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] > 0
        blocks = metric_blocks(done.stdout)
        assert sorted(blocks) == sorted(WORKLOADS)
        wanted = END_TO_END + (PER_LAYER if trace == "1" else ())
        listed = spec["per_layer"] if trace == "1" else spec["end_to_end"]
        for name in WORKLOADS:
            assert set(wanted) <= set(blocks[name]), set(wanted) - set(blocks[name])
            assert blocks[name]["fail_share"] == 0
            for entry in listed:
                assert f"{name}.{entry['name']}" in result["metrics"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "identity-web", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
