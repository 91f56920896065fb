"""Harness mechanics and the CLI, kept fast with toy benchmarks."""

import json

from repro.bench import __main__ as cli
from repro.bench.harness import (
    Benchmark,
    build_document,
    run_benchmark,
    run_suite,
)
from repro.bench.schema import validate
from repro.crypto.caches import caches_enabled, set_caches_enabled


def _toy(seed: int):
    calls = {"n": 0}

    def operation():
        calls["n"] += 1
        return {"calls": calls["n"], "seed": seed}

    return operation, 10


TOY = Benchmark("micro.toy", "micro", _toy)


class TestRunBenchmark:
    def test_result_shape(self):
        result = run_benchmark(TOY, seed=3, repeats=4, warmup=2)
        assert result.name == "micro.toy"
        assert result.ops == 10
        assert len(result.samples_ns) == 4
        assert all(ns >= 0 for ns in result.samples_ns)
        assert result.best_ns == min(result.samples_ns)
        assert result.ns_per_op == result.best_ns / 10
        # warmup(2) + repeats(4) calls; extra keeps the final call's dict.
        assert result.extra == {"calls": 6, "seed": 3}

    def test_repeats_floor_is_one(self):
        result = run_benchmark(TOY, seed=0, repeats=0, warmup=0)
        assert len(result.samples_ns) == 1
        assert result.repeats == 1


class TestRunSuite:
    def test_cache_setting_restored(self):
        previous = set_caches_enabled(True)
        try:
            seen = []
            probe = Benchmark(
                "micro.probe", "micro",
                lambda seed: (lambda: seen.append(caches_enabled()), 1),
            )
            run_suite([probe], seed=0, repeats=1, warmup=0, caches=False)
            assert seen == [False]
            assert caches_enabled() is True
        finally:
            set_caches_enabled(previous)

    def test_progress_callback(self):
        lines = []
        run_suite(
            [TOY], seed=0, repeats=1, warmup=0, progress=lines.append
        )
        assert any("micro.toy" in line for line in lines)


class TestBuildDocument:
    def test_document_validates_and_carries_comparison(self):
        results = run_suite([TOY], seed=7, repeats=2, warmup=0)
        control = run_suite([TOY], seed=7, repeats=2, warmup=0, caches=False)
        document = build_document(7, 2, 0, results, control)
        assert validate(document) == []
        assert document["caches_enabled"] is True
        assert document["control"]["caches_enabled"] is False
        comparison = document["comparison"]["micro.toy"]
        assert comparison["speedup"] > 0

    def test_document_without_control(self):
        results = run_suite([TOY], seed=7, repeats=1, warmup=0)
        document = build_document(7, 1, 0, results)
        assert validate(document) == []
        assert "control" not in document
        assert "comparison" not in document


class TestCLI:
    def test_micro_filter_writes_valid_record(self, tmp_path):
        out = tmp_path / "bench.json"
        code = cli.main([
            "--only", "micro", "--filter", "digest.cached",
            "--repeats", "1", "--warmup", "0", "--out", str(out),
        ])
        assert code == 0
        document = json.loads(out.read_text())
        assert validate(document) == []
        names = [result["name"] for result in document["results"]]
        assert names == ["micro.digest.cached"]

    def test_validate_mode_accepts_and_rejects(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert cli.main([
            "--only", "micro", "--filter", "digest.cached",
            "--repeats", "1", "--warmup", "0", "--out", str(out),
        ]) == 0
        assert cli.main(["--validate", str(out)]) == 0
        broken = tmp_path / "broken.json"
        document = json.loads(out.read_text())
        del document["seed"]
        broken.write_text(json.dumps(document))
        assert cli.main(["--validate", str(broken)]) == 1
        assert cli.main(["--validate", str(tmp_path / "missing.json")]) == 2

    def test_no_matching_benchmarks_errors(self):
        assert cli.main(["--filter", "no-such-benchmark"]) == 2

    def test_disable_caches_emits_control(self, tmp_path):
        out = tmp_path / "bench.json"
        code = cli.main([
            "--only", "micro", "--filter", "digest.cached",
            "--repeats", "1", "--warmup", "0",
            "--disable-caches", "--out", str(out),
        ])
        assert code == 0
        document = json.loads(out.read_text())
        assert validate(document) == []
        assert document["control"]["caches_enabled"] is False
        assert "micro.digest.cached" in document["comparison"]

    def test_wire_codec_gate_passes_on_real_micros(self, tmp_path):
        # A deliberately weak floor: the gate's pass/fail plumbing is
        # under test here, not the performance claim (bench-smoke runs
        # the real ×3 floor).
        code = cli.main([
            "--only", "micro", "--filter", "wire",
            "--repeats", "1", "--warmup", "0",
            "--gate-wire-codec", "1.1",
            "--out", str(tmp_path / "bench.json"),
        ])
        assert code == 0

    def test_wire_codec_gate_fails_on_unreachable_floor(self, tmp_path):
        code = cli.main([
            "--only", "micro", "--filter", "wire",
            "--repeats", "1", "--warmup", "0",
            "--gate-wire-codec", "1e9",
            "--out", str(tmp_path / "bench.json"),
        ])
        assert code == 1

    def test_wire_codec_gate_fails_when_pair_filtered_out(self, tmp_path):
        # A filter that drops the decode pair leaves the gate unable to
        # check it; that is a configuration error, not a pass.
        code = cli.main([
            "--only", "micro", "--filter", "wire.encode",
            "--repeats", "1", "--warmup", "0",
            "--gate-wire-codec", "1.1",
            "--out", str(tmp_path / "bench.json"),
        ])
        assert code == 1
