"""The BENCH_*.json record schema.

Every benchmark invocation emits one schema-versioned JSON document so
the repository accumulates a comparable performance trajectory:
``BENCH_0004.json`` (this PR), ``BENCH_0005.json`` (the next), and so
on. The validator here is what CI's ``bench-smoke`` job runs — schema
violations fail the build; performance *regressions* do not (thresholds
are a later PR's concern, once several trajectory points exist).

Version history:

* v1 — initial schema (PR 5).
* v2 — adds the optional per-result ``memory`` object, reported by
  sustained-load benchmarks: ``{"retained_high_water": int,
  "retained_bound": int, "by_node": {node_id: int, ...}}``. v1
  documents (no ``memory``) remain valid, so the accumulated
  trajectory keeps validating under one checker.
* v3 — adds the data-plane fields: top-level ``codec_enabled`` and
  ``wire_fidelity`` booleans, plus the optional ``codec_control`` /
  ``codec_comparison`` sections emitted by the codec control pass
  (now retired; BENCH_0008 is its last record, and archived documents
  carrying these sections still validate). That pass reverted the
  generated wire codecs, the canonical digest expanders, and the
  fast-path scheduler — the pre-codec data plane — while keeping
  caches on, so its speedups isolated the codec from the older cache
  machinery. Each ``codec_comparison`` entry carries
  ``work_identical``: whether the seeded deterministic work counters
  (completed ops, events processed, virtual time, messages sent)
  matched between the two passes, which is what makes the wall-clock
  ratio a like-for-like comparison.
* v4 — adds the optional per-result ``latency`` object: the
  critical-path attribution report from :mod:`repro.obs.critpath`
  (per-segment p50/p90/p99 budgets over *virtual* time, the p99-tail
  dominance ranking, and the conservation proof), recorded by
  sustained-load benchmarks. Virtual-time latencies are
  seed-deterministic, so two BENCH files with the same seed and
  workload are comparable point-for-point — that is what
  ``--gate-latency-regression`` compares. A ``latency`` block whose
  conservation proof failed is a schema violation: the run should
  have failed, not recorded.

Top-level document::

    {
      "schema": "repro.bench/v4",
      "schema_version": 4,
      "seed": 7,
      "repeats": 3,
      "warmup": 1,
      "caches_enabled": true,
      "codec_enabled": true,
      "wire_fidelity": false,
      "results": [<result>, ...],
      "control": {"caches_enabled": false, "results": [<result>, ...]},
      "comparison": {"<macro name>": {"speedup": 1.42, ...}, ...},
      "codec_control": {"codec_enabled": false, "results": [<result>, ...]},
      "codec_comparison": {
        "<name>": {
          "codec_ops_per_sec": 123.4,
          "control_ops_per_sec": 78.9,
          "speedup": 1.56,
          "work_identical": true
        }, ...
      }
    }

``control`` and ``comparison`` appear only when the invocation also ran
the cache-disabled control pass (``--disable-caches``);
``codec_control`` and ``codec_comparison`` only in archived documents
from the retired codec-disabled control pass; ``codec_enabled`` is
optional and no longer emitted. Each result::

    {
      "name": "micro.digest.stable",
      "kind": "micro" | "macro",
      "ops": 123,                  # operations per repeat (int > 0)
      "repeats": 3,
      "ns_per_op": 1234.5,         # best repeat / ops
      "ops_per_sec": 810372.2,     # 1e9 / ns_per_op
      "samples_ns": [...],         # raw per-repeat wall nanoseconds
      "extra": {...},              # benchmark-specific counters
      "memory": {                  # optional (v2, sustained soaks)
        "retained_high_water": 812,
        "retained_bound": 4000,
        "by_node": {"A-0": 812, ...}
      },
      "latency": {                 # optional (v4, sustained soaks)
        "sample_every": 16,        # commit-trace sampling stride
        "ops": 625,                # decomposed (sampled) commits
        "end_to_end_ms": {"p50": ..., "p90": ..., "p99": ..., ...},
        "segments": [{"segment": "pbft.prepare", "p99": ..., ...}, ...],
        "unattributed": {..., "p99_fraction": 0.0},
        "tail": {"dominant_segment": "pbft.reply", "ranking": [...]},
        "conservation": {"ok": true, "max_error_ms": ..., ...}
      }
    }

The document deliberately records **no timestamps, hostnames, or
environment fingerprints** — nothing nondeterministic beyond the
measured durations themselves.
"""

from __future__ import annotations

from typing import Any, Dict, List

SCHEMA_NAME = "repro.bench/v4"
SCHEMA_VERSION = 4

#: (schema string, schema_version) pairs the validator accepts. Older
#: BENCH_*.json artifacts in the repository stay checkable.
ACCEPTED_SCHEMAS = (
    ("repro.bench/v1", 1),
    ("repro.bench/v2", 2),
    ("repro.bench/v3", 3),
    ("repro.bench/v4", 4),
)

#: Required top-level fields and their types.
_TOP_FIELDS = {
    "schema": str,
    "schema_version": int,
    "seed": int,
    "repeats": int,
    "warmup": int,
    "caches_enabled": bool,
    "results": list,
}

_RESULT_FIELDS = {
    "name": str,
    "kind": str,
    "ops": int,
    "repeats": int,
    "ns_per_op": (int, float),
    "ops_per_sec": (int, float),
    "samples_ns": list,
    "extra": dict,
}

_KINDS = ("micro", "macro")


class SchemaError(ValueError):
    """A BENCH record violates the schema."""


def validate(document: Any) -> List[str]:
    """Return every schema violation in ``document`` (empty = valid)."""
    errors: List[str] = []
    if not isinstance(document, dict):
        return [f"document must be an object, got {type(document).__name__}"]
    for field, expected in _TOP_FIELDS.items():
        if field not in document:
            errors.append(f"missing top-level field {field!r}")
        elif not isinstance(document[field], expected):
            errors.append(
                f"field {field!r} must be {expected}, "
                f"got {type(document[field]).__name__}"
            )
    schema = document.get("schema")
    version = document.get("schema_version")
    if schema is not None and version is not None:
        if (schema, version) not in ACCEPTED_SCHEMAS:
            accepted = ", ".join(
                f"{name!r}/{number}" for name, number in ACCEPTED_SCHEMAS
            )
            errors.append(
                f"schema/schema_version pair {schema!r}/{version!r} "
                f"not accepted (accepted: {accepted})"
            )
    elif schema is not None and all(
        schema != name for name, _ in ACCEPTED_SCHEMAS
    ):
        errors.append(f"schema must be one of {ACCEPTED_SCHEMAS}, got {schema!r}")
    results = document.get("results")
    if isinstance(results, list):
        if not results:
            errors.append("results must not be empty")
        names = set()
        for index, result in enumerate(results):
            errors.extend(_validate_result(result, f"results[{index}]"))
            if isinstance(result, dict) and "name" in result:
                if result["name"] in names:
                    errors.append(f"duplicate result name {result['name']!r}")
                names.add(result["name"])
    control = document.get("control")
    if control is not None:
        if not isinstance(control, dict):
            errors.append("control must be an object")
        else:
            if control.get("caches_enabled") is not False:
                errors.append("control.caches_enabled must be false")
            for index, result in enumerate(control.get("results", [])):
                errors.extend(_validate_result(result, f"control.results[{index}]"))
    comparison = document.get("comparison")
    if comparison is not None and not isinstance(comparison, dict):
        errors.append("comparison must be an object")
    for field in ("codec_enabled", "wire_fidelity"):
        value = document.get(field)
        if value is not None and not isinstance(value, bool):
            errors.append(f"{field} must be a boolean")
    codec_control = document.get("codec_control")
    if codec_control is not None:
        if not isinstance(codec_control, dict):
            errors.append("codec_control must be an object")
        else:
            if codec_control.get("codec_enabled") is not False:
                errors.append("codec_control.codec_enabled must be false")
            for index, result in enumerate(codec_control.get("results", [])):
                errors.extend(
                    _validate_result(result, f"codec_control.results[{index}]")
                )
    codec_comparison = document.get("codec_comparison")
    if codec_comparison is not None:
        if not isinstance(codec_comparison, dict):
            errors.append("codec_comparison must be an object")
        else:
            for name, entry in codec_comparison.items():
                where = f"codec_comparison[{name!r}]"
                if not isinstance(entry, dict):
                    errors.append(f"{where} must be an object")
                    continue
                for rate_field in ("codec_ops_per_sec", "control_ops_per_sec"):
                    rate = entry.get(rate_field)
                    if not isinstance(rate, (int, float)) or isinstance(
                        rate, bool
                    ):
                        errors.append(f"{where}.{rate_field} must be a number")
                if not isinstance(entry.get("speedup"), (int, float)):
                    errors.append(f"{where}.speedup must be a number")
                if not isinstance(entry.get("work_identical"), bool):
                    errors.append(f"{where}.work_identical must be a boolean")
    return errors


def _validate_result(result: Any, where: str) -> List[str]:
    errors: List[str] = []
    if not isinstance(result, dict):
        return [f"{where} must be an object"]
    for field, expected in _RESULT_FIELDS.items():
        if field not in result:
            errors.append(f"{where} missing field {field!r}")
        elif not isinstance(result[field], expected) or (
            expected is int and isinstance(result[field], bool)
        ):
            errors.append(
                f"{where}.{field} must be {expected}, "
                f"got {type(result[field]).__name__}"
            )
    if result.get("kind") not in (None,) + _KINDS:
        errors.append(f"{where}.kind must be one of {_KINDS}")
    ops = result.get("ops")
    if isinstance(ops, int) and not isinstance(ops, bool) and ops <= 0:
        errors.append(f"{where}.ops must be positive")
    for rate_field in ("ns_per_op", "ops_per_sec"):
        rate = result.get(rate_field)
        if isinstance(rate, (int, float)) and rate <= 0:
            errors.append(f"{where}.{rate_field} must be positive")
    samples = result.get("samples_ns")
    if isinstance(samples, list) and not all(
        isinstance(sample, int) and sample >= 0 for sample in samples
    ):
        errors.append(f"{where}.samples_ns must be non-negative integers")
    memory = result.get("memory")
    if memory is not None:
        errors.extend(_validate_memory(memory, f"{where}.memory"))
    latency = result.get("latency")
    if latency is not None:
        errors.extend(_validate_latency(latency, f"{where}.latency"))
    return errors


def _validate_memory(memory: Any, where: str) -> List[str]:
    """The optional v2 ``memory`` block on sustained-load results."""
    errors: List[str] = []
    if not isinstance(memory, dict):
        return [f"{where} must be an object"]
    for field in ("retained_high_water", "retained_bound"):
        value = memory.get(field)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            errors.append(f"{where}.{field} must be a non-negative integer")
    by_node = memory.get("by_node")
    if by_node is not None and (
        not isinstance(by_node, dict)
        or not all(
            isinstance(node, str)
            and isinstance(value, int)
            and not isinstance(value, bool)
            and value >= 0
            for node, value in by_node.items()
        )
    ):
        errors.append(
            f"{where}.by_node must map node ids to non-negative integers"
        )
    high = memory.get("retained_high_water")
    bound = memory.get("retained_bound")
    if (
        isinstance(high, int)
        and isinstance(bound, int)
        and not isinstance(high, bool)
        and not isinstance(bound, bool)
        and high > bound > 0
    ):
        errors.append(
            f"{where}: retained_high_water {high} exceeds retained_bound "
            f"{bound} — the run should have failed, not recorded"
        )
    return errors


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _validate_latency(latency: Any, where: str) -> List[str]:
    """The optional v4 ``latency`` block: critical-path attribution
    with its conservation proof."""
    errors: List[str] = []
    if not isinstance(latency, dict):
        return [f"{where} must be an object"]
    ops = latency.get("ops")
    if not isinstance(ops, int) or isinstance(ops, bool) or ops < 0:
        errors.append(f"{where}.ops must be a non-negative integer")
    stride = latency.get("sample_every")
    if stride is not None and (
        not isinstance(stride, int) or isinstance(stride, bool) or stride < 1
    ):
        errors.append(f"{where}.sample_every must be a positive integer")
    end_to_end = latency.get("end_to_end_ms")
    if not isinstance(end_to_end, dict) or not all(
        _is_number(end_to_end.get(q)) for q in ("p50", "p90", "p99")
    ):
        errors.append(
            f"{where}.end_to_end_ms must carry numeric p50/p90/p99"
        )
    segments = latency.get("segments")
    if not isinstance(segments, list):
        errors.append(f"{where}.segments must be a list")
    else:
        seen = set()
        for index, entry in enumerate(segments):
            seg_where = f"{where}.segments[{index}]"
            if not isinstance(entry, dict):
                errors.append(f"{seg_where} must be an object")
                continue
            name = entry.get("segment")
            if not isinstance(name, str) or not name:
                errors.append(f"{seg_where}.segment must be a name")
            elif name in seen:
                errors.append(f"{where}: duplicate segment {name!r}")
            else:
                seen.add(name)
            for field in ("p50", "p90", "p99", "mean", "total_ms"):
                if not _is_number(entry.get(field)):
                    errors.append(f"{seg_where}.{field} must be a number")
    conservation = latency.get("conservation")
    if not isinstance(conservation, dict):
        errors.append(f"{where}.conservation must be an object")
    else:
        if not isinstance(conservation.get("ok"), bool):
            errors.append(f"{where}.conservation.ok must be a boolean")
        elif conservation["ok"] is not True:
            errors.append(
                f"{where}.conservation failed — the run should have "
                f"failed, not recorded"
            )
        fraction = conservation.get("unattributed_p99_fraction")
        bound = conservation.get("unattributed_p99_bound")
        if not _is_number(fraction) or not 0.0 <= fraction <= 1.0:
            errors.append(
                f"{where}.conservation.unattributed_p99_fraction must "
                f"be a fraction in [0, 1]"
            )
        elif _is_number(bound) and fraction > bound:
            errors.append(
                f"{where}.conservation: unattributed_p99_fraction "
                f"{fraction} exceeds the recorded bound {bound}"
            )
    return errors


def check(document: Dict[str, Any]) -> None:
    """Raise :class:`SchemaError` listing every violation, if any."""
    errors = validate(document)
    if errors:
        raise SchemaError("; ".join(errors))
