"""Self-tests of the benchmark: the rebased generator, the tracer, and the gate."""

import random
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from ringstruct import documents  # noqa: E402
from perfbench.gate import check, invariant, load_expected, normalized, run_op  # noqa: E402
from perfbench.run import end_to_end, run_pass  # noqa: E402
from perfbench.tracer import LAYERS, WRAPPER_MARK, Tracer  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    ALGEBRA_COMMANDS,
    UNVALIDATED,
    WORKLOADS,
    DocSpec,
    Input,
    build_inputs,
    rebase,
)
from ringstruct.generators import generate  # noqa: E402


def _spec(key):
    return next(s for s in WORKLOADS["rebased"] if s.key == key)


@pytest.mark.parametrize("key", ["m2", "h", "t4"])
def test_rebasing_preserves_invariants(key):
    doc = _spec(key).document()
    moved = rebase(doc, random.Random(f"7:{key}"))
    assert moved.payload["constants"] != doc.payload["constants"]
    assert moved.payload["labels"] == doc.payload["labels"]
    assert rebase(doc, random.Random(f"7:{key}")) == moved
    for command in ALGEBRA_COMMANDS:
        std = run_op(key, "algebra", documents.serialize(doc), command)
        new = run_op(key, "algebra", documents.serialize(moved), command)
        assert std.exit_code == new.exit_code == 0, (command, std.message, new.message)
        assert normalized(invariant("algebra", command, new.report)) == normalized(
            invariant("algebra", command, std.report)
        )
        check(new, load_expected()[key][command])
        assert not new.failed, new.message


def test_rebased_inputs_round_trip_and_depend_on_seed():
    first = build_inputs("rebased", 3)
    assert build_inputs("rebased", 3) == first
    assert build_inputs("rebased", 4) != first
    for inp in first:
        assert documents.serialize(documents.parse(inp.text)) == inp.text


@pytest.mark.parametrize("family", sorted(UNVALIDATED))
def test_unvalidated_builders_match_generate(family):
    spec = DocSpec("x", family, (("n", "12"),), ())
    assert documents.serialize(spec.document()) == documents.serialize(
        generate(family, {"n": "12"})
    )


def _attribute_snapshot():
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "ringstruct" or name.startswith("ringstruct."):
            for attr, value in vars(mod).items():
                snap[(name, attr)] = value
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        snap[(name, attr, cattr)] = cvalue
    return snap


def _h_classify_under_tracer():
    text = documents.serialize(_spec("h").document())
    with Tracer() as tracer:
        op = run_op("h", "algebra", text, "classify")
    assert op.exit_code == 0
    return tracer, op


def test_tracer_restores_every_original():
    before = _attribute_snapshot()
    tracer, _ = _h_classify_under_tracer()
    after = _attribute_snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(hasattr(v, WRAPPER_MARK) for v in after.values())
    assert tracer.stats["classify.classify"]["calls"] == 1


def test_tracer_counts_repeat_exactly_and_spans_nest():
    first, op1 = _h_classify_under_tracer()
    second, op2 = _h_classify_under_tracer()
    calls = first.stats["idempotents.principal_ideal"]["calls"]
    assert calls > 0
    assert second.stats["idempotents.principal_ideal"]["calls"] == calls
    assert op1.sha256 == op2.sha256
    for group, parent, start, end in first.spans:
        assert start <= end
        if parent >= 0:
            _, _, pstart, pend = first.spans[parent]
            assert pstart <= start and end <= pend
    for entry in first.stats.values():
        assert 0 <= entry["self_s"] <= entry["total_s"] + 1e-9


def test_tracer_targets_exist():
    for targets in LAYERS.values():
        for module_name, qualname, _ in targets:
            owner = sys.modules[module_name]
            for part in qualname.split("."):
                owner = getattr(owner, part)
            assert callable(owner)


def test_corrupted_certificate_counts_as_failed():
    text = documents.serialize(_spec("m2").document())
    inputs = [Input("m2", "algebra", text, ("classify", "radical"))]
    clean = run_pass(inputs, load_expected())
    assert not any(op.failed for op in clean)

    op = run_op("m2", "algebra", text, "classify")
    idempotent = op.report["certificates"]["factors"][0]["simple_factors"][0]
    idempotent["primitive_idempotents"][0][0] = "2"
    check(op, load_expected()["m2"]["classify"])
    assert op.failed and "verifier rejected" in op.message
    metrics = end_to_end([clean[:1] + [op]], {}, 0.5)
    assert metrics["failed_frac"] == 0.5


def test_wrong_verdict_counts_as_failed():
    text = documents.serialize(_spec("t4").document())
    op = run_op("t4", "algebra", text, "radical")
    check(op, {**load_expected()["t4"]["radical"], "nilpotency_index": 5})
    assert op.failed and "differs from expected" in op.message


def test_speed_clock_scales_by_sampled_kernel_time():
    import signal

    from perfbench.clock import KERNEL_REFERENCE_S, SpeedClock

    idle = SpeedClock()
    raw, scaled = idle.elapsed(idle.mark())
    assert raw == scaled
    before = signal.getsignal(signal.SIGALRM)
    with SpeedClock() as clock:
        mark = clock.mark()
        deadline = clock.mark()[0] + 0.35
        while clock.mark()[0] < deadline:
            pass
    raw, scaled = clock.elapsed(mark)  # the timer is off: no sample can arrive
    assert signal.getsignal(signal.SIGALRM) is before
    window = clock.samples[max(mark[2] - 1, 0):]
    assert len(window) >= 3
    assert scaled == pytest.approx(raw * KERNEL_REFERENCE_S * len(window) / sum(window))
