"""Tests of the benchmark's own machinery.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import cliffordspec as cs  # noqa: E402
from child import (  # noqa: E402
    TRACE_HOOKS,
    TRACED_LAYERS,
    another_pass_fits,
    end_to_end,
    layer_metrics,
    percentile,
    tail_percentile,
)
from gate import GateError, check_coeffs, check_sha256, check_text, parse_poly_text, sha256_hex  # noqa: E402
from tracer import Span, Tracer, covered_length, is_boundary, self_times, wrapped_names  # noqa: E402
from workloads import read_ref  # noqa: E402


# -- self time ---------------------------------------------------------------


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered_length([(1, 3), (2, 5)], 2.5, 4) == 1.5
    assert covered_length([], 0, 1) == 0
    assert covered_length([(3, 4)], 0, 2) == 0


def test_self_time_subtracts_the_union_of_children():
    root = Span("a.f", "a", 0.0, 10.0)
    # two overlapping children cover [1, 6]; a grandchild must not count
    # against the root
    c1 = Span("b.g", "b", 1.0, 4.0, root)
    c2 = Span("b.h", "b", 3.0, 6.0, root)
    grand = Span("c.k", "c", 1.5, 2.0, c1)
    other = Span("a.f", "a", 20.0, 21.0)
    got = self_times([root, c1, c2, grand, other])
    assert got == pytest.approx([5.0, 2.5, 3.0, 0.5, 1.0])
    assert [is_boundary(s) for s in (root, c1, c2, grand, other)] == [True] * 5
    assert not is_boundary(Span("a.g", "a", 0.5, 0.6, root))


# -- percentile rule -----------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile([7.0], 50) == 7.0


@pytest.mark.parametrize(
    "n, label",
    [(19, "max"), (20, "p50"), (99, "p50"), (100, "p90"), (199, "p90"), (200, "p95"),
     (1050, "p95"), (100000, "p95")],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, label):
    values = [float(v) for v in range(n)]
    got, value = tail_percentile(reversed(values))
    assert got == label
    beyond = sum(v > value for v in values)
    assert beyond >= 10 or label == "max"


# -- stopping rule -------------------------------------------------------------


def test_a_pass_starts_only_when_a_median_pass_would_end_in_time():
    assert another_pass_fits(10.0, [3.0, 3.5, 2.5], 40.0)
    assert another_pass_fits(37.0, [3.0], 40.0)
    assert not another_pass_fits(37.5, [3.0], 40.0)
    # a single long pass leaves no room for a second
    assert not another_pass_fits(29.0, [29.0], 40.0)
    # one slow pass does not stop the run while the median is short
    assert another_pass_fits(20.0, [3.0, 3.0, 15.0], 40.0)


def test_timings_are_taken_per_pass_at_the_upper_decile():
    passes = [
        {"wall": float(w), "latencies": [w * 1e-3] * 19 + [w * 2e-3], "attempted": 20, "failed": 0}
        for w in range(10, 0, -1)
    ]
    got = end_to_end(passes, per_operation=True)
    assert got["metrics"]["wall_s"] == 9.0
    assert got["metrics"]["latency_p50_us"] == pytest.approx(9e3)
    assert got["metrics"]["latency_tail_us"] == pytest.approx(9e3)  # p50: only 20 per pass
    assert got["notes"]["latency_tail_percentile"] == "p50"
    # a batch pass is one request; up to nine passes give the slowest one
    batch = end_to_end(passes[5:], per_operation=False)["metrics"]
    assert batch["wall_s"] == 5.0
    assert batch["latency_p50_us"] == batch["latency_tail_us"] == pytest.approx(5e6)


# -- correctness gate ----------------------------------------------------------


def test_gate_rejects_a_perturbed_exact_coefficient():
    ref = read_ref("sykora_two_torus_char_poly")
    check_text(ref, ref, "same")
    lines = ref.splitlines(keepends=True)
    re_s, rest = lines[5].split(" ", 1)
    lines[5] = f"{re_s}1 {rest}"
    with pytest.raises(GateError, match="line 6"):
        check_text("".join(lines), ref, "perturbed")
    with pytest.raises(GateError):
        check_text(ref + "0 0 9 9 9\n", ref, "extra term")


def test_gate_rejects_a_perturbed_float_coefficient():
    ref = parse_poly_text(read_ref("fuzzy_sphere_5_char_poly"))
    scale = max(abs(c) for c in ref.values())
    close = {k: c * (1 + 1e-13) for k, c in ref.items()}
    assert check_coeffs(close, ref, 1e-9, "close") <= 1e-12
    key = sorted(ref)[3]
    off = dict(ref)
    off[key] = ref[key] + 1e-6 * scale
    with pytest.raises(GateError):
        check_coeffs(off, ref, 1e-9, "perturbed")
    missing = dict(ref)
    del missing[max(ref, key=lambda k: abs(ref[k]))]
    with pytest.raises(GateError):
        check_coeffs(missing, ref, 1e-9, "missing term")


def test_gate_rejects_a_one_byte_obj_change():
    data = b"v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"
    want = sha256_hex(data)
    check_sha256(data, want, "same")
    changed = bytearray(data)
    changed[2] = ord("1")
    with pytest.raises(GateError):
        check_sha256(bytes(changed), want, "changed")


# -- tracing -------------------------------------------------------------------


def test_traced_run_records_spans_and_restores_every_name():
    index_before = cs.index
    as_float_before = cs.HermitianTuple.as_float
    build_in_invariants = cs.invariants.build
    pauli = cs.named_example("pauli").tuple
    with Tracer(cs, TRACED_LAYERS, TRACE_HOOKS) as tracer:
        assert cs.index is not index_before
        assert cs.invariants.build is not build_in_invariants
        cs.index(pauli, [0.1, 0.2, 0.3])  # not recording: leaves no span
        assert tracer.spans == []
        tracer.recording = True
        report = cs.index(pauli, [0.1, 0.2, 0.3])
        tracer.recording = False
    assert report.value == 1
    names = [s.name for s in tracer.spans]
    assert "invariants.index" in names
    assert "localizer.build" in names
    assert "matrices.HermitianTuple.as_float" in names
    build = next(s for s in tracer.spans if s.name == "localizer.build")
    assert build.parent.name == "invariants.index"
    assert wrapped_names(cs) == []
    assert cs.index is index_before
    assert cs.invariants.index is index_before
    assert cs.invariants.build is build_in_invariants
    assert cs.HermitianTuple.as_float is as_float_before


def test_tracer_restores_names_when_the_run_raises():
    pauli = cs.named_example("pauli").tuple
    with pytest.raises(cs.ContractError):
        with Tracer(cs, TRACED_LAYERS, TRACE_HOOKS) as tracer:
            tracer.recording = True
            cs.index(pauli, [0.1, 0.2])  # wrong length
    assert wrapped_names(cs) == []
    assert [s.name for s in tracer.spans][-1] == "invariants.index"


def test_layer_metrics_count_determinants_under_charpoly():
    with Tracer(cs, TRACED_LAYERS, TRACE_HOOKS) as tracer:
        tracer.recording = True
        poly = cs.char_poly(cs.named_example("pauli").tuple)
        cs.to_text(poly)
        tracer.recording = False
    metrics = layer_metrics(tracer.spans, 1, [{"terms": len(poly.terms)}])
    side = 4  # pauli: 2x2 matrices, 2x2 gammas
    assert metrics["parallel.items"] == (side + 1) ** 3
    assert metrics["charpoly.terms_per_det"] == len(poly.terms) / (side + 1) ** 3
    assert metrics["multipoly.evaluate_calls"] == 1  # the held-out check
    assert 0 < metrics["charpoly.self_s"] < metrics["charpoly.s"]
    assert metrics["sampler.extract_s"] == 0.0
    assert metrics["charpoly.float_dets_per_s"] == 0.0


def test_layer_metrics_tell_float_determinants_from_exact_ones():
    with Tracer(cs, TRACED_LAYERS, TRACE_HOOKS) as tracer:
        tracer.recording = True
        cs.char_poly(cs.named_example("pauli").tuple.as_float())
        tracer.recording = False
    metrics = layer_metrics(tracer.spans, 1, [])
    assert metrics["charpoly.float_dets_per_s"] > 0
    assert metrics["charpoly.dets_per_s"] == 0.0
    assert metrics["parallel.items"] > 0
