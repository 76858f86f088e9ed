"""Static kernel profiler."""

import math

import pytest

from repro.analysis.profiling import _bucket_for
from repro.isa import assemble, kernel_profile
from repro.kernels import all_benchmarks, get


def test_reduction_profile():
    profile = kernel_profile(get("reduction").kernel)
    assert profile.barriers == 2
    assert profile.global_loads == 2
    assert profile.global_stores == 1
    assert profile.shared_ops == 5
    assert profile.loops == 1
    assert profile.predicated > 0
    assert profile.basic_blocks >= 3


def test_histogram_counts_atomics():
    profile = kernel_profile(get("histogram").kernel)
    assert profile.atomics == 2  # one shared, one global


def test_straightline_kernel():
    kernel = assemble("""
.kernel line
.regs 4
    MOV r0, #1
    FADD r1, r0, r0
    EXIT
""")
    profile = kernel_profile(kernel)
    assert profile.num_instructions == 3
    assert profile.by_class == {"alu": 1, "fpu": 1, "ctrl": 1}
    assert profile.conditional_branches == 0
    assert profile.loops == 0
    assert math.isinf(profile.arithmetic_intensity)
    assert profile.max_register == 1


def test_loop_vs_forward_branch():
    kernel = assemble("""
.kernel both
.regs 4
top:
    IADD r0, r0, #1
    SETP.LT r1, r0, #4
@r1 BRA top
    SETP.GE r2, r0, #8
@r2 BRA done
    MOV r3, #0
done:
    EXIT
""")
    profile = kernel_profile(kernel)
    assert profile.conditional_branches == 2
    assert profile.loops == 1  # only the backward branch


def test_arithmetic_intensity_orders_kernels():
    mm = kernel_profile(get("mm_tiled").kernel).arithmetic_intensity
    vec = kernel_profile(get("vecadd").kernel).arithmetic_intensity
    assert mm > vec  # GEMM is far denser than streaming add


def test_rows_render_for_all_benchmarks():
    for bench in all_benchmarks():
        rows = kernel_profile(bench.kernel).rows()
        assert any("instructions" in label for label, _v in rows)
        assert all(isinstance(value, str) for _l, value in rows)


def test_total_mix_matches_instruction_count():
    for bench in all_benchmarks():
        profile = kernel_profile(bench.kernel)
        assert sum(profile.by_class.values()) == profile.num_instructions


@pytest.mark.parametrize("filename, bucket", [
    ("/x/src/repro/core/vt.py", "vt"),
    ("/x/src/repro/core/policies.py", "vt"),
    ("/x/src/repro/core/occupancy.py", "other"),
    ("/x/src/repro/sim/smcore.py", "scheduler_scan"),
    ("/x/src/repro/sim/memsys.py", "memsys"),
    ("/x/src/repro/sim/gpu.py", "gpu_loop"),
    ("C:\\x\\repro\\core\\vt.py", "vt"),
    ("/usr/lib/python3/json/encoder.py", "other"),
])
def test_run_profile_buckets(filename, bucket):
    """``repro run --profile`` buckets by module path; the VT manager
    (core/vt.py) must land in "vt", not "other"."""
    assert _bucket_for(filename) == bucket
