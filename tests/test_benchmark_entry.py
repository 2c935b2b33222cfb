"""The benchmark in ``perfbench/`` drives the library through its public entry
points and, when traced, patches named functions in the library's modules.
One tiny ``mesh`` pass, untraced and traced, fails here as soon as a name
the benchmark uses leaves the library."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_mesh_pass_checks_untraced_and_traced(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    inputs = workloads.make_inputs("mesh", 0, size="tiny")
    out = workloads.run_pass(inputs, str(tmp_path))
    assert all(case.ok for case in workloads.check_pass(inputs, out))
    with spans.Tracer() as tracer:
        out = workloads.run_pass(inputs, str(tmp_path))
    assert all(case.ok for case in workloads.check_pass(inputs, out))
    assert tracer.spans
