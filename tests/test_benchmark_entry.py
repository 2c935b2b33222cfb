"""The benchmark in ``perfbench/`` drives the library through its public entry
points and, when traced, patches named functions in the library's modules.
One tiny ``mesh``, ``picard`` and ``dn-rel`` pass, each untraced and traced,
fail here as soon as a name the benchmark uses leaves the library or
a traced call no longer reaches the function patched under that name."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def traced_span_names(workload, monkeypatch, tmp_path):
    """Run the tiny seed-0 pass untraced, then traced; both must pass their
    checks and count the same work. Returns the names of the traced spans."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    inputs = workloads.make_inputs(workload, 0, size="tiny")
    untraced = workloads.run_pass(inputs, str(tmp_path))
    assert all(case.ok for case in workloads.check_pass(inputs, untraced))
    with spans.Tracer() as tracer:
        traced = workloads.run_pass(inputs, str(tmp_path))
    assert all(case.ok for case in workloads.check_pass(inputs, traced))
    assert traced.counts() == untraced.counts()
    assert tracer.spans
    return {s.name for s in tracer.spans}


def test_mesh_pass_checks_untraced_and_traced(monkeypatch, tmp_path):
    traced_span_names("mesh", monkeypatch, tmp_path)


def test_picard_pass_checks_untraced_and_traced(monkeypatch, tmp_path):
    names = traced_span_names("picard", monkeypatch, tmp_path)
    assert {"problems.picard_iterate", "problems.picard_assemble", "krylov.gmres"} <= names


def test_dn_rel_pass_checks_untraced_and_traced(monkeypatch, tmp_path):
    names = traced_span_names("dn-rel", monkeypatch, tmp_path)
    assert {
        "problems.dn_iterate",
        "problems.dn_step",
        "krylov.cg",
        "problems.transmission_assemble",
    } <= names
