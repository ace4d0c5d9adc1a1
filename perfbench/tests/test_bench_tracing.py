from decnum import perverse, rootsys

import tracing
from tracing import END, START


def span(name, start, end, parent, error=None):
    return [name, start, end, parent, error]


def test_self_time_subtracts_covered_children():
    spans = [
        span("root", 0, 100, -1),
        span("a", 10, 40, 0),
        span("a.child", 20, 30, 1),
        span("b", 50, 70, 0),
    ]
    assert tracing.self_times(spans) == [50, 20, 10, 20]


def test_self_time_counts_overlapping_children_once():
    spans = [span("root", 0, 100, -1), span("x", 10, 40, 0), span("y", 30, 60, 0),
             span("z", 90, 120, 0)]
    assert tracing.self_times(spans)[0] == 100 - 50 - 10


def test_summarize_and_escaping_errors():
    spans = [
        span("perverse.f", 0, 10, -1, "ConeError"),
        span("perverse.g", 2, 8, 0, "ConeError"),
        span("rootsys.h", 20, 30, -1, "ValueError"),
    ]
    rows = tracing.summarize(spans)
    assert rows["perverse.f"] == {"calls": 1, "self_ns": 4, "raised": 1}
    assert rows["rootsys.h"]["raised"] == 1
    assert tracing.escaping_errors(spans, "perverse", "ConeError") == 1


def test_installed_sees_name_imported_calls_and_restores():
    original = rootsys.fundamental_group
    tracer = tracing.Tracer()
    layers = ("perverse", "rootsys", "intmat", "omodule", "modrep")
    with tracing.installed(tracer, "decnum", layers) as names:
        assert perverse.fundamental_group is not original
        perverse.link_cohomology_minimal(rootsys.DynkinDiagram("B", 3))
    assert rootsys.fundamental_group is original
    assert perverse.fundamental_group is original
    assert "omodule.reduce_graded" in names and "omodule.reduce_stalk" not in names
    rows = tracing.summarize(tracer.spans)
    # perverse calls fundamental_group through its own `from .rootsys import`
    assert rows["rootsys.fundamental_group"]["calls"] == 1
    assert rows["rootsys.generate_roots"]["calls"] == 1
    assert all(s[END] >= s[START] for s in tracer.spans)


def test_digest_repeats_and_traced_run_matches_it():
    import worker
    import workloads

    def fresh():
        wl = workloads.StalkRandom(seed=11, root=".")
        return wl, wl.make_pass(0)

    first = worker.timed(*fresh(), seconds=0)
    again = worker.timed(*fresh(), seconds=0)
    traced = worker.traced(*fresh(), seconds=0)
    assert first["digest"] == again["digest"] == traced["digest"]
    assert first["failed"] == traced["failed"] == 0
    metrics = traced["metrics"]
    assert set(metrics) == set(worker.PER_LAYER)
    assert metrics["omodule.degree_window.calls"]["value"] > 0
    assert metrics["intmat.cokernel.calls"]["value"] == 0
