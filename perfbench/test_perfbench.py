"""Tests of the benchmark's own logic: span self times, the median rule,
seeded inputs and the report checks.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import math

import numpy as np
import pytest

import spans
import workloads as W
from kleinlog import cli, poincare
from kleinlog.schottky import SchottkyGroup


def _span(name, parent, start, end, **counters):
    return spans.Span(name, 0, parent, start, end, counters)


def test_self_time_subtracts_nested_children():
    tree = [
        _span("cli.main", None, 0.0, 10.0),
        _span("poincare.evaluate", 0, 1.0, 4.0),
        _span("polylog.D", 1, 2.0, 3.0),
        _span("cli.emit", 0, 5.0, 9.0),
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0]
    assert sum(spans.self_times(tree)) == tree[0].duration


def test_self_time_counts_overlapping_children_once():
    tree = [
        _span("cli.main", None, 0.0, 10.0),
        _span("polylog.D", 0, 1.0, 4.0),
        _span("psmeasure.F", 0, 3.0, 6.0),
        _span("vec.sample", 0, 9.0, 12.0),   # clipped to the parent
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_links_spans_to_the_enclosing_one():
    t = spans.Tracer(command=3)
    with t.span("cli.main"):
        with t.span("poincare.evaluate"):
            with t.span("polylog.D"):
                pass
        with t.span("cli.emit"):
            pass
    assert [(s.name, s.parent, s.command) for s in t.spans] == [
        ("cli.main", None, 3), ("poincare.evaluate", 0, 3),
        ("polylog.D", 1, 3), ("cli.emit", 0, 3)]
    assert all(s.end >= s.start for s in t.spans)


def test_command_metrics_add_up_to_the_root_span():
    tree = [
        _span("cli.main", None, 0.0, 10.0),
        _span("poincare.evaluate", 0, 1.0, 4.0),
        _span("polylog.D", 1, 2.0, 3.0, **{"polylog.D.points": 7}),
        _span("polylog.D", 1, 3.0, 3.5, **{"polylog.D.points": 5}),
    ]
    total, times, counts = spans.command_metrics(tree)
    assert total == 10.0
    assert sum(times.values()) == pytest.approx(total)
    assert times["polylog.D.s"] == 1.5
    assert times["poincare.evaluate.self_s"] == 1.5
    assert counts["polylog.D.points"] == 12
    with pytest.raises(ValueError):
        spans.command_metrics(tree[1:])


def test_median_needs_its_stated_sample_count():
    assert spans.median_of([3.0, 1.0, 2.0]) == 2.0
    assert spans.median_of([4.0, 1.0, 2.0, 3.0], min_samples=4) == 2.5
    with pytest.raises(ValueError):
        spans.median_of([1.0, 2.0], min_samples=3)
    with pytest.raises(ValueError):
        spans.median_of([])


def test_instrument_records_layers_and_restores_them(tmp_path):
    config = tmp_path / "std.json"
    config.write_text(json.dumps(W.std_spec()))
    before = (cli.evaluate, poincare.evaluate, SchottkyGroup.shell_terms,
              cli.RunConfig.build_group)
    t = spans.Tracer()
    with spans.instrument(t, shell_depth=3):
        with t.span(spans.ROOT_SPAN):
            code = cli.main(["series", "eval", "--config", str(config),
                             "--max-len", "3", "--tol", "1e-2", "--z=0.3,0.2",
                             "--out", str(tmp_path / "out.json")])
    assert code == 0
    assert (cli.evaluate, poincare.evaluate, SchottkyGroup.shell_terms,
            cli.RunConfig.build_group) == before
    names = [s.name for s in t.spans]
    assert names[:4] == ["cli.main", "cli.config", "cli.config",
                         "schottky.shells"]
    assert names.count("schottky.shell_terms") == 3
    total, times, counts = spans.command_metrics(t.spans)
    assert sum(times.values()) == pytest.approx(total, rel=1e-9)
    assert counts["schottky.shells.words"] == 1 + 4 + 12 + 36
    assert counts["polylog.D.points"] == 4 + 12 + 36


def test_inputs_repeat_per_seed_and_keep_their_margin():
    first = [j.args for _, j in zip(range(5), W._series_jobs(7))]
    again = [j.args for _, j in zip(range(5), W._series_jobs(7))]
    other = [j.args for _, j in zip(range(5), W._series_jobs(8))]
    assert first == again and first != other
    circles = W.std_circles()
    for _, job in zip(range(50), W._series_jobs(1)):
        z = job.z
        assert all(abs(z - c.center) > c.radius for c in circles)
        rim = [c.center + c.radius * np.exp(1j * a)
               for c in circles for a in np.linspace(0, 2 * np.pi, 3600)]
        assert W._chordal(z, np.array(rim)).min() >= W.POINT_MARGIN - 1e-3
        assert cli._cli_complex(job.args[-1].removeprefix("--z="), "--z") == z
    seeds = [j.args for _, j in zip(range(3), W._bers_jobs(7))]
    assert seeds == [j.args for _, j in zip(range(3), W._bers_jobs(7))]


@pytest.fixture(scope="module")
def series_report(tmp_path_factory):
    d = tmp_path_factory.mktemp("series")
    config = d / "std.json"
    config.write_text(json.dumps(W.std_spec()))
    job = next(W._series_jobs(0))
    out = d / "out.json"
    assert cli.main([*job.args, "--config", str(config), "--out", str(out)]) == 0
    return job, json.loads(out.read_text())


def _perturbed(report, path, value):
    rep = json.loads(json.dumps(report))
    node = rep["results"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value(node[path[-1]])
    return rep


def test_series_check_rejects_a_perturbed_report(series_report):
    job, report = series_report
    ref = W.WORKLOADS["series"].reference()
    assert W.check_series(job, report, ref) == []
    bumped_shell = _perturbed(report, ("shells", 3, 0), lambda v: v * (1 + 1e-9))
    assert W.check_series(job, bumped_shell, ref)
    bumped_value = _perturbed(report, ("value", 1), lambda v: v + 1e-12)
    assert W.check_series(job, bumped_value, ref)
    inconclusive = _perturbed(report, ("verdict",), lambda v: "inconclusive")
    assert W.check_series(job, inconclusive, ref)


def test_structural_checks_reject_perturbed_reports():
    delta = {"results": {"delta": 0.2984047, "bracket": [0.2984009, 0.2984085],
                         "max_depth": 12}}
    assert W.check_delta(None, delta) == []
    assert W.check_delta(None, _perturbed(delta, ("delta",), lambda v: v + 2e-3))
    assert W.check_delta(None, _perturbed(delta, ("bracket", 1), lambda v: v + 1e-4))

    auto = {"results": {"residuals": {"1": 2e-12, "2": 3e-12}, "max_len": 10,
                        "n_samples": 4}}
    assert W.check_automorphy(None, auto) == []
    assert W.check_automorphy(None, _perturbed(auto, ("residuals", "2"),
                                               lambda v: 1e-7))

    shares = [0.001, 0.003, 0.005, 0.008, 0.012, 0.018, 0.029, 0.042, 0.064]
    bers = {"results": {"estimate": W.BERS_REFERENCE, "stderr": 19.7,
                        "n_samples": W.BERS_SAMPLES, "n_singular": 0,
                        "decile_shares": shares + [1.0 - math.fsum(shares)]}}
    ref_job = W.BERS_REFERENCE_JOB
    assert W.check_bers(ref_job, bers) == []
    assert W.check_bers(ref_job, _perturbed(bers, ("estimate",),
                                            lambda v: v * (1 + 1e-8)))
    assert W.check_bers(ref_job, _perturbed(bers, ("decile_shares", 0),
                                            lambda v: v + 1e-3))
    assert W.check_bers(ref_job, _perturbed(bers, ("n_singular",),
                                            lambda v: W.BERS_RESAMPLE_LIMIT + 1))
