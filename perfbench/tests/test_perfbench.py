"""Tests of the benchmark itself: its oracles, its tracer and a tiny run of each workload.

Run from the repository root:  python -m pytest perfbench/tests -q
"""

import json

import numpy as np
import pytest

import calib_solve
import cli_files
import pose_stream
import rigid3d
import run
import tracing


@pytest.fixture(scope="module")
def calib():
    return calib_solve.CalibSolve(7, calib_solve.TINY)


@pytest.fixture()
def cli(tmp_path):
    return cli_files.CliFiles(7, tmp_path, run.child_env(), cli_files.TINY)


def _first(wl, kind_test):
    return next(k for k in range(wl.pool_len) if kind_test(k))


def test_calib_oracle_fails_a_perturbed_answer(calib):
    k = _first(calib, lambda k: calib.jobs[k].degenerate is None)
    he, pv, (x, moved) = calib.run_op(k)
    assert calib.check(k, (he, pv, (x, moved))) is None
    assert "transformed points off" in calib.check(k, (he, pv, (x, moved + 0.05)))
    shifted = rigid3d.Transform(x.rotation, x.translation + 0.05)
    assert "transform off" in calib.check(k, (he, pv, (shifted, moved)))
    tip, pivot, tips = pv
    assert "tip offset off" in calib.check(k, (he, (tip + 0.01, pivot, tips), (x, moved)))


def test_calib_degenerate_input_that_returns_counts_as_failed(calib):
    k = _first(calib, lambda k: calib.jobs[k].degenerate == "collinear_points")
    he, pv, raised = calib.run_op(k)
    assert isinstance(raised, rigid3d.DegenerateGeometry)
    assert calib.check(k, (he, pv, raised)) is None
    returned = (rigid3d.Transform.identity(), calib.jobs[k].points.p)
    assert "returned a result" in calib.check(k, (he, pv, returned))
    assert "expected DegenerateGeometry" in calib.check(k, (he, pv, rigid3d.DegenerateMotion("wrong class")))


def test_calib_known_defect_is_probed_outside_the_pool(calib):
    assert not any(job.degenerate in calib_solve.KNOWN_DEFECTS for job in calib.jobs)
    assert "returned a result" in calib.known_defects()["coincident_points"]


def test_pose_stream_oracle_fails_a_perturbed_answer():
    wl = pose_stream.PoseStream(7, pool_len=128)
    for k in range(wl.pool_len):
        out = wl.run_op(k)
        assert wl.check(k, out) is None, k
    *rest, point = out
    assert wl.check(k, (*rest, point + 1e-6)) == "point off"


def test_cli_oracles_and_exit_codes(cli):
    convert = _first(cli, lambda k: cli.cases[k].argv[0] == "convert")
    out = cli.run_op(convert)
    assert cli.check(convert, out) is None
    doc = json.loads(out[1])
    doc["result"]["matrix4"][0][3] += 1e-6
    assert cli.cases[convert].check(doc) == "matrix4 off"
    code, stdout, stderr = out
    assert "differs from the first run" in cli.check(convert, (code, stdout.replace(b"0", b"1"), stderr))

    reject = _first(cli, lambda k: cli.cases[k].exit == 3)
    assert cli.check(reject, cli.run_op(reject)) is None
    assert "expected 3" in cli.check(reject, (0, b"{}", b""))

    defects = cli.known_defects()
    assert "exit 0, expected 3" in defects["cli_coincident_points"]
    assert "exit 2, expected 0" in defects["cli_compose_4_decimals"]


def _outcomes(wl, tracer=None):
    outcomes = []
    for k in range(wl.pool_len):
        if tracer is not None:
            tracer.op = k
        outcomes.append(wl.check(k, wl.run_op(k)))
    return outcomes


def test_traced_and_untraced_runs_agree(calib):
    original = rigid3d.se3.compose
    for wl in (calib, pose_stream.PoseStream(7, pool_len=128)):
        plain = _outcomes(wl)
        tracer = tracing.Tracer()
        with tracer:
            assert rigid3d.compose is not original
            traced = _outcomes(wl, tracer)
        assert traced == plain
        assert len(tracer.spans().name) > 0
    assert rigid3d.compose is original and rigid3d.se3.compose is original


def test_traced_cli_matches_untraced(cli):
    ks = [_first(cli, lambda k, a=a: cli.cases[k].argv[0] == a) for a in ("handeye", "compose", "log")]
    plain = [cli.run_op(k)[:2] for k in ks]
    cli.tracer = tracing.Tracer()
    traced = [cli.run_op(k)[:2] for k in ks]
    assert traced == plain
    assert len(cli.child_spans) == len(ks)
    parse, solve, serialize = tracing.cli_stages(cli.child_spans[0])
    assert parse > 0 and solve > 0 and serialize > 0


def test_self_time_subtracts_direct_children():
    spans = tracing.Spans(
        ["a.x", "b.y"],
        name=np.array([0, 1, 1], dtype=np.int32),
        start=np.array([0, 10, 40], dtype=np.int64),
        end=np.array([100, 30, 50], dtype=np.int64),
        parent=np.array([-1, 0, 0], dtype=np.int32),
        op=np.zeros(3, dtype=np.int32),
    )
    assert list(tracing.self_times(spans)) == [70.0, 20.0, 10.0]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_run_at_tiny_size(name, tmp_path):
    env = run.child_env()
    if name == "calib_solve":
        wl = calib_solve.CalibSolve(3, calib_solve.TINY)
    elif name == "pose_stream":
        wl = pose_stream.PoseStream(3, pool_len=128)
    else:
        wl = cli_files.CliFiles(3, tmp_path, env, cli_files.TINY)
    phase = run.measure(wl, 0.0)
    assert phase.ops == wl.round_len
    assert not phase.failed
    metrics = run.end_to_end(wl, phase, 100.0, 1, name == "cli_files")
    assert all(value > 0 for value, _, _ in metrics.values())
    layers, phases = run.traced(wl, 0.0, env, name == "cli_files", tmp_path / "spans.npz")
    assert phases[1].ops == wl.pool_len
    assert layers["validation.check.calls"][0] > 0
    assert 0 < layers["trace.overhead_ratio"][0]
