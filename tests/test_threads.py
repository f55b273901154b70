"""Training and whole-dataset embeddings take their BLAS products on the calling thread.

``numerics.one_blas_thread`` sets OpenBLAS's thread count to 1 and restores it after.
The counts are read with the build's own getter, which reports the count the calling
thread's products use.  Every test skips where the setter or the getter is absent.
"""

import ctypes
import threading

import numpy as np
import pytest

from margindistill import mlp, numerics, training
from margindistill.data import HierarchySpec, generate_hierarchical
from margindistill.errors import DivergenceError
from margindistill.evaluation import build_pairs, centroid_distance_matrix, verify
from margindistill.loss import MarginConfig
from margindistill.mlp import embed, init_mlp
from margindistill.numerics import Rng, one_blas_thread
from margindistill.training import DistillConfig, TeacherTrainConfig, distill, train_teacher


def _getter():
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:                                 # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    lib = ctypes.CDLL(umath.__file__)
    for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads"):
        getter = getattr(lib, name, None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            return getter
    return None


SET, GET = numerics._blas_thread_setter(), _getter()
pytestmark = [
    pytest.mark.skipif(SET is None, reason="numpy's BLAS has no openblas_set_num_threads_local"),
    pytest.mark.skipif(GET is None, reason="numpy's BLAS has no OpenBLAS thread-count getter"),
]


@pytest.fixture(autouse=True)
def two_threads():
    """Each test starts at a count of 2, so that a limit of 1 shows; the old count after."""
    old = SET(2)
    yield
    SET(old)


def _dataset():
    return generate_hierarchical(HierarchySpec(
        n_superclusters=2, identities_per_supercluster=4, samples_per_identity=8,
        input_dim=32, supercluster_spread=1.2, identity_spread=0.3,
        sample_noise=0.05, seed=4))


def _counting(monkeypatch, module, name, seen):
    """Record the count each call of ``module.name`` runs at."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        seen.append(GET())
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)


def test_the_count_is_one_inside_the_loop_and_embed(monkeypatch):
    ds = _dataset()
    loop, products = [], []
    _counting(monkeypatch, training, "backward_batch", loop)
    _counting(monkeypatch, mlp, "_affine", products)    # forward_batch's and embed's products
    teacher, _ = train_teacher(ds, TeacherTrainConfig(iterations=5))
    assert GET() == 2
    student = init_mlp((ds.input_dim, 64, 16), True, Rng(1))
    distill(ds, teacher, student, DistillConfig(MarginConfig.dynamic(0.2, 0.5), iterations=5))
    assert GET() == 2
    pairs = build_pairs(ds, 20, 20, Rng(2))
    verify(student, ds, pairs)
    centroid_distance_matrix(student, ds)
    assert GET() == 2
    # 5 teacher and 5 student iterations; each forward, the tabulate and both embeds
    assert loop == [1] * 10 and len(products) > 10 and set(products) == {1}


def test_the_old_count_returns_after_a_divergence():
    ds = _dataset()
    cfg = TeacherTrainConfig(hidden_dims=(16,), embed_dim=4, iterations=20, learning_rate=1e300)
    with pytest.raises(DivergenceError):
        train_teacher(ds, cfg)
    assert GET() == 2
    with pytest.raises(ZeroDivisionError), one_blas_thread():
        assert GET() == 1
        1 / 0
    assert GET() == 2


def _setter_is_thread_local() -> bool:
    """Whether another thread's call leaves this thread's count alone.  OpenBLAS's
    pthreads build, numpy's wheels among them, applies the setter to the whole process."""
    ready, done, seen = threading.Event(), threading.Event(), []

    def other():
        old = SET(1)
        ready.set()
        done.wait()
        SET(old)
    thread = threading.Thread(target=other)
    thread.start()
    ready.wait()
    seen.append(GET())
    done.set()
    thread.join()
    return seen == [2]


def test_another_thread_while_one_trains(monkeypatch):
    """The other thread's count is untouched where the setter is thread-local, and 1
    until training ends where it is process-wide; its old count after, in both."""
    ds = _dataset()
    local = _setter_is_thread_local()
    inside, go, seen = threading.Event(), threading.Event(), []
    original = training.backward_batch

    def held(*args):
        if not inside.is_set():
            seen.append(GET())
            inside.set()
            go.wait()
        return original(*args)
    monkeypatch.setattr(training, "backward_batch", held)
    trainer = threading.Thread(target=train_teacher, args=(ds, TeacherTrainConfig(iterations=3)))
    trainer.start()
    try:
        assert inside.wait(60)
        assert GET() == (2 if local else 1)
    finally:
        go.set()
        trainer.join()
    assert seen == [1] and GET() == 2


@pytest.mark.parametrize("first_out", ["first_in", "second_in"])
def test_overlapping_limits_restore_the_count(first_out):
    """Two threads inside at once, leaving in either order, and a nested limit."""
    events = {name: threading.Event() for name in ("a_in", "b_in", "a_out", "b_out")}
    seen = {}

    def hold(name, entered, leave):
        with one_blas_thread():
            seen[name] = GET()
            events[entered].set()
            events[leave].wait()
    a = threading.Thread(target=hold, args=("a", "a_in", "a_out"))
    b = threading.Thread(target=hold, args=("b", "b_in", "b_out"))
    a.start()
    events["a_in"].wait()
    b.start()
    events["b_in"].wait()
    order = [(events["a_out"], a), (events["b_out"], b)]
    for leave, thread in order if first_out == "first_in" else order[::-1]:
        leave.set()
        thread.join()
    assert seen == {"a": 1, "b": 1} and GET() == 2
    with one_blas_thread():
        with one_blas_thread():
            assert GET() == 1
        assert GET() == 1
    assert GET() == 2


def _run_everything():
    """Bytes of a 128-wide teacher's weights, table and loss log, a student distilled
    from it, and a 2,049-row embed, whose last block is one row."""
    ds = _dataset()
    teacher, teacher_log = train_teacher(ds, TeacherTrainConfig(iterations=60))
    student = init_mlp((ds.input_dim, 64, 16), True, Rng(1))
    cfg = DistillConfig(MarginConfig.dynamic(0.2, 0.5), iterations=60)
    trained, log = distill(ds, teacher, student, cfg)
    x = Rng(3).normals(2049 * ds.input_dim).reshape(2049, ds.input_dim)
    blob = [w.tobytes() for w in teacher.model.weights + trained.weights]
    blob += [teacher.vectors.tobytes(), np.array(teacher_log.loss + log.loss).tobytes(),
             embed(teacher.model, x).tobytes(), embed(trained, x).tobytes()]
    return blob


def test_the_bits_do_not_depend_on_the_limit(monkeypatch):
    limited = _run_everything()
    monkeypatch.setattr(numerics, "_blas_thread_setter", lambda: None)
    seen = []
    _counting(monkeypatch, training, "backward_batch", seen)
    unlimited = _run_everything()
    assert set(seen) == {2}          # without the setter the products ran at the old count
    assert unlimited == limited
