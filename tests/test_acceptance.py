"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -s``.

The directional comparison (criterion 5) trains, per seed 0-4, one teacher
plus four students from a shared initialization — dynamic margins at the
package defaults against the fixed-margin grid {0.3, 0.4, 0.5} — and
compares mean verification accuracy and mean teacher-structure rank
correlation.  Budget: under 10 minutes on one CPU core.
"""

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import spearmanr

import margindistill as md
from margindistill.cli import main
from margindistill.loss import MarginConfig, batch_loss
from margindistill.mlp import backward_batch, forward_batch, init_mlp
from margindistill.numerics import Rng, derive_subseed
from margindistill.teacher import TeacherOracle, tabulate
from margindistill.training import DistillConfig, TeacherTrainConfig, distill, train_teacher

from oracles import (
    brute_force_all_triplets,
    central_diff_grad,
    exhaustive_sweep_best_accuracy,
    randint,
    sq_euclidean,
    uniform,
    unit_vector,
)


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


# ---------------------------------------------------------------------------
# 1. gradient suite
# ---------------------------------------------------------------------------

def _rel_err(got, want, floor=1e-8):
    denom = np.maximum(np.abs(want), floor)
    return (np.abs(got - want) / denom).max()


def _stacked_losses(model, layer, z, triplets, margins):
    """batch_loss's loss for each of a stack (m, B, fan_out) of one layer's
    pre-activations, carried through the later layers and the normalization."""
    m, rows, _ = z.shape
    for w, b in zip(model.weights[layer + 1:], model.biases[layer + 1:]):
        z = (np.maximum(z, 0.0).reshape(m * rows, -1) @ w + b).reshape(m, rows, -1)
    emb = z / np.sqrt(np.einsum("mbi,mbi->mb", z, z))[..., None]
    anchors, positives, negatives = (emb[:, triplets[:, c]] for c in range(3))
    dp, dn = anchors - positives, anchors - negatives
    hinge = np.einsum("mti,mti->mt", dp, dp) - np.einsum("mti,mti->mt", dn, dn) + margins
    return np.maximum(hinge, 0.0).sum(axis=1) / len(triplets)


def _stacked_central_diffs(model, layer, a, triplets, margins, h, chunk=1024):
    """Central differences of the loss in every weight of one layer and then
    in its biases, as a (fan_in + 1, fan_out) array.

    Moving W[i, j] by h moves column j of the layer's pre-activation by
    h * a[:, i] (a bias, by h), so the layers before it run once and a chunk
    of perturbations runs as one stacked pass through the rest."""
    z = a @ model.weights[layer] + model.biases[layer]
    inputs = np.hstack([a, np.ones((a.shape[0], 1))]).T     # a bias sees an input of 1
    fd = np.empty(inputs.shape[0] * z.shape[1])
    for start in range(0, fd.size, chunk):
        i, j = np.divmod(np.arange(start, min(start + chunk, fd.size)), z.shape[1])
        losses = []
        for step in (h, -h):
            moved = np.repeat(z[None], i.size, axis=0)
            moved[np.arange(i.size), :, j] += step * inputs[i]
            losses.append(_stacked_losses(model, layer, moved, triplets, margins))
        fd[start:start + i.size] = (losses[0] - losses[1]) / (2.0 * h)
    return fd.reshape(inputs.shape[0], z.shape[1])


def test_criterion_1_gradient_suite():
    with criterion("gradient suite (100 triplets + full models, rel err <= 1e-4, < 30 s)"):
        start = time.time()
        h = 1e-5

        # 100 seeded random triplets, hinge-active or inactive and away from the
        # kink, through batch_loss.  Rows 3 and 4 hold a second triplet that pins
        # d_max to 1.0; its negative is too far for it to touch loss or gradient.
        checked = 0
        seed = 0
        cfg = MarginConfig.dynamic(0.2, 0.5)
        triplets = np.array([[0, 1, 2], [3, 3, 4]])
        far = np.zeros((2, 8))
        far[1, 0] = 10.0
        while checked < 100:
            rng = Rng(seed)
            seed += 1
            points = np.stack([unit_vector(rng, 8) for _ in range(3)])
            gaps = np.array([uniform(rng), 1.0])
            res = batch_loss(np.vstack([points, far]), triplets, gaps, cfg)
            assert res.d_max == 1.0 and not res.active[1]
            a, p, n = points
            if abs(sq_euclidean(a, p) - sq_euclidean(a, n) + res.margins[0]) <= 1e-3:
                continue
            for row in range(3):
                def loss_at(v, row=row):
                    moved = np.vstack([points, far])
                    moved[row] = v
                    return batch_loss(moved, triplets, gaps, cfg).loss

                fd = central_diff_grad(loss_at, points[row], h=h)
                if res.active[0]:
                    assert _rel_err(res.grad[row], fd) <= 1e-4
                else:
                    assert not res.grad[row].any()
                    assert np.abs(fd).max() <= 1e-10
            checked += 1

        # full default-architecture student and teacher models, gradients of
        # the true batch objective versus finite differences over every weight
        # and bias.  The stacked differences are tied to the shipped code: each
        # layer's unperturbed stacked loss is batch_loss(forward_batch(...)).loss,
        # and a seeded sample of its entries goes through central_diff_grad.
        ds = md.generate_hierarchical(md.HierarchySpec(seed=derive_subseed(0, "data")))
        batch = md.sample_pk_batch(ds, 3, 3, Rng(1))
        x = ds.X[batch.entries]
        frozen = tabulate(
            TeacherOracle.from_model(init_mlp((ds.input_dim, 16, 8), True, Rng(2))), ds
        )
        picker = np.random.default_rng(4)
        for dims in [(16, 32, 32, 16), (16, 128, 128, 128, 32)]:
            model = init_mlp(dims, True, Rng(3))
            emb, cache = forward_batch(model, x)
            triplets = md.mine_triplets(batch, emb, "semi_hard")
            gaps = md.triplet_gaps(frozen.embed_rows(ds, batch.entries), triplets)
            result = batch_loss(emb, triplets, gaps, cfg)
            grads = backward_batch(model, cache, result.grad)
            for layer in range(model.n_layers):
                a = cache.acts[layer]
                z = a @ model.weights[layer] + model.biases[layer]
                unperturbed = _stacked_losses(model, layer, z[None], triplets, result.margins)
                assert abs(unperturbed[0] - result.loss) <= 1e-12
                fd = _stacked_central_diffs(model, layer, a, triplets, result.margins, h)
                params = np.vstack([model.weights[layer], model.biases[layer]])
                picks = picker.choice(params.size, 24, replace=False)

                def objective(values):
                    probe = model.copy()
                    moved = params.copy()
                    moved.flat[picks] = values
                    probe.weights[layer], probe.biases[layer] = moved[:-1], moved[-1]
                    e, _ = forward_batch(probe, x)
                    return batch_loss(e, triplets, gaps, cfg).loss

                one_by_one = central_diff_grad(objective, params.flat[picks], h=h)
                assert np.abs(fd.flat[picks] - one_by_one).max() <= 1e-10
                backward = np.vstack([grads.weights[layer], grads.biases[layer]])
                assert _rel_err(backward, fd, floor=1e-6) <= 1e-4

        elapsed = time.time() - start
        assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. hinge / margin / gap unit properties
# ---------------------------------------------------------------------------

def _hinge_cases(d_ap, d_an, d, d_max, cfg):
    """batch_loss and triplet_gaps on 1-d triplets (0, s, -t) with s^2 ~ d_ap and
    t^2 ~ d_an, one triplet per case plus one whose gap d_max pins the batch
    maximum.  Each distance is a single square, so the per-case references below
    hold exactly: margins, active flags and gaps are compared with ==."""
    n = d_ap.size
    emb = np.zeros((3 * n + 3, 1))
    emb[1::3, 0] = np.append(np.sqrt(d_ap), 0.0)
    emb[2::3, 0] = -np.append(np.sqrt(d_an), 10.0)
    triplets = np.arange(3 * n + 3).reshape(-1, 3)
    res = batch_loss(emb, triplets, np.append(d, d_max), cfg)
    assert res.d_max == d_max and not res.active[-1]
    margins, active = res.margins[:n], res.active[:n]
    ref_ap = [float(s * s) for s in emb[1::3, 0][:n]]
    ref_an = [float(t * t) for t in emb[2::3, 0][:n]]
    span = (cfg.m_max - cfg.m_min) / d_max
    for i in range(n):
        want = min(max(span * float(d[i]) + cfg.m_min, cfg.m_min), cfg.m_max)
        assert margins[i] == want
        assert cfg.m_min <= margins[i] <= cfg.m_max
        assert active[i] == (ref_an[i] - ref_ap[i] < margins[i])    # hinge > 0 exactly
    gaps = md.triplet_gaps(emb, triplets[:n])
    assert gaps.tolist() == [max(an - ap, 0.0) for ap, an in zip(ref_ap, ref_an)]
    assert np.all(gaps >= 0.0)
    assert res.loss >= 0.0
    return margins, active


def test_criterion_2_unit_properties_grid():
    with criterion("hinge/margin/gap properties (20^3 grid + 1e4 random, exact)"):
        cfg = MarginConfig.dynamic(0.2, 0.5)
        d_cap = 1.5
        d_ap, d_an, d = np.meshgrid(np.linspace(0.0, 2.0, 20), np.linspace(0.0, 2.0, 20),
                                    np.linspace(0.0, d_cap, 20), indexing="ij")
        margins, active = _hinge_cases(d_ap.ravel(), d_an.ravel(), d.ravel(), d_cap, cfg)
        by_d = margins.reshape(20, 20, 20)
        assert np.all(by_d == by_d[:1, :1, :])                # the margin depends on d alone
        assert np.all(np.diff(by_d[0, 0]) >= 0.0)             # and grows with it
        assert by_d[0, 0, 0] == 0.2 and by_d[0, 0, -1] == 0.5
        assert active.any() and not active.all()

        rng = Rng(99)
        cases = np.array([(uniform(rng) * 4.0, uniform(rng) * 4.0, uniform(rng) * d_cap)
                          for _ in range(10_000)])
        _, active = _hinge_cases(cases[:, 0], cases[:, 1], cases[:, 2], d_cap, cfg)
        assert active.any() and not active.all()


# ---------------------------------------------------------------------------
# 3. fixed-margin reduction, bitwise, 500 iterations
# ---------------------------------------------------------------------------

def test_criterion_3_fixed_margin_reduction_bitwise():
    with criterion("fixed-margin reduction bitwise over 500 iterations (seed 0)"):
        ds = md.generate_hierarchical(md.HierarchySpec(seed=derive_subseed(0, "data")))
        teacher, _ = train_teacher(
            ds,
            TeacherTrainConfig(hidden_dims=(32, 32), embed_dim=16, iterations=150),
            seed=derive_subseed(0, "teacher"),
        )
        student = init_mlp((ds.input_dim, 32, 32, 16), True,
                           Rng(derive_subseed(0, "student-init")))
        m = 0.4
        runs = {}
        for label, margin in [("dynamic", MarginConfig.dynamic(m, m)),
                              ("fixed", MarginConfig.fixed(m))]:
            runs[label] = distill(
                ds, teacher, student,
                DistillConfig(margin=margin, iterations=500, seed=0),
            )
        t_dyn, log_dyn = runs["dynamic"]
        t_fix, log_fix = runs["fixed"]
        assert log_dyn.loss == log_fix.loss
        assert log_dyn.mean_margin == log_fix.mean_margin
        assert log_dyn.active_frac == log_fix.active_frac
        for wd, wf in zip(t_dyn.weights, t_fix.weights):
            assert wd.tobytes() == wf.tobytes()
        for bd, bf in zip(t_dyn.biases, t_fix.biases):
            assert bd.tobytes() == bf.tobytes()


# ---------------------------------------------------------------------------
# 4. pipeline determinism via the CLI
# ---------------------------------------------------------------------------

ACCEPTANCE_CLI_CONFIG = """
run.label = acceptance
run.seed = 0
teacher.iterations = 200
teacher.hidden_dims = 32,32
teacher.embed_dim = 16
distill.iterations = 150
calibrate.n_triplets = 200
eval.n_pos = 150
eval.n_neg = 150
"""


def test_criterion_4_pipeline_determinism(tmp_path):
    with criterion("pipeline stages byte-identical on rerun (excluding meta.json)"):
        out = str(tmp_path / "runs")
        base = tmp_path / "base.cfg"
        base.write_text(ACCEPTANCE_CLI_CONFIG)

        def rerun_and_compare(command, config):
            assert main([command, "--config", str(config), "--out", out, "--quiet"]) == 0
            d = next(p for p in Path(out).iterdir() if p.name.startswith(command + "-"))
            before = {p.name: p.read_bytes() for p in d.iterdir() if p.name != "meta.json"}
            assert main([command, "--config", str(config), "--out", out, "--quiet"]) == 0
            after = {p.name: p.read_bytes() for p in d.iterdir() if p.name != "meta.json"}
            assert before == after, f"{command} artifacts changed on rerun"
            return d

        gen_dir = rerun_and_compare("gen-data", base)
        dataset = gen_dir / "dataset.jsonl"

        cfg_t = tmp_path / "teacher.cfg"
        cfg_t.write_text(ACCEPTANCE_CLI_CONFIG + f"io.dataset = {dataset}\n")
        teacher_dir = rerun_and_compare("train-teacher", cfg_t)
        table = teacher_dir / "teacher_table.emb"

        cfg_c = tmp_path / "cal.cfg"
        cfg_c.write_text(
            ACCEPTANCE_CLI_CONFIG + f"io.dataset = {dataset}\nio.teacher = {table}\n"
        )
        rerun_and_compare("calibrate", cfg_c)
        distill_dir = rerun_and_compare("distill", cfg_c)
        student = distill_dir / "student.ckpt"

        cfg_e = tmp_path / "eval.cfg"
        cfg_e.write_text(
            ACCEPTANCE_CLI_CONFIG
            + f"io.dataset = {dataset}\nio.teacher = {table}\nio.model = {student}\n"
        )
        rerun_and_compare("evaluate", cfg_e)


# ---------------------------------------------------------------------------
# 5. directional margin comparison (the desk-scale analogue)
# ---------------------------------------------------------------------------

def _margin_comparison(seeds):
    """Per seed: shared teacher + shared student init, four margin variants."""
    results = {}
    for seed in seeds:
        spec = md.HierarchySpec(seed=derive_subseed(seed, "data"))
        ds = md.generate_hierarchical(spec)
        teacher, _ = train_teacher(ds, TeacherTrainConfig(),
                                   seed=derive_subseed(seed, "teacher"))
        _, teacher_matrix = md.centroid_distance_matrix(teacher, ds)
        pairs = md.build_pairs(ds, 300, 300, Rng(derive_subseed(seed, "eval")))
        student0 = init_mlp((ds.input_dim, 32, 32, 16), True,
                            Rng(derive_subseed(seed, "student-init")))
        variants = [
            ("dynamic", MarginConfig.dynamic(0.6, 1.8)),  # package defaults
            ("fixed-0.3", MarginConfig.fixed(0.3)),
            ("fixed-0.4", MarginConfig.fixed(0.4)),
            ("fixed-0.5", MarginConfig.fixed(0.5)),
        ]
        for label, margin in variants:
            cfg = DistillConfig(margin=margin, seed=derive_subseed(seed, "distill"))
            trained, _ = distill(ds, teacher, student0, cfg)
            accuracy = md.verify(trained, ds, pairs).best_accuracy
            _, student_matrix = md.centroid_distance_matrix(trained, ds)
            structure = md.structure_correlation(teacher_matrix, student_matrix)
            results.setdefault(label, []).append((accuracy, structure))
    return results


def test_criterion_5_directional_margin_comparison():
    with criterion("directional comparison: dynamic vs fixed grid, seeds 0-4 (< 10 min)"):
        start = time.time()
        results = _margin_comparison(seeds=range(5))
        elapsed = time.time() - start

        mean_acc = {k: float(np.mean([a for a, _ in v])) for k, v in results.items()}
        mean_struct = {k: float(np.mean([s for _, s in v])) for k, v in results.items()}
        for label in sorted(results):
            print(f"    {label}: accuracy {mean_acc[label]:.4f}, "
                  f"structure {mean_struct[label]:.4f}")

        fixed_labels = [k for k in results if k != "dynamic"]
        best_fixed_acc = max(mean_acc[k] for k in fixed_labels)
        assert mean_acc["dynamic"] >= best_fixed_acc - 0.01, (
            f"accuracy: dynamic {mean_acc['dynamic']:.4f} vs best fixed "
            f"{best_fixed_acc:.4f}"
        )
        for k in fixed_labels:
            assert mean_struct["dynamic"] >= mean_struct[k] + 0.05, (
                "structure-preservation advantage below 0.05 against "
                f"{k}: {mean_struct['dynamic']:.4f} vs {mean_struct[k]:.4f}"
            )
        assert elapsed < 600.0, f"comparison took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# 6. calibration reproduction
# ---------------------------------------------------------------------------

def test_criterion_6_calibration_recomputation_exact():
    with criterion("calibration: 1000 triplets, extremes match recomputation exactly"):
        ds = md.generate_hierarchical(md.HierarchySpec(seed=derive_subseed(0, "data")))
        oracle = tabulate(
            TeacherOracle.from_model(init_mlp((ds.input_dim, 24, 12), True, Rng(4))), ds
        )
        report = md.calibrate_margins(oracle, ds, 1000, Rng(derive_subseed(0, "calibrate")))
        assert report.sample_count == 1000
        assert len(report.triplets) == 1000
        recomputed = []
        for a, p, n in report.triplets:
            ea, ep, en = oracle.embed(a), oracle.embed(p), oracle.embed(n)
            recomputed.append(max(sq_euclidean(ea, en) - sq_euclidean(ea, ep), 0.0))
        assert min(recomputed) == report.d_min_observed
        assert max(recomputed) == report.d_max_observed
        assert recomputed == report.d_values
        assert report.suggested_m_min == report.d_min_observed
        assert report.suggested_m_max == report.d_max_observed


# ---------------------------------------------------------------------------
# 7. oracle equivalences
# ---------------------------------------------------------------------------

def test_criterion_7_oracle_equivalence():
    with criterion("oracle equivalence: mining, threshold sweep, rank correlation"):
        # mine_triplets("all") vs brute-force enumeration
        ds = md.generate_hierarchical(md.HierarchySpec(
            n_superclusters=2, identities_per_supercluster=2, samples_per_identity=3,
            input_dim=4, supercluster_spread=1.0, identity_spread=0.3,
            sample_noise=0.05, seed=6,
        ))
        batch = md.sample_pk_batch(ds, 4, 3, Rng(7))
        emb, _ = forward_batch(init_mlp((4, 8, 4), True, Rng(8)), ds.X[batch.entries])
        mined = md.mine_triplets(batch, emb, "all")
        np.testing.assert_array_equal(mined, brute_force_all_triplets(batch.labels.tolist()))

        # verify's threshold sweep vs the exhaustive split oracle, 200 pairs
        rng = Rng(9)
        distances = np.concatenate([rng.uniforms(150) * 2.0, np.round(rng.uniforms(50), 1)])
        same = np.array([randint(rng, 2) == 1 for _ in range(200)])
        report = md.threshold_sweep(distances, same)
        best, _ = exhaustive_sweep_best_accuracy(distances.tolist(), same.tolist())
        assert report.best_accuracy == best

        # structure_correlation vs an independent implementation, 1e-12
        rng = Rng(10)
        n = 20  # 190 upper-triangle entries
        iu = np.triu_indices(n, 1)
        a = np.zeros((n, n))
        b = np.zeros((n, n))
        a[iu] = rng.uniforms(iu[0].size)
        b[iu] = np.round(rng.uniforms(iu[0].size), 1)  # ties exercise average ranks
        a += a.T
        b += b.T
        ours = md.structure_correlation(a, b)
        ref = spearmanr(a[iu], b[iu]).statistic
        assert ours == pytest.approx(ref, abs=1e-12)
