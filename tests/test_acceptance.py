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
from margindistill.loss import MarginConfig, batch_loss, margin_fn, triplet_loss
from margindistill.mlp import backward_batch, forward_batch, init_mlp
from margindistill.numerics import Rng, derive_subseed
from margindistill.teacher import TeacherOracle, tabulate
from margindistill.training import DistillConfig, TeacherTrainConfig, distill, train_teacher

from oracles import (
    brute_force_all_triplets,
    central_diff_grad,
    exhaustive_sweep_best_accuracy,
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


def test_criterion_1_gradient_suite():
    with criterion("gradient suite (100 triplets + full models, rel err <= 1e-4, < 30 s)"):
        start = time.time()
        h = 1e-5

        # 100 seeded random triplets, hinge-active and away from the kink
        checked = 0
        seed = 0
        cfg = MarginConfig.dynamic(0.2, 0.5)
        while checked < 100:
            rng = Rng(seed)
            seed += 1
            a = unit_vector(rng, 8)
            p = unit_vector(rng, 8)
            n = unit_vector(rng, 8)
            d_teacher = rng.random()
            margin = margin_fn(d_teacher, 0.2, 0.5, 1.0)
            if abs(md.sq_euclidean(a, p) - md.sq_euclidean(a, n) + margin) <= 1e-3:
                continue
            res = md.triplet_loss_dynamic(a, p, n, d_teacher, 1.0, cfg)
            for point, grad, rebuild in [
                (a, res.grad_a, lambda v: (v, p, n)),
                (p, res.grad_p, lambda v: (a, v, n)),
                (n, res.grad_n, lambda v: (a, p, v)),
            ]:
                fd = central_diff_grad(
                    lambda v: md.triplet_loss_dynamic(
                        *rebuild(v), d_teacher, 1.0, cfg
                    ).loss,
                    point,
                    h=h,
                )
                if res.active:
                    assert _rel_err(grad, fd) <= 1e-4
                else:
                    assert np.abs(grad - fd).max() <= 1e-10
            checked += 1

        # full default-architecture student and teacher models, gradients of
        # the true batch objective versus finite differences over every weight
        ds = md.generate_hierarchical(md.HierarchySpec(seed=derive_subseed(0, "data")))
        batch = md.sample_pk_batch(ds, 3, 3, Rng(1))
        x = ds.X[batch.entries]
        frozen = tabulate(
            TeacherOracle.from_model(init_mlp((ds.input_dim, 16, 8), True, Rng(2))), ds
        )
        for dims in [(16, 32, 32, 16), (16, 128, 128, 128, 32)]:
            model = init_mlp(dims, True, Rng(3))
            emb, cache = forward_batch(model, x)
            triplets = md.mine_triplets(batch, emb, "semi_hard")
            gaps = md.triplet_gaps(frozen.embed_rows(ds, batch.entries), triplets)
            result = batch_loss(emb, triplets, gaps, cfg)
            grads = backward_batch(model, cache, result.grad)
            for layer in range(model.n_layers):
                shape = model.weights[layer].shape

                def objective(flat):
                    probe = model.copy()
                    probe.weights[layer] = flat.reshape(shape)
                    e, _ = forward_batch(probe, x)
                    return batch_loss(e, triplets, gaps, cfg).loss

                fd = central_diff_grad(
                    objective, model.weights[layer].ravel(), h=h
                ).reshape(shape)
                assert _rel_err(grads.weights[layer], fd, floor=1e-6) <= 1e-4

        elapsed = time.time() - start
        assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. hinge / margin / gap unit properties
# ---------------------------------------------------------------------------

def test_criterion_2_unit_properties_grid():
    with criterion("hinge/margin/gap properties (20^3 grid + 1e4 random, exact)"):
        m_min, m_max, d_cap = 0.2, 0.5, 1.5
        d_ap_grid = np.linspace(0.0, 2.0, 20)
        d_an_grid = np.linspace(0.0, 2.0, 20)
        d_grid = np.linspace(0.0, d_cap, 20)
        prev_margin = None
        for d in d_grid:
            margin = margin_fn(d, m_min, m_max, d_cap)
            assert m_min <= margin <= m_max
            if prev_margin is not None:
                assert margin >= prev_margin
            prev_margin = margin
            for d_ap in d_ap_grid:
                for d_an in d_an_grid:
                    loss = triplet_loss(d_ap, d_an, margin)
                    assert loss >= 0.0
                    assert (loss == 0.0) == (d_an - d_ap >= margin)
                    assert max(d_an - d_ap, 0.0) >= 0.0  # clamped gap

        rng = Rng(99)
        for _ in range(10_000):
            d_ap = rng.random() * 4.0
            d_an = rng.random() * 4.0
            d = rng.random() * d_cap
            margin = margin_fn(d, m_min, m_max, d_cap)
            loss = triplet_loss(d_ap, d_an, margin)
            assert loss >= 0.0
            assert (loss == 0.0) == (d_an - d_ap >= margin)
            assert m_min <= margin <= m_max
            assert max(d_an - d_ap, 0.0) >= 0.0


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
            recomputed.append(
                max(md.sq_euclidean(ea, en) - md.sq_euclidean(ea, ep), 0.0)
            )
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
        same = np.array([rng.randint(2) == 1 for _ in range(200)])
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
