"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a PASS/FAIL line with its measured values so a plain
``pytest -v tests/test_acceptance.py`` run doubles as the acceptance report.
The reference scenarios are seeded and deterministic.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from conetrack.config import load_config, resolve_profile
from conetrack.core import ConeEstimate, Gaussian2, Pose2, Velocity2
from conetrack.evaluate import align_exact_correspondences, icp_align
from conetrack.global_map import (
    observation_jacobians,
    observation_residual,
    odometry_jacobians,
    odometry_residual,
    optimize,
)
from conetrack.local_map import ConeTable, LocalMapConfig, LocalMapState, ingest_frame, update_position
from conetrack.pipeline import run_pipeline
from conetrack.planner import (
    PathFeatures,
    PriorConfig,
    SearchLimits,
    log_likelihood,
    log_prior,
    plan_snapshot,
    select_path,
    triangulate,
)
from conetrack.simulate import ScenarioDriver, SimRun, generate_track, noise_free_profile, observe_cones


def announce(name: str, passed: bool, detail: str) -> None:
    print(f"\n{name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


def scale_velocity_noise(profile, vscale, wscale):
    vs = list(profile.velocity_sigma)
    vps = list(profile.velocity_sigma_per_speed)
    vs[0] *= vscale; vs[1] *= vscale; vs[2] *= wscale
    vps[0] *= vscale; vps[1] *= vscale; vps[2] *= wscale
    return dataclasses.replace(profile, velocity_sigma=tuple(vs), velocity_sigma_per_speed=tuple(vps))


class TestAC1MappingAccuracy:
    """Seeded 'fsg-like' scenarios: map RMSE bounds and runtime budget."""

    def _run(self, name, tmp_path):
        config = load_config(name)
        start = time.perf_counter()
        result = run_pipeline(config, tmp_path / name)
        elapsed = time.perf_counter() - start
        return result, elapsed

    def test_ac1_twelve_mps(self, tmp_path):
        result, elapsed = self._run("fsg-like-12ms", tmp_path)
        ok = result.completed_lap and result.rmse_m <= 0.35 and elapsed < 60.0
        announce("AC-1 (12 m/s)", ok, f"rmse {result.rmse_m:.3f} m <= 0.35, runtime {elapsed:.1f} s < 60")

    def test_ac1_five_mps(self, tmp_path):
        result, elapsed = self._run("fsg-like-5ms", tmp_path)
        ok = result.completed_lap and result.rmse_m <= 0.20 and elapsed < 60.0
        announce("AC-1 (5 m/s)", ok, f"rmse {result.rmse_m:.3f} m <= 0.20, runtime {elapsed:.1f} s < 60")


class TestAC2OptimizationImprovement:
    def test_ac2_optimized_beats_dead_reckoning(self, tmp_path):
        wins = 0
        pairs = []
        for seed in range(20):
            config = load_config("fsg-like-12ms")
            profiles = dict(config.profiles)
            profiles["fusion"] = scale_velocity_noise(profiles["fusion"], 1.2, 1.4)
            config = dataclasses.replace(
                config,
                plan_enabled=False,
                profiles=profiles,
                seed=4000 + seed,
                max_speed_mps=8.0,
                track_spec=dataclasses.replace(
                    config.track_spec, length_m=200.0, hairpin_count=0, cone_spacing_m=3.5, radial_variation=0.18
                ),
                global_map_overrides={"optimize_every": 0, "export_min_edges": 4},
            )
            result = run_pipeline(config, tmp_path / f"s{seed}")
            wins += result.rmse_m < result.rmse_dead_reckoned_m
            pairs.append((result.rmse_m, result.rmse_dead_reckoned_m))
        ok = wins >= 19
        med_opt = float(np.median([p[0] for p in pairs]))
        med_dr = float(np.median([p[1] for p in pairs]))
        announce(
            "AC-2 (optimization beats dead reckoning)",
            ok,
            f"{wins}/20 scenarios improved (median rmse {med_opt:.3f} vs {med_dr:.3f})",
        )


class TestAC3FalsePositiveRejection:
    def test_ac3_hundred_injections(self):
        frame_rate = 10.0
        config = LocalMapConfig.for_frame_rate(frame_rate)
        track = generate_track(
            dataclasses.replace(load_config("modes-5ms").track_spec, length_m=180.0), seed=3
        )
        profile = noise_free_profile()
        run = SimRun.constant_speed(track, 5.0, frame_rate)
        rng = np.random.default_rng(0)
        frames = []
        state = LocalMapState()
        states = []
        for timestamp, dt, pose, vel in ScenarioDriver(run).frames():
            obs = observe_cones(track, pose, profile, rng, timestamp)
            frames.append((timestamp, dt, obs, vel))
            states.append(state)
            state, _ = ingest_frame(state, [obs], vel, dt, config)

        inj_rng = np.random.default_rng(99)
        inject_at = sorted(inj_rng.choice(np.arange(20, len(frames) - 10), size=100, replace=False))
        rejected = 0
        for frame_idx in inject_at:
            forked = states[frame_idx]
            # certain phantom straight ahead of the ego, observed never again
            ahead = inj_rng.uniform(4.0, 9.0)
            lateral = inj_rng.uniform(-2.0, 2.0)
            from conetrack.core import transform_point

            phantom_pos = transform_point(forked.ego, np.array([ahead, lateral]))
            phantom = ConeEstimate(
                id=10_000_000,
                position=Gaussian2.isotropic(phantom_pos, 0.05),
                color_evidence=np.array([0.0, 0.0, 1.0]) + 1e-12,
                existence=1.0,
                last_seen=frames[frame_idx][0],
            )
            injected = ConeTable.from_estimates([phantom])
            columns = [f.name for f in dataclasses.fields(ConeTable)]
            cones = ConeTable(*(np.concatenate([getattr(forked.cones, c), getattr(injected, c)]) for c in columns))
            forked = dataclasses.replace(forked, cones=cones)
            gone_at = None
            t0 = frames[frame_idx][0]
            for timestamp, dt, obs, vel in frames[frame_idx + 1 :]:
                forked, snap = ingest_frame(forked, [obs], vel, dt, config)
                if 10_000_000 not in snap.cones.ids:
                    gone_at = timestamp
                    break
                if timestamp - t0 > 1.0:
                    break
            if gone_at is not None and gone_at - t0 <= 0.5:
                rejected += 1
        ok = rejected == 100
        announce("AC-3 (false positives rejected < 0.5 s)", ok, f"{rejected}/100 injections rejected in time")


class TestAC4FourModes:
    def test_ac4_all_modes(self, tmp_path):
        noise_free = {m: resolve_profile(f"noise_free:{m}") for m in ("fusion", "lidar_only", "camera_only")}
        detail = []
        all_ok = True
        for mode in ("fusion", "lidar_only", "camera_only", "degraded"):
            base = load_config("modes-5ms")
            nf_config = dataclasses.replace(
                base,
                profiles=noise_free,
                force_mode=mode,
                plan_enabled=False,
                global_map_overrides={"export_min_edges": 1, "optimize_every": 10},
            )
            nf = run_pipeline(nf_config, tmp_path / f"nf_{mode}")
            import json

            records = json.loads((tmp_path / f"nf_{mode}" / "map_estimated.json").read_text())
            pts = np.array([[r["x_m"], r["y_m"]] for r in records])
            d = np.hypot(pts[:, None, 0] - pts[None, :, 0], pts[:, None, 1] - pts[None, :, 1])
            np.fill_diagonal(d, np.inf)
            duplicates = int((d.min(axis=1) < 0.8).sum())

            noisy_config = dataclasses.replace(base, force_mode=mode, plan_enabled=False)
            noisy = run_pipeline(noisy_config, tmp_path / f"noisy_{mode}")
            mode_ok = (
                nf.completed_lap
                and noisy.completed_lap
                and duplicates == 0
                and noisy.rmse_m <= 0.5
            )
            all_ok &= mode_ok
            detail.append(f"{mode}: dups {duplicates}, noisy rmse {noisy.rmse_m:.3f}")
        announce("AC-4 (four sensor modes at 5 m/s)", all_ok, "; ".join(detail))


class TestAC5PlanningHistograms:
    def test_ac5_noisy_length_and_containment(self, tmp_path):
        lengths_top = []
        oot5 = []
        for seed_offset in (0, 1):
            config = load_config("planning-15m")
            config = dataclasses.replace(config, seed=config.seed + seed_offset)
            result = run_pipeline(config, tmp_path / f"p{seed_offset}")
            planning = result.report["planning"]
            lengths_top.append(planning["path_length_fractions"][15])
            oot5.append(planning["out_of_track_within_5m_fraction"])
        top = float(np.mean(lengths_top))
        within5 = float(np.mean(oot5))
        ok = top >= 0.60 and within5 <= 0.015
        announce(
            "AC-5 (noisy planning)",
            ok,
            f"{100 * top:.1f}% of paths in the 15 m bin (>= 60%), {100 * within5:.2f}% out-of-track within 5 m (<= 1.5%)",
        )

    def test_ac5_noise_free_containment(self, tmp_path):
        config = load_config("planning-15m")
        noise_free = {
            m: dataclasses.replace(resolve_profile(f"noise_free:{m}"), max_range_m=20.0, fov_half_angle_rad=1.6)
            for m in ("fusion", "lidar_only", "camera_only")
        }
        config = dataclasses.replace(config, profiles=noise_free)
        result = run_pipeline(config, tmp_path / "nf")
        within5 = result.report["planning"]["out_of_track_within_5m_fraction"]
        ok = within5 == 0.0
        announce("AC-5 (noise-free planning)", ok, f"{100 * within5:.2f}% out-of-track within 5 m (== 0%)")


class TestAC6PosteriorExactness:
    def test_ac6_decomposition_and_argmax_oracle(self):
        rng = np.random.default_rng(606)
        prior_config = PriorConfig.defaults()
        checked = 0
        mismatches = 0
        pool: list = []
        pools_checked = 0
        exact = True
        while checked < 100_000:
            features = PathFeatures(
                max_heading_change_rad=float(rng.uniform(0, math.pi)),
                left_spacing_std_m=float(rng.uniform(0, 2)),
                right_spacing_std_m=float(rng.uniform(0, 2)),
                width_std_m=float(rng.uniform(0, 2)),
                crossed_edges_capped=float(rng.integers(1, 16)),
                length_m=float(rng.uniform(2, 18)),
            )
            n_cones = int(rng.integers(3, 10))
            cones = [
                ConeEstimate(
                    id=k,
                    position=Gaussian2.isotropic(rng.uniform(-10, 10, 2), 0.1),
                    color_evidence=rng.dirichlet([1, 1, 1]) + 1e-9,
                    existence=0.9,
                    last_seen=0.0,
                )
                for k in range(n_cones)
            ]
            sides = rng.integers(0, 3, size=n_cones)  # 0 left, 1 right, 2 unassigned
            left = frozenset(int(i) for i in np.flatnonzero(sides == 0))
            right = frozenset(int(i) for i in np.flatnonzero(sides == 1))
            lp = log_prior(features, prior_config)
            ll = log_likelihood(np.array([c.color_evidence for c in cones]), left, right)
            posterior = lp + ll
            if abs(posterior - (lp + ll)) > 1e-12:
                exact = False
            pool.append((posterior, features, checked))
            checked += 1
            if len(pool) == 25:
                best = max(pool, key=lambda entry: (entry[0], entry[1].length_m, -entry[1].max_heading_change_rad, -entry[2]))
                oracle = pool[0]
                for entry in pool[1:]:
                    if entry[0] > oracle[0]:
                        oracle = entry
                    elif entry[0] == oracle[0]:
                        if entry[1].length_m > oracle[1].length_m:
                            oracle = entry
                mismatches += best[2] != oracle[2]
                pools_checked += 1
                pool = []
        ok = exact and mismatches == 0
        announce(
            "AC-6 (posterior decomposition + argmax)",
            ok,
            f"{checked} configurations exact, {pools_checked} selection pools match the oracle",
        )

    def test_ac6_select_path_matches_exhaustive_oracle_on_snapshots(self):
        from conetrack.local_map import LocalMapSnapshot, MapMode
        from conetrack.planner import PlannerConfig

        rng = np.random.default_rng(607)
        config = PlannerConfig(limits=SearchLimits(beam_width=None), prior=PriorConfig.defaults())
        cases = 0
        agreements = 0
        while cases < 60:
            n = int(rng.integers(4, 9))
            cones = []
            cid = 0
            for k in range(n):
                x = 2.5 * k
                for y, col in ((2.0, (0.9, 0.05, 0.05)), (-2.0, (0.05, 0.9, 0.05))):
                    pos = np.array([x, y]) + rng.normal(scale=0.3, size=2)
                    cones.append(
                        ConeEstimate(
                            id=cid,
                            position=Gaussian2.isotropic(pos, 0.1),
                            color_evidence=np.array(col) * rng.uniform(1, 20),
                            existence=0.9,
                            last_seen=0.0,
                        )
                    )
                    cid += 1
            snap = LocalMapSnapshot(0.0, Pose2(0, 0, 0), ConeTable.from_estimates(cones), frozenset(range(cid)), MapMode.FUSION)
            result = plan_snapshot(snap, config)
            if not result.candidates:
                continue
            cases += 1
            best_idx, best_key = None, None
            for idx, cand in enumerate(result.candidates):
                lp = log_prior(cand.features, config.prior)
                ll = log_likelihood(snap.cones.color_evidence, cand.left_cones, cand.right_cones)
                key = (-(lp + ll), -cand.features.length_m, cand.features.max_heading_change_rad, idx)
                if best_key is None or key < best_key:
                    best_idx, best_key = idx, key
            agreements += result.selected is result.candidates[best_idx]
        ok = agreements == cases
        announce("AC-6 (snapshot selection oracle)", ok, f"{agreements}/{cases} snapshots agree")


class TestAC7SolverCorrectness:
    @staticmethod
    def _fd(func, x, h=1e-6):
        cols = []
        for k in range(len(x)):
            xp, xm = x.copy(), x.copy()
            xp[k] += h
            xm[k] -= h
            cols.append((func(xp) - func(xm)) / (2 * h))
        return np.stack(cols, axis=1)

    def test_ac7_jacobians_and_zero_cost(self):
        rng = np.random.default_rng(707)
        worst = 0.0
        for _ in range(1000):
            pi = rng.uniform(-8, 8, 3)
            pj = rng.uniform(-8, 8, 3)
            z = rng.uniform(-2, 2, 3)
            ji, jj = odometry_jacobians(pi, pj, z)
            fd_i = self._fd(lambda x: odometry_residual(x, pj, z), pi)
            fd_j = self._fd(lambda x: odometry_residual(pi, x, z), pj)
            scale = max(1.0, np.abs(ji).max(), np.abs(jj).max())
            worst = max(worst, np.abs(ji - fd_i).max() / scale, np.abs(jj - fd_j).max() / scale)

            pose = rng.uniform(-8, 8, 3)
            lm = rng.uniform(-8, 8, 2)
            zz = rng.uniform(-4, 4, 2)
            jp, jl = observation_jacobians(pose, lm, zz)
            fd_p = self._fd(lambda x: observation_residual(x, lm, zz), pose)
            fd_l = self._fd(lambda x: observation_residual(pose, x, zz), lm)
            scale = max(1.0, np.abs(jp).max())
            worst = max(worst, np.abs(jp - fd_p).max() / scale, np.abs(jl - fd_l).max() / scale)

        from test_global_map import build_noise_free_graph

        _, graph, _ = build_noise_free_graph()
        exact_cost = optimize(graph).final_cost
        rng2 = np.random.default_rng(7)
        for k in range(1, len(graph.poses)):
            noise = rng2.normal(scale=0.02, size=3)
            x, y, theta = graph.poses[k]
            graph.poses[k] = Pose2(x + noise[0], y + noise[1], theta + 0.05 * noise[2]).as_array()
        for i in range(len(graph.landmarks)):
            graph.landmarks[i] = graph.landmarks[i] + rng2.normal(scale=0.03, size=2)
        perturbed_cost = optimize(graph).final_cost
        ok = worst < 1e-6 and exact_cost < 1e-16 and perturbed_cost < 1e-16
        announce(
            "AC-7 (solver correctness)",
            ok,
            f"max jacobian error {worst:.2e} < 1e-6; noise-free costs {exact_cost:.1e}, {perturbed_cost:.1e} < 1e-16",
        )


class TestAC8GeometryOracles:
    def test_ac8_circumcircle_exhaustive(self):
        rng = np.random.default_rng(808)
        violations = 0
        for _ in range(100):
            pts = rng.uniform(0, 40, size=(50, 2))
            tri = triangulate(pts)
            for simplex in tri.simplices:
                a, b, c = pts[simplex]
                d = 2 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
                ux = ((a @ a) * (b[1] - c[1]) + (b @ b) * (c[1] - a[1]) + (c @ c) * (a[1] - b[1])) / d
                uy = ((a @ a) * (c[0] - b[0]) + (b @ b) * (a[0] - c[0]) + (c @ c) * (b[0] - a[0])) / d
                center = np.array([ux, uy])
                radius = np.hypot(*(a - center))
                dist = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
                dist[simplex] = np.inf
                violations += int(dist.min() < radius - 1e-9)
        ok = violations == 0
        announce("AC-8 (Delaunay circumcircle)", ok, f"{violations} violations over 100 x 50-point sets")

    def test_ac8_icp_recovers_rigid_transforms(self):
        from conetrack.evaluate import IcpConfig

        rng = np.random.default_rng(809)
        worst = 0.0
        for _ in range(50):
            pts = rng.uniform(-25, 25, size=(60, 2))
            # exact-correspondence recovery at arbitrary transforms
            theta = rng.uniform(-math.pi, math.pi)
            t = rng.uniform(-10, 10, 2)
            c, s = math.cos(theta), math.sin(theta)
            moved = pts @ np.array([[c, -s], [s, c]]).T + t
            exact = align_exact_correspondences(pts, moved)
            from conetrack.core import normalize_angle

            worst = max(worst, abs(normalize_angle(exact.rotation - theta)), float(np.abs(exact.translation - t).max()))
            # the nearest-neighbor iteration converges from inside its basin
            # (moderate rotation, as after the SLAM-gauge initialization)
            theta = rng.uniform(-0.15, 0.15)
            t = rng.uniform(-3, 3, 2)
            c, s = math.cos(theta), math.sin(theta)
            moved = pts @ np.array([[c, -s], [s, c]]).T + t
            icp = icp_align(pts, moved, init="centroid", config=IcpConfig(reject_radius_m=6.0, max_iterations=100))
            worst = max(worst, abs(icp.rotation - theta), float(np.abs(icp.translation - t).max()), icp.rmse)
        ok = worst < 1e-6
        announce("AC-8 (ICP transform recovery)", ok, f"worst recovery error {worst:.2e} < 1e-6")


class TestAC9FilterConsistency:
    def test_ac9_nees_band(self):
        from scipy.stats import chi2

        rng = np.random.default_rng(909)
        sigma = 0.25
        n = 1000
        nees = []
        for _ in range(n):
            truth = rng.uniform(-5, 5, size=2)
            first = truth + rng.normal(scale=sigma, size=2)
            cone = ConeEstimate(
                id=0,
                position=Gaussian2.isotropic(first, sigma),
                color_evidence=np.array([1.0, 0.0, 0.0]) + 1e-12,
                existence=0.9,
                last_seen=0.0,
            )
            z = truth + rng.normal(scale=sigma, size=2)
            obs = Gaussian2.isotropic(z, sigma)
            means, covs = update_position(cone.position.mean[None], cone.position.cov[None], obs.mean[None], obs.cov[None])
            err = means[0] - truth
            nees.append(float(err @ np.linalg.solve(covs[0], err)))
        mean_nees = float(np.mean(nees))
        lo = chi2.ppf(0.025, 2 * n) / n
        hi = chi2.ppf(0.975, 2 * n) / n
        ok = lo <= mean_nees <= hi
        announce("AC-9 (NEES consistency)", ok, f"mean NEES {mean_nees:.3f} in [{lo:.3f}, {hi:.3f}]")
