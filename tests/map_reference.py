"""References for the global map and its evaluation.

The solver evaluates its edges in batches, whitens them by one weight per
residual row, writes its Jacobian into one cached CSR pattern, factors its
normal equations in SuperLU's symmetric mode and ICP finds its own
correspondences. The functions here are the forms tests check those against:
one edge's residual or Jacobians, each edge whitened by the Cholesky factor
of its full information matrix (:func:`cholesky_roots`,
:func:`cholesky_assemble`), the Jacobian built as a COO matrix and converted
to CSR, the damped Gauss-Newton solve on that Jacobian with a general sparse
LU (COLAMD column ordering, partial pivoting), and the closed-form alignment
of two point sets whose rows pair up. The planner-log exit test meets each
segment only with the ring edges near it; ``broadcast_first_exit_distances``
meets it with every edge.
``numpy_color_probabilities`` is the colour of summed evidence arrays.

ICP meets each point only with the truth points in its x window;
:func:`all_pairs_candidates` is the all-pairs distance matrix it replaced.

The graph queues its pose and edge rows and writes them into its arrays in
one block when they are read; :class:`AppendedRowsGraph` and
:func:`appending_add_snapshot` are the form that appended a snapshot's rows
to the arrays as it came, chaining each pose from the last row of
``poses``.

The graph keeps its links to local cone ids in one table and associates a
snapshot's new cones in one call. :class:`DictLinkGraph` and
:func:`reference_add_snapshot` are the per-cone form it replaced: a dict of
links, a ``{local id: evidence}`` dict per landmark with its class cached
beside it, and one association per new cone, with the colour probabilities
in plain-float arithmetic.
"""

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from conetrack.core import Pose2, body_frame_point, compose, relative_pose, transform_point
from conetrack.evaluate import EXIT_TEST_CHUNK, AlignmentResult, _rigid_fit
from conetrack.global_map import (
    LINK,
    OBSERVATION_EDGE,
    ODOMETRY_EDGE,
    GlobalMapConfig,
    Graph,
    OptimizeResult,
    _apply_step,
    _check_structure,
    _observation_batch,
    _odometry_batch,
    _row_pose,
    _Rows,
    _associate_landmarks,
    residual_cost,
)


def pose_array(pose: Pose2) -> np.ndarray:
    """A pose as the (x, y, theta) float array a row of ``Graph.poses`` holds."""
    return np.array([pose.x, pose.y, pose.theta], dtype=float)


def one_edge(batch, *rows, jac=False):
    """``batch`` (``global_map._odometry_batch`` or ``_observation_batch``) on one edge's rows.

    Returns the edge's residual, or with ``jac`` its two Jacobians.
    """
    residuals, jacobians = batch(*(row[None, :] for row in rows), jac=jac)
    return tuple(j[0] for j in jacobians) if jac else residuals[0]


def numpy_color_probabilities(evidence) -> np.ndarray:
    """(blue, yellow, unknown) probabilities of the sum of colour evidence arrays; no evidence reads as unknown."""
    total = np.zeros(3)
    for ev in evidence:
        total += ev
    total_sum = float(total.sum())
    return total / total_sum if total_sum > 0 else np.array([0.0, 0.0, 1.0])


def _place(first_row: np.ndarray, first_col: np.ndarray, blocks: np.ndarray):
    """Row, column and value of every entry of the (k, h, w) ``blocks``; block
    e's top-left entry is at (first_row[e], first_col[e]). Blocks at negative
    columns, those of the gauge pose, are dropped."""
    free = first_col >= 0
    first_row, first_col, blocks = first_row[free], first_col[free], blocks[free]
    _, h, w = blocks.shape
    rows = first_row[:, None] + np.repeat(np.arange(h), w)
    cols = first_col[:, None] + np.tile(np.arange(w), h)
    return rows.ravel(), cols.ravel(), blocks.ravel()


def information_matrices(odometry_information, observation_information):
    """Each edge's full information matrix: ``np.diag`` of an odometry edge's
    (3,) diagonal, and ``np.eye(2)`` times an observation edge's value."""
    odometry_matrices = np.array([np.diag(diagonal) for diagonal in odometry_information]).reshape(-1, 3, 3)
    return odometry_matrices, np.eye(2) * np.reshape(observation_information, (-1, 1, 1))


def whiten(information: np.ndarray) -> np.ndarray:
    """The transposed Cholesky factors of a stack of information matrices:
    with info = L L^T, the whitened residual is L^T r."""
    return np.linalg.cholesky(information).transpose(0, 2, 1)


def cholesky_roots(odometry, observations):
    """Each edge type's stack of square-root information matrices, by :func:`whiten`."""
    matrices = information_matrices(odometry["information"], observations["information"])
    return tuple(whiten(information) for information in matrices)


def cholesky_assemble(poses, lms, odometry, observations, weights, pattern=None):
    """``global_map._assemble`` whitening each edge by ``np.einsum`` products
    with its :func:`cholesky_roots` block instead of the row ``weights``,
    which it ignores."""
    jac = pattern is not None
    sqrt_odo, sqrt_obs = cholesky_roots(odometry, observations)
    oi = np.arange(len(odometry))
    pidx, lidx = observations["pose"], observations["landmark"]
    edge_types = (
        (sqrt_odo, _odometry_batch(poses[oi], poses[oi + 1], odometry["relative"], jac)),
        (sqrt_obs, _observation_batch(poses[pidx], lms[lidx], observations["measurement"], jac)),
    )
    residuals, blocks = [], []
    for sqrt_info, (res, jacobians) in edge_types:
        residuals.append(np.einsum("eab,eb->ea", sqrt_info, res).ravel())
        if jac:
            blocks += [np.einsum("eab,ebc->eac", sqrt_info, block).ravel() for block in jacobians]
    residuals = np.concatenate(residuals)
    if not jac:
        return residuals, None
    values = np.concatenate(blocks)[pattern.order]
    return residuals, sp.csr_matrix((values, pattern.indices, pattern.indptr), shape=pattern.shape)


def coo_assemble(poses, lms, odometry, observations, sqrt_odo, sqrt_obs, jac: bool):
    """Whitened residual vector and (with ``jac``) the sparse Jacobian, built as
    a COO matrix from int64 rows and columns and converted to CSR.

    Variable layout: poses 1..n-1 as (x, y, theta) blocks, then landmarks as
    (x, y) blocks. Pose 0 is the fixed gauge: its blocks fall at negative
    columns, which :func:`_place` drops.
    """
    n_pose_vars = 3 * (len(poses) - 1)
    oi = np.arange(len(odometry))
    pidx, lidx = observations["pose"], observations["landmark"]
    # per edge type: square-root information, residuals and Jacobians, and the first column of each Jacobian's node
    edge_types = (
        (sqrt_odo, _odometry_batch(poses[oi], poses[oi + 1], odometry["relative"], jac), (3 * (oi - 1), 3 * oi)),
        (
            sqrt_obs,
            _observation_batch(poses[pidx], lms[lidx], observations["measurement"], jac),
            (3 * (pidx - 1), n_pose_vars + 2 * lidx),
        ),
    )
    residuals, entries, row = [], [], 0
    for sqrt_info, (res, jacobians), first_cols in edge_types:
        residuals.append(np.einsum("eab,eb->ea", sqrt_info, res).ravel())
        if jac:
            first_rows = row + res.shape[1] * np.arange(len(res))
            for first_col, block in zip(first_cols, jacobians):
                entries.append(_place(first_rows, first_col, np.einsum("eab,ebc->eac", sqrt_info, block)))
        row += res.size
    residuals = np.concatenate(residuals)
    if not jac:
        return residuals, None
    rows, cols, vals = (np.concatenate(part) for part in zip(*entries))
    jacobian = sp.coo_matrix((vals, (rows, cols)), shape=(len(residuals), n_pose_vars + 2 * len(lms))).tocsr()
    return residuals, jacobian


def colamd_optimize(graph, config=GlobalMapConfig()) -> OptimizeResult:
    """Damped Gauss-Newton on the graph, each step's Jacobian from
    :func:`coo_assemble`, whitened by the :func:`cholesky_roots`, and its step
    solved by ``splu``'s default general LU; the same iteration, damping and
    stopping rules as ``global_map.optimize``."""
    _check_structure(graph)
    odometry, observations = graph.odometry_edges, graph.observation_edges
    sqrt_odo, sqrt_obs = cholesky_roots(odometry, observations)
    poses, lms = graph.poses.copy(), graph.landmarks.copy()

    def total_cost(p, l):
        res, _ = coo_assemble(p, l, odometry, observations, sqrt_odo, sqrt_obs, jac=False)
        return residual_cost(res)

    cost = total_cost(poses, lms)
    lam = config.initial_lambda
    iterations = 0
    if 3 * (len(poses) - 1) + 2 * len(lms) == 0 or cost < config.absolute_cost_floor:
        return OptimizeResult(poses, lms, cost, 0, True, "already at a zero-residual configuration")
    for _ in range(config.max_iterations):
        residuals, jacobian = coo_assemble(poses, lms, odometry, observations, sqrt_odo, sqrt_obs, jac=True)
        hess = (jacobian.T @ jacobian).tocsc()
        grad = jacobian.T @ residuals
        diag = np.maximum(hess.diagonal(), 1e-9)
        accepted = False
        for _ in range(config.max_lambda_steps):
            try:
                delta = splu(hess + sp.diags(lam * diag)).solve(-grad)
            except RuntimeError:
                lam *= config.lambda_up
                continue
            if not np.all(np.isfinite(delta)):
                lam *= config.lambda_up
                continue
            cand_poses, cand_lms = _apply_step(poses, lms, delta)
            cand_cost = total_cost(cand_poses, cand_lms)
            if cand_cost < cost:
                poses, lms = cand_poses, cand_lms
                prev_cost, cost = cost, cand_cost
                lam = max(lam * config.lambda_down, 1e-12)
                accepted = True
                break
            lam *= config.lambda_up
        iterations += 1
        if not accepted:
            return OptimizeResult(poses, lms, cost, iterations, True, "damping stalled at a local minimum")
        if cost < config.absolute_cost_floor:
            return OptimizeResult(poses, lms, cost, iterations, True, "cost below absolute floor")
        if (prev_cost - cost) / max(prev_cost, 1e-300) < config.relative_tolerance:
            return OptimizeResult(poses, lms, cost, iterations, True, "relative cost decrease below tolerance")
    return OptimizeResult(poses, lms, cost, iterations, False, "iteration budget exhausted")


def align_exact_correspondences(estimated: np.ndarray, truth: np.ndarray) -> AlignmentResult:
    """Closed-form alignment when row i of both sets is the same physical cone."""
    est = np.asarray(estimated, dtype=float)
    tru = np.asarray(truth, dtype=float)
    if est.shape != tru.shape or len(est) == 0:
        raise ValueError("exact-correspondence sets must be non-empty and equal-sized")
    theta, trans = _rigid_fit(est, tru)
    c, s = math.cos(theta), math.sin(theta)
    moved = est @ np.array([[c, -s], [s, c]]).T + trans
    rmse = float(np.sqrt(np.mean(np.sum((moved - tru) ** 2, axis=1))))
    pairs = tuple((k, k) for k in range(len(est)))
    return AlignmentResult(theta, trans, pairs, rmse, 0, 0)


def broadcast_first_exit_distances(points, offsets, corridor) -> list:
    """``evaluate.first_exit_distances`` with every segment met by every ring
    edge, in broadcasts over ``EXIT_TEST_CHUNK`` segments at a time."""
    points = np.asarray(points, dtype=float).reshape(-1, 2)
    starts = points[:-1]
    seg = points[1:] - starts
    seg_lens = np.hypot(seg[:, 0], seg[:, 1]).tolist()
    first_t = np.empty(len(seg))
    inside = np.empty(len(points), dtype=bool)
    q1x, q1y = corridor.edge_start[:, 0], corridor.edge_start[:, 1]
    ex, ey = corridor.edge_end[:, 0] - q1x, corridor.edge_end[:, 1] - q1y
    for lo in range(0, len(seg), EXIT_TEST_CHUNK):
        rows = slice(lo, lo + EXIT_TEST_CHUNK)
        dx, dy = seg[rows, :1], seg[rows, 1:]
        wx, wy = q1x - starts[rows, :1], q1y - starts[rows, 1:]
        denom = dx * ey - dy * ex
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t = (wx * ey - wy * ex) / denom
            u = (wx * dy - wy * dx) / denom
        crossed = ~(np.abs(denom) < 1e-15) & (0.0 <= t) & (t <= 1.0) & (0.0 <= u) & (u <= 1.0)
        first_t[rows] = np.where(crossed, t, np.inf).min(axis=1)
    for lo in range(0, len(points), EXIT_TEST_CHUNK):
        rows = slice(lo, lo + EXIT_TEST_CHUNK)
        inside[rows] = corridor.contains(points[rows])
    first_t, inside = first_t.tolist(), inside.tolist()
    exits = []
    for start, end in zip(offsets, offsets[1:]):
        arc, exit_d = 0.0, None
        for k in range(start, end - 1):
            if first_t[k] != math.inf:
                exit_d = arc + first_t[k] * seg_lens[k]
                break
            if not inside[k + 1]:
                exit_d = arc + seg_lens[k]
                break
            arc += seg_lens[k]
        exits.append(exit_d)
    return exits


class DictLinkGraph(Graph):
    """A graph whose links are ``local_links`` ({local cone id: landmark})
    and ``color_evidence[i]``, landmark i's ``{local cone id: (blue, yellow,
    unknown) evidence}`` in link order, its dominant class cached in
    ``classes``. Poses, landmarks and edges are the graph's own arrays; its
    link table stays empty."""

    def __init__(self) -> None:
        super().__init__()
        self.classes = _Rows(np.int8)
        self.color_evidence: list[dict[int, tuple]] = []
        self.local_links: dict[int, int] = {}

    def add_landmark(self, position: np.ndarray) -> int:
        """Append a landmark without color evidence; returns its row."""
        self.add_landmarks([position])
        self.classes.append([2])  # unknown until colour evidence arrives
        self.color_evidence.append({})
        return len(self.landmarks) - 1

    def update_color(self, landmark: int, local_id: int, evidence) -> None:
        """Set local cone ``local_id``'s color evidence (three floats) for ``landmark`` and refresh its class."""
        merged = self.color_evidence[landmark]
        merged[local_id] = tuple(map(float, evidence))
        self.classes.rows[landmark] = dominant_class(merged.values())

    def link_table(self) -> np.ndarray:
        """The links as ``Graph.links`` rows: one per local id, in link order."""
        return np.array(
            [(cid, lm, self.color_evidence[lm][cid]) for cid, lm in self.local_links.items()], LINK
        )


def plain_color_probabilities(evidence) -> tuple[float, float, float]:
    """(blue, yellow, unknown) probabilities of the sum of (blue, yellow,
    unknown) evidence triples; no evidence reads as unknown.

    Plain floats in numpy's order, so the values equal those of summing numpy
    arrays into ``np.zeros(3)`` and dividing by ``.sum()``, bit for bit: each
    class is a left fold from +0.0, and so is the three-value total.
    """
    blue = yellow = unknown = 0.0
    for b, y, u in evidence:
        blue += b
        yellow += y
        unknown += u
    total = 0.0 + blue + yellow + unknown
    if not total > 0:
        return 0.0, 0.0, 1.0
    return blue / total, yellow / total, unknown / total


def dominant_class(evidence) -> int:
    """The class code of the largest colour probability; as in ``np.argmax``,
    the first NaN or else the first largest wins."""
    probabilities = plain_color_probabilities(evidence)
    for k, p in enumerate(probabilities):
        if p != p:
            return k
    return probabilities.index(max(probabilities))


def reference_add_snapshot(graph: DictLinkGraph, snapshot, config: GlobalMapConfig = GlobalMapConfig()) -> DictLinkGraph:
    """``global_map.add_snapshot`` one cone at a time: each observed cone
    within the proximity radius reuses its local id's landmark, or is
    associated alone and linked, and its evidence is set before the next."""
    if graph.last_timestamp is not None and snapshot.timestamp <= graph.last_timestamp:
        raise ValueError(
            f"snapshot at {snapshot.timestamp} s arrived after {graph.last_timestamp} s"
        )
    ego = snapshot.ego
    if graph.last_ego is None:
        pose = Pose2.identity()
        graph.add_pose(pose)
    else:
        odometry = relative_pose(graph.last_ego, ego)
        pose = compose(_row_pose(graph.poses[-1]), odometry)
        sx, sy, st = config.odometry_sigma_rates
        dt_f = max(snapshot.timestamp - graph.last_timestamp, 1e-3)
        graph.add_pose(pose, odometry, (1.0 / (sx * sx * dt_f), 1.0 / (sy * sy * dt_f), 1.0 / (st * st * dt_f)))
    graph.last_timestamp, graph.last_ego = snapshot.timestamp, ego

    cones = snapshot.cones
    ids = cones.ids.tolist()
    # a landmark whose linked local cone is still alive in this snapshot is a
    # different physical cone than any newly created local id: the local map's
    # probabilistic association already separated them
    live_ids = set(ids)
    rows = [k for k, cid in enumerate(ids) if cid in snapshot.observed_ids]
    means = cones.means[rows]
    measurements = body_frame_point(ego, means)
    evidence = cones.color_evidence[rows].tolist()
    floor = config.observation_sigma_floor_m**2
    variances = np.maximum((cones.covs[rows, 0, 0] + cones.covs[rows, 1, 1]) / 2.0, floor)
    landmarks, kept = [], []
    for j, (dx, dy) in enumerate((means - ego.position).tolist()):
        if math.hypot(dx, dy) > config.proximity_radius_m:
            continue
        cid = ids[rows[j]]
        lm = graph.local_links.get(cid)
        if lm is None:
            world_guess = transform_point(pose, measurements[j])
            cone_class = dominant_class([evidence[j]])
            lm = reference_associate_landmark(graph, world_guess, config.association_radius_m, live_ids, cone_class)
            if lm is None:
                lm = graph.add_landmark(world_guess)
            graph.local_links[cid] = lm
        graph.update_color(lm, cid, evidence[j])
        landmarks.append(lm)
        kept.append(j)
    graph.add_observations(len(graph.poses) - 1, landmarks, measurements[kept], variances[kept])
    return graph


def reference_associate_landmark(
    graph: DictLinkGraph, world_point: np.ndarray, radius: float, live_ids: set[int], cone_class: int
) -> int | None:
    """Nearest compatible landmark within the merge radius, if any; the highest id wins a tie.

    Compatibility: no link to a cone still alive in the current snapshot (the
    local map already separated those), and the same dominant color class, so
    a drifted revisit cannot collapse differently-colored neighbors.
    """
    offset = graph.landmarks - world_point
    # a landmark outside the box around the point is outside the radius too
    candidate = (graph.classes.rows == cone_class) & (np.abs(offset) <= radius).all(axis=1)
    candidate[[graph.local_links[c] for c in live_ids if c in graph.local_links]] = False
    best = None
    best_d = radius
    for i in np.flatnonzero(candidate).tolist():
        # math.hypot, not np.hypot: the two can differ in the last bit
        d = math.hypot(offset[i, 0], offset[i, 1])
        if d <= best_d:
            best_d = d
            best = i
    return best


def all_pairs_candidates(moved: np.ndarray, truth: np.ndarray, radius: float):
    """The (row, column, distance) of every moved, truth pair at most ``radius`` apart, in row-major order,
    read from the full moved x truth ``np.hypot`` matrix."""
    dist = np.hypot(moved[:, None, 0] - truth[None, :, 0], moved[:, None, 1] - truth[None, :, 1])
    rows, cols = np.nonzero(dist <= radius)
    return rows, cols, dist[rows, cols]


class AppendedRowsGraph(Graph):
    """A graph whose poses and edges go into its arrays as they are added: one ``_Rows.append`` per pose,
    per odometry edge and per block of observation edges, each block built with ``np.zeros`` and field
    writes, each observation's information ``1.0 / variance`` as its block comes. Its queue stays empty."""

    def add_pose(self, pose: Pose2, odometry: Pose2 | None = None, information=None) -> None:
        if (odometry is None) != (len(self.poses) == 0):
            raise ValueError("every pose but the first is chained to its predecessor by one odometry edge")
        self._poses.append([pose_array(pose)])
        if odometry is not None:
            self._odometry.append(np.array([(pose_array(odometry), information)], ODOMETRY_EDGE))

    def add_observations(self, pose, landmark, measurement, variances) -> None:
        edges = np.zeros(len(landmark), OBSERVATION_EDGE)
        edges["pose"] = pose
        edges["landmark"] = landmark
        edges["measurement"] = np.reshape(measurement, (-1, 2))
        edges["information"] = 1.0 / np.asarray(variances, float)
        self._observations.append(edges)


def appending_add_snapshot(graph: AppendedRowsGraph, snapshot, config: GlobalMapConfig = GlobalMapConfig()):
    """``global_map.add_snapshot`` writing each snapshot's rows as it comes, the pose chained from
    ``graph.poses[-1]``."""
    if graph.last_timestamp is not None and snapshot.timestamp <= graph.last_timestamp:
        raise ValueError(f"snapshot at {snapshot.timestamp} s arrived after {graph.last_timestamp} s")
    ego = snapshot.ego
    if graph.last_ego is None:
        pose = Pose2.identity()
        graph.add_pose(pose)
    else:
        odometry = relative_pose(graph.last_ego, ego)
        pose = compose(_row_pose(graph.poses[-1]), odometry)
        sx, sy, st = config.odometry_sigma_rates
        dt_f = max(snapshot.timestamp - graph.last_timestamp, 1e-3)
        graph.add_pose(pose, odometry, (1.0 / (sx * sx * dt_f), 1.0 / (sy * sy * dt_f), 1.0 / (st * st * dt_f)))
    graph.last_timestamp, graph.last_ego = snapshot.timestamp, ego

    cones = snapshot.cones
    ids = cones.ids.tolist()
    observed = [k for k, cid in enumerate(ids) if cid in snapshot.observed_ids]
    offsets = (cones.means[observed] - ego.position).tolist()
    rows = [k for k, (dx, dy) in zip(observed, offsets) if not math.hypot(dx, dy) > config.proximity_radius_m]
    measurements = body_frame_point(ego, cones.means[rows])
    evidence = cones.color_evidence[rows]
    link_rows = [graph.link_index.get(ids[k]) for k in rows]
    old = [j for j, row in enumerate(link_rows) if row is not None]
    new = [j for j, row in enumerate(link_rows) if row is None]
    linked = [link_rows[j] for j in old]
    graph.links["evidence"][linked] = evidence[old]
    landmarks = np.empty(len(rows), np.intp)
    landmarks[old] = graph.links["landmark"][linked]
    if new:
        world_guesses = transform_point(pose, measurements[new])
        matched = _associate_landmarks(graph, world_guesses, evidence[new], ids, config.association_radius_m)
        unmatched = matched < 0
        matched[unmatched] = graph.add_landmarks(world_guesses[unmatched])
        graph.add_links([ids[rows[j]] for j in new], matched, evidence[new])
        landmarks[new] = matched
    floor = config.observation_sigma_floor_m**2
    variances = np.maximum((cones.covs[rows, 0, 0] + cones.covs[rows, 1, 1]) / 2.0, floor)
    graph.add_observations(len(graph.poses) - 1, landmarks, measurements, variances)
    return graph
