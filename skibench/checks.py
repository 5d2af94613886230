"""Correctness gates, run outside the timed region.

Each gate recomputes a result through a route the timed path does not take:
the fit residual through the recursive ``sg_mvm``, and predictions through
``interpolate_direct``, which evaluates the combination rule from lattice
geometry with no index lookup.
"""

import numpy as np

import skigrid

ORACLE_RTOL = 1e-10


class ResidualGate:
    """True relative residual ||y - (W K_G W^T + s2 I) alpha|| / ||y|| of a fit."""

    def __init__(self, model, X, y):
        cfg = model.config
        self.y = np.asarray(y, dtype=np.float64)
        self.sigma2 = cfg.sigma2
        self.W = skigrid.assemble_W(model.domain_map.forward(X), model.grid,
                                    skigrid.BaseRule(cfg.rule), method=cfg.method)
        self.plan = skigrid.build_plan(cfg.resolution, X.shape[1], cfg.kernel)

    def __call__(self, alpha):
        Ka = skigrid.sg_mvm(self.plan, self.W.apply_transpose(alpha))
        r = self.y - (self.W.apply(Ka) + self.sigma2 * alpha)
        return float(np.linalg.norm(r) / np.linalg.norm(self.y))


class OracleGate:
    """Relative error of predictions against ``interpolate_direct`` applied
    to the model's grid values, looked up by grid-point coordinate."""

    def __init__(self, model):
        self.model = model
        self.index = {tuple(p): i for i, p in enumerate(model.grid.points())}

    def _grid_values(self, coords):
        dual = self.model.grid_dual
        return dual[[self.index[tuple(c)] for c in coords]]

    def __call__(self, Xs, mean):
        cfg = self.model.config
        U = self.model.domain_map.forward(Xs)
        try:
            want = skigrid.interpolate_direct(
                self._grid_values, U, cfg.resolution, U.shape[1],
                base=skigrid.BaseRule(cfg.rule), method=cfg.method)
        except KeyError:   # a corner the grid does not hold
            return float("inf")
        return float(np.linalg.norm(mean - want)
                     / max(np.linalg.norm(want), 1e-300))
