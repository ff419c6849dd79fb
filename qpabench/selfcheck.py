"""Checks of the benchmark's own code: the variance fit, the spans, the sign convention.

    python3 qpabench/selfcheck.py

Run from the root of a checkout that holds ``src/qpasim``.  The file name
keeps these checks out of the package's own pytest collection.
"""

from __future__ import annotations

import sys
import tempfile
import unittest
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import adapter as qp  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# an estimate must lie within Z standard errors of the truth (two-sided p = 6e-5 per check)
Z = 4.0


def synthetic(v_min, v_max, phi, n, seed):
    """Draws with Var(x | theta) = v_min cos^2(theta - phi) + v_max sin^2(theta - phi)."""
    rng = np.random.default_rng(seed)
    theta = np.pi * np.arange(n) / n
    var = v_min * np.cos(theta - phi) ** 2 + v_max * np.sin(theta - phi) ** 2
    return rng.standard_normal(n) * np.sqrt(var), theta


class TestVarianceFit(unittest.TestCase):
    def test_recovers_known_principal_variances(self):
        # lossy squeezing at about -0.3 dB and +1.7 dB, and a strongly squeezed case
        for v_min, v_max, phi in ((0.234, 0.37, 0.0), (0.05, 1.2, 0.7), (0.25, 0.25 + 1e-3, 2.0)):
            for seed in (1, 2, 3):
                x, theta = synthetic(v_min, v_max, phi, 2**17, seed)
                fit = workloads.fit_variance(x, theta)
                self.assertLess(abs(fit.v_min - v_min), Z * fit.se_min, (v_min, v_max, seed, fit))
                self.assertLess(abs(fit.v_max - v_max), Z * fit.se_max, (v_min, v_max, seed, fit))

    def test_standard_error_matches_gaussian_theory(self):
        # for a flat variance v the mean of x^2 has standard error v sqrt(2 / n);
        # the minimum also carries the error of the fitted amplitude
        n, v = 2**16, 0.25
        fit = workloads.fit_variance(*synthetic(v, v, 0.0, n, 4))
        expected = v * np.sqrt(2.0 / n)
        self.assertGreater(fit.se_min, 0.8 * expected)
        self.assertLess(fit.se_min, 3.0 * expected)


class TestSpans(unittest.TestCase):
    def traced_iteration(self):
        probe = qp.Probe("design_sweep")
        with tempfile.TemporaryDirectory() as tmp:
            wl = workloads.DesignSweep(probe, 5, tmp)
            wl.config = dict(wl.config, n_scenarios=4, n_samples=512)
            wl.setup()
            probe.tracing = True
            with probe.span("bench.iteration"):
                wl.iteration()
        return probe.spans

    def test_spans_nest_and_self_times_add_up(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spans = self.traced_iteration()
        by_id = {s[0]: s for s in spans}
        roots = [s for s in spans if s[4] is None]
        self.assertEqual([s[1] for s in roots], ["bench.iteration"])
        for s in spans:
            self.assertLessEqual(s[2], s[3])
            if s[4] is not None:
                parent = by_id[s[4]]
                self.assertLessEqual(parent[2], s[2])
                self.assertLessEqual(s[3], parent[3])
        children = {}
        for s in spans:
            children.setdefault(s[4], []).append(s)
        for kids in children.values():
            kids.sort(key=lambda s: s[2])
            for a, b in zip(kids, kids[1:]):
                self.assertLessEqual(a[3], b[2], "sibling spans overlap")
        for s in spans:
            if s[1] in qp.LAYERS:
                self.assertNotIn(s[0], children, "layer spans are leaves")
        own = run.self_times(spans)
        root = roots[0]
        self.assertAlmostEqual(sum(own.values()), root[3] - root[2], delta=1e-9)
        self.assertTrue(all(v >= -1e-12 for v in own.values()))


class TestSignConvention(unittest.TestCase):
    def test_single_channel_sampled_matches_oracle_by_lo_phase(self):
        # one channel has no vacuum cross-correlation to get wrong, so the sampled
        # record must follow the oracle at every LO phase, not only at its extremes
        geometry = qp.ApertureGeometry(n_antennas=1)
        c = np.array([0.5 * np.exp(1j * 1.0)])
        probe = qp.Probe("check")
        settings = probe.matched_settings(qp.CouplingVector(c=c), geometry)
        n, r = 2**18, 1.0
        ramp = workloads.ramp_for(n)
        theta = ramp.phase(ramp.times(n))
        records = probe.sample_pixel_streams(c, r, ramp, n, 3, settings, np.inf)
        x = probe.combine_records(records, settings).samples
        state = probe.apply_linear_network(probe.state_build(r, 1), c[:, None])
        combined = probe.combine_state(state, settings)
        for th in (0.0, np.pi / 4, np.pi / 2):
            window = np.abs(((theta - th + np.pi / 2) % np.pi) - np.pi / 2) < 0.02
            expected = qp.quadrature_variance(combined, np.array([1.0]), th)
            se = expected * np.sqrt(2.0 / window.sum())
            self.assertLess(abs(x[window].var() - expected), Z * se, th)


if __name__ == "__main__":
    unittest.main()
