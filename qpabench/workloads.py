"""The benchmark's seeded workloads, their output checks and the variance fit.

Every workload saves its records to real files in both formats, so CSV and
binary throughput are measured on each of them:

- ``acquisition``: one scenario at the paper's settings, shortened to
  32 x 2^20 samples (a 256 MiB working set, 2.4x the 105 MiB L3 of the
  2-core Xeon it was sized on); nearly all time goes to the sampler, the
  combiner and the writers.
- ``design_sweep``: a batch of varied scenarios with short streams; the time
  goes to the coupling quadrature and to covariance algebra.

An iteration is a fixed sequence of short measurement units (one chain, one
saved file), so a run can be summarised unit by unit.  The inputs depend on
the seed only; qpasim receives the generated inputs.
"""

from __future__ import annotations

import hashlib
import os
import traceback
from dataclasses import dataclass

import numpy as np

import adapter as qp

FS_HZ = 20e6


@dataclass(frozen=True)
class Fit:
    """Least-squares fit of x^2 to [1, cos 2t, sin 2t]: principal variances, standard errors."""

    v_min: float
    v_max: float
    se_min: float
    se_max: float


def fit_variance(x: np.ndarray, theta: np.ndarray) -> Fit:
    """Estimate (min, max) quadrature variance from samples taken along a phase ramp.

    Var(x | theta) = a + b cos 2theta + c sin 2theta, so the principal
    variances are a -+ hypot(b, c).  Standard errors use the
    heteroscedasticity-robust (HC0) covariance of the coefficients, because
    Var(x^2) itself follows theta.
    """
    basis = np.stack([np.ones_like(theta), np.cos(2 * theta), np.sin(2 * theta)], axis=1)
    y = x * x
    gram_inv = np.linalg.inv(basis.T @ basis)
    coef = gram_inv @ (basis.T @ y)
    resid = y - basis @ coef
    meat = (basis * (resid * resid)[:, None]).T @ basis
    cov = gram_inv @ meat @ gram_inv
    a, b, c = coef
    amp = float(np.hypot(b, c))
    unit = np.array([0.0, b / amp, c / amp]) if amp > 0 else np.zeros(3)
    g_min = np.array([1.0, 0.0, 0.0]) - unit
    g_max = np.array([1.0, 0.0, 0.0]) + unit
    return Fit(float(a - amp), float(a + amp), float(np.sqrt(g_min @ cov @ g_min)), float(np.sqrt(g_max @ cov @ g_max)))


def ramp_for(n_samples: int):
    """Phase ramp scaled so ``n_samples`` at 20 MS/s cover theta in [0, pi), like 0.5 Hz over 1 s."""
    return qp.PhaseRamp(frequency_hz=FS_HZ / (2 * n_samples), duration_s=n_samples / FS_HZ, sampling_rate=FS_HZ)


def residual_db(estimated: float, predicted: float) -> float:
    return abs(10 * np.log10(estimated / predicted))


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 22), b""):
            h.update(block)
    return h.hexdigest()


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def predict(probe: qp.Probe, c: np.ndarray, kappa: float, r: float, settings, model) -> tuple[float, float]:
    """Covariance-oracle (min, max) variance of the combined record.

    Squeezed vacuum on mode 0 of a 32-mode state, the coupling column as a
    passive network, the chain efficiency as a loss on every channel, the RF
    combination, then the electronic-noise variance added at the end.
    """
    n = c.size
    state = probe.state_build(r, n)
    network = np.zeros((n, n), dtype=complex)
    network[:, 0] = c
    state = probe.apply_linear_network(state, network)
    for j in range(n):
        state = probe.apply_loss(state, j, kappa)
    combined = probe.combine_state(state, settings)
    v_min, v_max = np.linalg.eigvalsh(combined.cov)
    elec = qp.electronic_noise_variance(model)
    return float(v_min + elec), float(v_max + elec)


def run_chain(probe: qp.Probe, geometry, beam, model, r: float, n_samples: int, seed: int) -> dict:
    """One scenario from geometry and beam to combined record and estimated squeezing."""
    cv = probe.coupling_vector(geometry, beam)
    settings = probe.matched_settings(cv, geometry)
    eta_geo = probe.geometric_efficiency(cv, settings, geometry)
    kappa = probe.channel_effective_efficiency(1.0, model)
    pred_min, pred_max = predict(probe, cv.c, kappa, r, settings, model)
    ramp = ramp_for(n_samples)
    records = probe.sample_pixel_streams(np.sqrt(kappa) * cv.c, r, ramp, n_samples, seed, settings, model.snc_db)
    combined = probe.combine_records(records, settings)
    fit = probe.estimate(fit_variance, combined.samples, ramp.phase(ramp.times(n_samples)))
    return {
        "missed": not np.any(cv.c),
        "eta_geo": eta_geo,
        "record_sizes": [rec.samples.size for rec in records],
        "records": records,
        "combined": combined,
        "predicted": (pred_min, pred_max),
        "fit": fit,
        "squeezing_residual_db": residual_db(fit.v_min, pred_min),
        "antisqueezing_residual_db": residual_db(fit.v_max, pred_max),
    }


def check_chain(out: dict, n_channels: int, n_samples: int) -> None:
    require(out["record_sizes"] == [n_samples] * n_channels, "one record of n_samples per channel")
    require(out["combined"].samples.size == n_samples, "combined record length")
    require(-1e-9 <= out["eta_geo"] <= 1 + 1e-9, "geometric efficiency in [0, 1]")
    require(all(np.isfinite(v) and v > 0 for v in out["predicted"]), "predicted variances positive")
    fit = out["fit"]
    require(np.isfinite([fit.v_min, fit.v_max, fit.se_min, fit.se_max]).all(), "finite fit")
    require(fit.v_min > 0, "estimated minimum variance positive")


def check_csv(path, records) -> None:
    """Header, row count, and the last row read back."""
    with open(path, "rb") as fh:
        data = fh.read()
    require(data.startswith(b"time_s,channel,voltage\n"), "CSV header")
    require(data.count(b"\n") == 1 + sum(rec.samples.size for rec in records), "CSV row count")
    last = data.rstrip(b"\n").rsplit(b"\n", 1)[1].split(b",")
    rec = records[-1]
    require(int(last[1]) == rec.channel, "CSV last channel")
    require(np.isclose(float(last[2]), rec.samples[-1], rtol=1e-8, atol=1e-12), "CSV last voltage")


def check_binary(path, records) -> None:
    """The file read back bit for bit."""
    data = np.fromfile(path, dtype="<f8")
    require(data.size == sum(rec.samples.size for rec in records), "binary size")
    require(np.array_equal(data, np.concatenate([rec.samples for rec in records])), "binary content")


class Workload:
    """One seeded workload: ``setup`` makes inputs, ``iteration`` is the timed unit of work.

    An iteration is a sequence of measurement units (``Probe.span`` with a
    unit key), the same units in every iteration; each file a unit saves is
    remembered for ``check``.
    """

    name = ""
    why = ""
    config: dict = {}
    working_set_bytes = 0

    def __init__(self, probe: qp.Probe, seed: int, workdir: str):
        self.probe = probe
        self.seed = seed
        self.workdir = workdir
        self.saved: list[tuple] = []

    def save(self, kind: str, key: str, records) -> None:
        """Write ``records`` to one file as one unit; ``kind`` is ``csv`` or ``binary``."""
        path = os.path.join(self.workdir, "%s-%s.%s" % (self.name, key, kind))
        with self.probe.span("bench.save", unit="%s %s" % (kind, key)):
            if kind == "csv":
                self.probe.write_records_csv(records, path)
            else:
                self.probe.write_records_binary(records, path)
        self.saved.append((kind, path, records))

    def check_saved(self) -> str:
        """Check every file the iteration saved, then delete it; return a digest of their contents.

        Deleting drops the files' dirty pages before the kernel writes them
        back, so dirty data never builds up to the writeback threshold and
        every iteration writes into the same page-cache state.
        """
        h = hashlib.sha256()
        for kind, path, records in self.saved:
            (check_csv if kind == "csv" else check_binary)(path, records)
            h.update(file_digest(path).encode())
            os.remove(path)
        self.saved = []
        return h.hexdigest()

    def setup(self) -> None:
        raise NotImplementedError

    def iteration(self) -> dict:
        raise NotImplementedError

    def check(self, out: dict) -> dict:
        """Check an iteration's outputs; return its digest and residuals, the only parts kept."""
        raise NotImplementedError

    def properties(self) -> dict:
        """Rows and bytes one iteration saved in each format."""
        csv, binary = self.probe.stats["receiver.write_records_csv"], self.probe.stats["receiver.write_records_binary"]
        return {"csv_rows": csv["rows"], "csv_bytes": csv["bytes"], "binary_bytes": binary["bytes"]}


class Acquisition(Workload):
    name = "acquisition"
    why = ("paper settings shortened to 32 x 2^20 samples: sampler, combiner and writers dominate, the "
           "working set exceeds L3, coupling and covariance run once per record")
    config = {"n_channels": 32, "n_samples": 2**20, "sampling_rate_hz": FS_HZ, "r": 1.0,
              "beam_diameter_um": 200.0, "geometry": "default", "receiver": "default", "csv_segments": 16,
              "saved": "each channel record as its own binary file; the combined record as CSV in segments"}
    working_set_bytes = 32 * 2**20 * 8

    def setup(self) -> None:
        self.geometry = qp.ApertureGeometry()
        self.beam = qp.BeamSpec(diameter_um=self.config["beam_diameter_um"])
        self.model = qp.ReceiverModel()

    def iteration(self) -> dict:
        cfg = self.config
        with self.probe.span("bench.chain", unit="chain"):
            out = run_chain(self.probe, self.geometry, self.beam, self.model, cfg["r"], cfg["n_samples"], self.seed)
        for rec in out["records"]:
            self.save("binary", "ch%02d" % rec.channel, [rec])
        combined = out["combined"]
        step = cfg["n_samples"] // cfg["csv_segments"]
        for s in range(cfg["csv_segments"]):
            segment = qp.MeasurementRecord(channel=combined.channel, samples=combined.samples[s * step:(s + 1) * step],
                                           seed=combined.seed, sampling_rate=combined.sampling_rate)
            self.save("csv", "combined%02d" % s, [segment])
        return out

    def check(self, out: dict) -> dict:
        check_chain(out, self.config["n_channels"], self.config["n_samples"])
        files = self.check_saved()
        return {"digest": digest([out["combined"].samples]) + ":" + files,
                "squeezing_residual_db": out["squeezing_residual_db"],
                "antisqueezing_residual_db": out["antisqueezing_residual_db"]}


class DesignSweep(Workload):
    name = "design_sweep"
    why = ("32 varied beams, profiles and r with 4096-sample streams: coupling quadrature and covariance "
           "validation dominate, per-call sampler overhead shows")
    config = {"n_scenarios": 32, "n_channels": 32, "n_samples": 4096, "sampling_rate_hz": FS_HZ,
              "diameter_um": [80.0, 480.0], "offset_um": [-120.0, 120.0], "incidence_deg": [-1.5, 1.5],
              "r": [0.3, 1.5], "tophat_share": 0.2, "miss_share": 0.1,
              "saved": "each scenario's channel records as a binary file, its combined record as CSV"}
    working_set_bytes = 32 * 4096 * 8

    def setup(self) -> None:
        cfg = self.config
        rng = np.random.default_rng(self.seed)
        k = cfg["n_scenarios"]
        # exact shares, shuffled, so the mix is the same for every seed
        tophat = rng.permutation(np.arange(k) < round(cfg["tophat_share"] * k))
        miss = rng.permutation(np.arange(k) < round(cfg["miss_share"] * k))
        geometries = {p: qp.ApertureGeometry(mode_profile=p) for p in ("comb", "tophat")}
        halfwidth = geometries["comb"].aperture_halfwidth_um
        self.model = qp.ReceiverModel()
        self.scenarios = []
        for i in range(k):
            diameter = rng.uniform(*cfg["diameter_um"])
            if miss[i]:
                offset = rng.choice([-1.0, 1.0]) * (halfwidth + 2 * diameter + rng.uniform(10.0, 200.0))
            else:
                offset = rng.uniform(*cfg["offset_um"])
            beam = qp.BeamSpec(diameter_um=diameter, center_offset_um=offset,
                               incidence_angle_deg=rng.uniform(*cfg["incidence_deg"]))
            self.scenarios.append((geometries["tophat" if tophat[i] else "comb"], beam,
                                   rng.uniform(*cfg["r"]), int(rng.integers(2**31))))

    def iteration(self) -> dict:
        n = self.config["n_samples"]
        outs = []
        for i, (geometry, beam, r, seed) in enumerate(self.scenarios):
            with self.probe.span("bench.chain", unit="scenario %02d" % i):
                try:
                    out = run_chain(self.probe, geometry, beam, self.model, r, n, seed)
                except Exception:
                    # the probe has counted the failed call; the sweep goes on
                    traceback.print_exc()
                    continue
            self.save("binary", "s%02d" % i, out.pop("records"))
            self.save("csv", "s%02d" % i, [out["combined"]])
            outs.append(out)
        return {"scenarios": outs}

    def check(self, out: dict) -> dict:
        outs = out["scenarios"]
        require(len(outs) == len(self.scenarios), "every scenario completed")
        for o in outs:
            check_chain(o, self.config["n_channels"], self.config["n_samples"])
        files = self.check_saved()
        self.missed = sum(o["missed"] for o in outs)
        summary = {"digest": digest(o["combined"].samples for o in outs) + ":" + files}
        for key in ("squeezing_residual_db", "antisqueezing_residual_db"):
            summary[key] = float(np.sqrt(np.mean([o[key] ** 2 for o in outs])))
        return summary

    def properties(self) -> dict:
        k = len(self.scenarios)
        comb = sum(g.mode_profile == "comb" for g, _, _, _ in self.scenarios)
        return {**super().properties(), "scenarios": k, "comb_share": comb / k, "tophat_share": 1 - comb / k,
                "miss_share": self.missed / k, "hit_share": 1 - self.missed / k}


WORKLOADS = {w.name: w for w in (Acquisition, DesignSweep)}
