"""The benchmark's one door into ``qpasim``.

Every call the benchmark makes into the package goes through this file, so a
later rename of the package's API touches one benchmark file.  Each call into
a layer's public function is timed and counted here, from outside the
package; with tracing on, it also leaves a span.  Constructors of plain
input records (geometry, beam, ramp, ...) are re-exported untimed.

Sign convention: an RF phase ``phi`` of ``ChannelSettings`` acts on a sample
stream as the LO offset ``-phi``; with that sign the sampled chain and the
covariance chain agree for a single channel (checked in ``selfcheck.py``).
"""

from __future__ import annotations

import resource
import time
from contextlib import contextmanager

import numpy as np

from qpasim import aperture, gaussian, receiver

ApertureGeometry = aperture.ApertureGeometry
BeamSpec = aperture.BeamSpec
ReceiverModel = receiver.ReceiverModel
PhaseRamp = receiver.PhaseRamp
MeasurementRecord = receiver.MeasurementRecord
CouplingVector = aperture.CouplingVector
electronic_noise_variance = receiver.electronic_noise_variance
quadrature_variance = gaussian.quadrature_variance

# layer name -> the work counters it reports besides calls, failed and busy_s
LAYERS = {
    "aperture.coupling_vector": ("strips", "missed"),
    "aperture.matched_settings": (),
    "aperture.geometric_efficiency": (),
    "receiver.channel_effective_efficiency": (),
    "gaussian.state_build": (),
    "gaussian.apply_linear_network": (),
    "gaussian.apply_loss": (),
    "receiver.combine_rf.state": (),
    "receiver.sample_pixel_streams": ("samples", "bytes", "rss_hw_before_mb", "rss_hw_after_mb"),
    "receiver.combine_rf.records": ("samples",),
    "receiver.write_records_binary": ("bytes",),
    "receiver.write_records_csv": ("rows", "bytes"),
    "bench.estimate": ("samples",),
}


def rss_high_water_mb() -> float:
    """High-water resident set of this process in MB (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _all_finite(*arrays) -> bool:
    return all(bool(np.isfinite(a).all()) for a in arrays)


class Probe:
    """Timers, counters and (optionally) spans around the calls into qpasim.

    A span is ``(id, name, start, end, parent id, workload, request)``, where
    the request is ``"<iteration>/<unit>"``; spans stay in memory until the
    run ends.  ``stats`` and ``units`` hold the current iteration's figures.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.tracing = False
        self.iteration = 0
        self.spans: list[tuple] = []
        self._open: list[int] = []
        self._unit = ""
        self._first_sample_rss = None
        self.reset()

    def reset(self) -> None:
        self.stats = {
            name: dict({"calls": 0, "failed": 0, "busy_s": 0.0}, **{k: 0 for k in extra})
            for name, extra in LAYERS.items()
        }
        self.units: dict[str, dict] = {}

    def totals(self) -> tuple[int, int]:
        calls = sum(s["calls"] for s in self.stats.values())
        return calls, sum(s["failed"] for s in self.stats.values())

    def _write_work(self) -> dict:
        csv, binary = self.stats["receiver.write_records_csv"], self.stats["receiver.write_records_binary"]
        return {"csv_s": csv["busy_s"], "csv_rows": csv["rows"], "binary_s": binary["busy_s"],
                "binary_bytes": binary["bytes"]}

    @contextmanager
    def span(self, name: str, unit: str | None = None):
        """A benchmark step; layer calls made inside it nest under it.

        With ``unit``, the step is also a unit of measurement: its duration and
        the file writes inside it are kept under that key for this iteration,
        so that a run can be summarised unit by unit.
        """
        if unit is not None:
            self._unit = unit
            before = self._write_work()
        sid = None
        if self.tracing:
            sid, parent = len(self.spans), (self._open[-1] if self._open else None)
            self.spans.append(None)
            self._open.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            if sid is not None:
                self._open.pop()
                self.spans[sid] = (sid, name, t0, t1, parent, self.workload, "%d/%s" % (self.iteration, self._unit))
            if unit is not None:
                after = self._write_work()
                self.units[unit] = dict({k: after[k] - before[k] for k in after}, wall_s=t1 - t0)

    def _call(self, name, fn, *args, finite=None, **kwargs):
        st = self.stats[name]
        st["calls"] += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            st["failed"] += 1
            raise
        finally:
            t1 = time.perf_counter()
            st["busy_s"] += t1 - t0
            if self.tracing:
                parent = self._open[-1] if self._open else None
                self.spans.append((len(self.spans), name, t0, t1, parent, self.workload,
                                   "%d/%s" % (self.iteration, self._unit)))
        if finite is not None and not _all_finite(*finite(out)):
            st["failed"] += 1
            raise FloatingPointError("%s returned non-finite output" % name)
        return out

    # -- aperture ---------------------------------------------------------

    def coupling_vector(self, geometry, beam):
        cv = self._call("aperture.coupling_vector", aperture.coupling_vector, geometry, beam,
                        finite=lambda out: (out.c,))
        st = self.stats["aperture.coupling_vector"]
        if np.any(cv.c):
            st["strips"] += geometry.n_antennas * len(geometry.mode_segments(0.0))
        else:
            st["missed"] += 1
        return cv

    def matched_settings(self, cv, geometry):
        return self._call("aperture.matched_settings", aperture.matched_settings, cv, geometry,
                          finite=lambda out: (out.gains, out.phases))

    def geometric_efficiency(self, cv, settings, geometry):
        return self._call("aperture.geometric_efficiency", aperture.geometric_efficiency,
                          cv, settings, geometry, finite=lambda out: (out,))

    # -- gaussian ---------------------------------------------------------

    def state_build(self, r: float, n_modes: int):
        """``squeezed_vacuum(r)`` on mode 0 and vacuum on the rest, as one state."""

        def build():
            sq = gaussian.squeezed_vacuum(gaussian.SqueezedVacuumSpec(r=r))
            cov = gaussian.VACUUM_VARIANCE * np.eye(2 * n_modes)
            cov[:2, :2] = sq.cov
            return gaussian.GaussianState(mean=np.zeros(2 * n_modes), cov=cov)

        return self._call("gaussian.state_build", build, finite=lambda out: (out.cov,))

    def apply_linear_network(self, state, matrix):
        return self._call("gaussian.apply_linear_network", gaussian.apply_linear_network,
                          state, matrix, finite=lambda out: (out.cov,))

    def apply_loss(self, state, mode: int, eta: float):
        return self._call("gaussian.apply_loss", gaussian.apply_loss, state, mode, eta,
                          finite=lambda out: (out.cov,))

    # -- receiver ---------------------------------------------------------

    def channel_effective_efficiency(self, c_j, model):
        return self._call("receiver.channel_effective_efficiency", receiver.channel_effective_efficiency,
                          c_j, model, finite=lambda out: (out,))

    def combine_state(self, state, settings):
        return self._call("receiver.combine_rf.state", receiver.combine_rf, state, settings,
                          finite=lambda out: (out.cov,))

    def sample_pixel_streams(self, couplings, r, ramp, n_samples, master_seed, settings, snc_db):
        st = self.stats["receiver.sample_pixel_streams"]
        before = rss_high_water_mb()
        records = self._call("receiver.sample_pixel_streams", receiver.sample_pixel_streams,
                             couplings, r, ramp, n_samples, master_seed,
                             lo_phases=-settings.phases, snc_db=snc_db,
                             finite=lambda out: [rec.samples for rec in out])
        if self._first_sample_rss is None:
            self._first_sample_rss = (before, rss_high_water_mb())
        # the high-water mark around the process's first call, where it can still move
        st["rss_hw_before_mb"], st["rss_hw_after_mb"] = self._first_sample_rss
        st["samples"] += sum(rec.samples.size for rec in records)
        st["bytes"] += sum(rec.samples.nbytes for rec in records)
        return records

    def combine_records(self, records, settings):
        out = self._call("receiver.combine_rf.records", receiver.combine_rf, records, settings,
                         finite=lambda out: (out.samples,))
        self.stats["receiver.combine_rf.records"]["samples"] += sum(rec.samples.size for rec in records)
        return out

    def write_records_binary(self, records, path) -> int:
        def write():
            with open(path, "wb") as fh:
                receiver.write_records_binary(records, fh)
                return fh.tell()

        nbytes = self._call("receiver.write_records_binary", write)
        self.stats["receiver.write_records_binary"]["bytes"] += nbytes
        return nbytes

    def write_records_csv(self, records, path) -> int:
        def write():
            with open(path, "w", newline="") as fh:
                receiver.write_records_csv(records, fh)
                return fh.tell()

        nbytes = self._call("receiver.write_records_csv", write)
        st = self.stats["receiver.write_records_csv"]
        st["rows"] += sum(rec.samples.size for rec in records)
        st["bytes"] += nbytes
        return nbytes

    # -- the benchmark's own estimator, timed so it is never charged to a layer

    def estimate(self, fit, samples, theta):
        out = self._call("bench.estimate", fit, samples, theta, finite=lambda out: (out.v_min, out.v_max))
        self.stats["bench.estimate"]["samples"] += samples.size
        return out
