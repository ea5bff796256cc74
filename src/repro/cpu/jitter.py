"""OS-jitter model for CPU timing.

Section IV reports a typical standard deviation of ~7.8 ns per primitive
runtime on System 3's CPU and cites Vicente & Matias' study of Linux OS
jitter to explain occasional faulty measurements where the test function
appears *faster* than the baseline.  Fig. 4a additionally shows that the
AMD part is visibly noisier than the Intel parts.

Jitter on a timed loop is mostly *proportional* to its duration (timer
interrupts and daemon wakeups steal a slice of whatever runs), with a small
additive component from timer resolution.  The model therefore draws, per
timed run:

* Gaussian noise with sigma = abs_sigma + rel_sigma x (per-op cost);
* extra relative variability when hyperthreading is active
  ("hyperthreading yields more variability in thread timing", §V-A2);
* rare positive spikes (daemon wakeups, interrupts), also duration-scaled.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class JitterModel:
    """Stochastic noise added to each run's measured per-op runtime.

    Attributes:
        rel_sigma: Relative std-dev (fraction of the per-op cost).
        abs_sigma_ns: Additive std-dev from timer granularity.
        ht_rel_sigma: Extra relative std-dev when SMT siblings share cores.
        spike_prob: Probability that a run is hit by an OS activity spike.
        spike_rel: Magnitude of a spike as a fraction of the per-op cost.
        spike_abs_ns: Additive floor of a spike's magnitude.
    """

    rel_sigma: float = 0.01
    abs_sigma_ns: float = 1.0
    ht_rel_sigma: float = 0.008
    spike_prob: float = 0.02
    spike_rel: float = 0.1
    spike_abs_ns: float = 2.0

    def sample_run_noise(self, rng: np.random.Generator, hyperthreaded: bool,
                         base_cost_ns: float) -> float:
        """Noise (ns, may be negative) on one run's per-op runtime.

        Args:
            rng: Noise stream for this run.
            hyperthreaded: Whether any core runs two of the threads.
            base_cost_ns: Deterministic per-op cost being perturbed.
        """
        rel = self.rel_sigma + (self.ht_rel_sigma if hyperthreaded else 0.0)
        sigma = self.abs_sigma_ns + rel * max(base_cost_ns, 0.0)
        noise = float(rng.normal(0.0, sigma))
        if rng.random() < self.spike_prob:
            noise += float(rng.exponential(
                self.spike_abs_ns + self.spike_rel * max(base_cost_ns, 0.0)))
        return noise

    def make_sampler(self, hyperthreaded: bool,
                     base_costs_ns: "tuple[float, float]"):
        """Compile the baseline/test noise pair for fixed base costs.

        The engine samples the same (hyperthreaded, base-cost pair)
        configuration ``n_runs x attempts`` times per sweep point; this
        returns a binder ``bind(rng) -> sample()`` that derives each
        body's sigma and spike scale once per bind.  Each ``sample()``
        call draws one attempt's ``(noise_b, noise_t)``, consuming the
        stream exactly as two sequential :meth:`sample_run_noise` calls
        would (normal, uniform, then a conditional exponential per body:
        the conditional spike draw forbids reordering).  The engine
        keeps the binder in its per-context point plan, the one memo of
        it.
        """
        return _PairSampler(self, hyperthreaded, *base_costs_ns)

    @property
    def is_silent(self) -> bool:
        """True when every sample is exactly zero (zero-jitter configs)."""
        return (self.rel_sigma == 0.0 and self.abs_sigma_ns == 0.0
                and self.ht_rel_sigma == 0.0 and self.spike_prob == 0.0)

    def storm(self, factor: float) -> "JitterModel":
        """A copy amplified for a daemon-wakeup storm.

        Used by the fault-injection layer (``jitter_storm`` on a
        :class:`repro.faults.scenario.FaultScenario`): spikes become both
        more frequent and larger, modelling sustained OS activity beyond
        the healthy machine's independent per-run spike term.  The
        Gaussian terms are left alone — a storm is bursty, not white.
        """
        return replace(
            self,
            spike_prob=min(self.spike_prob * factor, 0.9),
            spike_rel=self.spike_rel * factor,
            spike_abs_ns=self.spike_abs_ns * factor,
        )

    def scaled(self, factor: float) -> "JitterModel":
        """A copy with all magnitudes scaled (used by ablation benches)."""
        return replace(
            self,
            rel_sigma=self.rel_sigma * factor,
            abs_sigma_ns=self.abs_sigma_ns * factor,
            ht_rel_sigma=self.ht_rel_sigma * factor,
            spike_rel=self.spike_rel * factor,
            spike_abs_ns=self.spike_abs_ns * factor,
        )


class _PairSampler:
    """The binder :meth:`JitterModel.make_sampler` returns.

    Every engine point plan holds one, so it keeps only references to
    values the plan already holds, and derives the sigmas and spike
    scales when it binds (once per point or run), never per draw.
    """

    __slots__ = ("jitter", "hyperthreaded", "base_b", "base_t")

    def __init__(self, jitter: JitterModel, hyperthreaded: bool,
                 base_b: float, base_t: float) -> None:
        self.jitter = jitter
        self.hyperthreaded = hyperthreaded
        self.base_b = base_b
        self.base_t = base_t

    def __call__(self, rng: np.random.Generator):
        jitter = self.jitter
        rel = jitter.rel_sigma + \
            (jitter.ht_rel_sigma if self.hyperthreaded else 0.0)
        base_b = self.base_b if self.base_b > 0.0 else 0.0
        base_t = self.base_t if self.base_t > 0.0 else 0.0
        sigma_b = jitter.abs_sigma_ns + rel * base_b
        sigma_t = jitter.abs_sigma_ns + rel * base_t
        spike_prob = jitter.spike_prob
        spike_b = jitter.spike_abs_ns + jitter.spike_rel * base_b
        spike_t = jitter.spike_abs_ns + jitter.spike_rel * base_t
        # Bind the stream's methods once: the engine's pooled generator
        # is one object reseeded per run, so the bound methods stay
        # valid across a whole sweep point.
        normal = rng.normal
        uniform = rng.random
        exponential = rng.exponential

        def sample() -> tuple[float, float]:
            noise_b = float(normal(0.0, sigma_b))
            if uniform() < spike_prob:
                noise_b += float(exponential(spike_b))
            noise_t = float(normal(0.0, sigma_t))
            if uniform() < spike_prob:
                noise_t += float(exponential(spike_t))
            return noise_b, noise_t

        return sample
