"""Process variation and Monte-Carlo sampling.

Section 2.2: "IC circuit designers have to examine the performance of
this system taking IC process variations into account."  This module
provides the machinery: lognormal perturbation of the process file's
electrical densities (run-to-run variation), generation of varied device
models for a shape, and mismatch sampling for the behavioral imbalance
parameters that Fig. 5 sweeps deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..devices.parameters import GummelPoonParameters
from ..errors import GeometryError
from .design_rules import MaskDesignRules
from .generator import ModelParameterGenerator
from .process import ProcessData
from .shape import TransistorShape


@dataclass(frozen=True)
class ProcessVariation:
    """1-sigma relative spreads of the process electrical parameters.

    Defaults are typical for a mid-90s bipolar line: implant-dose-driven
    quantities (sheet resistances, saturation currents) vary more than
    oxide/junction capacitances.
    """

    sigma_js: float = 0.12  #: saturation-current densities
    sigma_jb: float = 0.10  #: base-current densities (beta spread)
    sigma_sheet: float = 0.08  #: sheet resistances
    sigma_contact: float = 0.15  #: contact resistivities
    sigma_cap: float = 0.05  #: junction capacitance densities
    sigma_tf: float = 0.06  #: transit time

    #: field name -> which sigma applies
    FIELD_SIGMAS = {
        "js_area": "sigma_js", "js_perimeter": "sigma_js",
        "jse_perimeter": "sigma_js", "jsc_perimeter": "sigma_js",
        "jkf": "sigma_js", "jtf": "sigma_js",
        "jb_area": "sigma_jb", "jb_perimeter": "sigma_jb",
        "rsb_intrinsic": "sigma_sheet", "rsb_extrinsic": "sigma_sheet",
        "rsc_buried": "sigma_sheet",
        "rb_contact": "sigma_contact", "re_contact": "sigma_contact",
        "rc_epi": "sigma_contact", "rc_sinker": "sigma_contact",
        "cje_area": "sigma_cap", "cje_perimeter": "sigma_cap",
        "cjc_area": "sigma_cap", "cjc_perimeter": "sigma_cap",
        "cjs_area": "sigma_cap", "cjs_perimeter": "sigma_cap",
        "tf": "sigma_tf",
    }

    def sample_process(self, nominal: ProcessData,
                       rng: np.random.Generator) -> ProcessData:
        """One process realization: lognormal multiplicative spread."""
        changes = {}
        for field_name, sigma_name in self.FIELD_SIGMAS.items():
            sigma = getattr(self, sigma_name)
            if sigma <= 0:
                continue
            factor = float(rng.lognormal(mean=0.0, sigma=sigma))
            changes[field_name] = getattr(nominal, field_name) * factor
        return replace(nominal, **changes)


@dataclass(frozen=True)
class MismatchSpec:
    """1-sigma mismatch of the Fig. 4 tuner's matching-critical knobs."""

    phase_error_sigma_deg: float = 1.5  #: per 90-degree shifter
    gain_error_sigma: float = 0.02  #: fractional path gain


@dataclass
class MonteCarloModels:
    """Varied Gummel-Poon models for one shape across process samples.

    Under a fault-tolerant run (``on_error="skip"``/``"retry"``),
    ``models`` holds only the successfully generated samples and
    ``failures`` the :class:`~repro.sweep.FailedPoint` records of the
    rest — spread statistics are then over the surviving population.
    """

    shape: TransistorShape
    models: list[GummelPoonParameters]
    failures: list = field(default_factory=list)

    def parameter_values(self, name: str) -> np.ndarray:
        return np.array([getattr(m, name) for m in self.models])

    def spread(self, name: str) -> float:
        """Relative standard deviation of a parameter over the samples."""
        values = self.parameter_values(name)
        mean = float(np.mean(values))
        if mean == 0:
            return 0.0
        return float(np.std(values) / abs(mean))


def _mc_model_point(
    params: dict,
    rng: np.random.Generator | None = None,
    *,
    shape: TransistorShape,
    variation: ProcessVariation,
    nominal: ProcessData,
    rules: MaskDesignRules,
) -> GummelPoonParameters:
    """One process realization -> generated model (module-level so it
    pickles for the process-pool executor)."""
    process = variation.sample_process(nominal, rng)
    generator = ModelParameterGenerator(process, rules)
    return generator.generate(shape)


def monte_carlo_models(
    shape: TransistorShape | str,
    samples: int,
    variation: ProcessVariation | None = None,
    nominal: ProcessData | None = None,
    rules: MaskDesignRules | None = None,
    seed: int | np.random.SeedSequence = 1996,
    executor=None,
    jobs: int | None = None,
    cache=None,
    on_error: str = "raise",
) -> MonteCarloModels:
    """Generate ``samples`` varied device models for a shape.

    Each sample is a fresh process realization pushed through the
    geometry generator (uncalibrated: the variation represents the fab,
    not the measurement).

    ``seed`` (an int or a :class:`numpy.random.SeedSequence`) pins the
    sample stream: sample ``i`` draws from its own
    ``SeedSequence(seed).spawn()`` child, so the population is a
    function of ``(seed, i)`` alone.  Parallel execution — any
    ``executor``/``jobs`` combination (see
    :func:`repro.sweep.run_sweep`) — therefore preserves the sample
    stream and returns bit-identical populations.
    """
    if samples < 1:
        raise GeometryError("need at least one Monte-Carlo sample")
    if isinstance(shape, str):
        shape = TransistorShape.from_name(shape)
    variation = variation or ProcessVariation()
    nominal = nominal or ProcessData()
    rules = rules or MaskDesignRules()

    import functools

    from ..sweep import MonteCarloSampler, run_sweep

    result = run_sweep(
        functools.partial(
            _mc_model_point, shape=shape, variation=variation,
            nominal=nominal, rules=rules,
        ),
        MonteCarloSampler(samples, seed=seed),
        executor=executor,
        jobs=jobs,
        cache=cache,
        on_error=on_error,
    )
    failed = set(result.failed_indices())
    return MonteCarloModels(
        shape=shape,
        models=[m for i, m in enumerate(result.values) if i not in failed],
        failures=list(result.failures),
    )


@dataclass(frozen=True)
class YieldReport:
    """Pass fraction of a Monte-Carlo population against a spec.

    ``failures`` holds the :class:`~repro.sweep.FailedPoint` records of
    samples that could not be evaluated at all (fault-tolerant runs);
    they count against the yield — an unevaluable sample is not a pass.
    """

    samples: int
    passed: int
    values: tuple[float, ...]
    failures: tuple = ()

    @property
    def yield_fraction(self) -> float:
        return self.passed / self.samples if self.samples else 0.0

    def percentile(self, q: float) -> float:
        return float(np.percentile(self.values, q))

    @property
    def mean(self) -> float:
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        return float(np.std(self.values))


def _mc_irr_point(
    params: dict,
    rng: np.random.Generator | None = None,
    *,
    mismatch: MismatchSpec,
) -> float:
    """One mismatch draw -> closed-form IRR (module-level so it pickles
    for the process-pool executor)."""
    from ..rfsystems.image_rejection import image_rejection_ratio_db

    phase = (rng.normal(0.0, mismatch.phase_error_sigma_deg)
             + rng.normal(0.0, mismatch.phase_error_sigma_deg))
    gain = rng.normal(0.0, mismatch.gain_error_sigma)
    return image_rejection_ratio_db(phase, gain)


def monte_carlo_image_rejection(
    samples: int,
    mismatch: MismatchSpec | None = None,
    irr_spec_db: float = 30.0,
    seed: int | np.random.SeedSequence = 1996,
    executor=None,
    jobs: int | None = None,
    cache=None,
    on_error: str = "raise",
) -> YieldReport:
    """Monte-Carlo yield of the Fig. 4 mixer against an IRR spec.

    Draws the two shifters' phase errors and the path gain error from
    the mismatch distribution and evaluates the closed-form IRR — the
    statistical version of the paper's Fig. 5 read-off.

    Seeding is per-sample: sample ``i`` draws from the ``i``-th child of
    ``SeedSequence(seed)``, so the stream depends only on ``(seed, i)``
    and parallel runs (``executor``/``jobs``, see
    :func:`repro.sweep.run_sweep`) are bit-identical to serial ones.
    """
    if samples < 1:
        raise GeometryError("need at least one Monte-Carlo sample")
    mismatch = mismatch or MismatchSpec()

    import functools

    from ..sweep import MonteCarloSampler, run_sweep

    result = run_sweep(
        functools.partial(_mc_irr_point, mismatch=mismatch),
        MonteCarloSampler(samples, seed=seed),
        executor=executor,
        jobs=jobs,
        cache=cache,
        on_error=on_error,
    )
    values = [float(v) for v in result.values if v is not None]
    passed = sum(1 for v in values if v >= irr_spec_db)
    return YieldReport(samples=samples, passed=passed,
                       values=tuple(values),
                       failures=tuple(result.failures))
