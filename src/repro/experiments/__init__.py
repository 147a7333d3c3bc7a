"""Experiment runners: one per figure/section of the paper.

==============  ==========================================================
Paper item      Runner
==============  ==========================================================
Figure 3        :func:`repro.experiments.fig3.run_fig3`
Figure 4        :func:`repro.experiments.fig4.run_fig4`
Figure 5        :func:`repro.experiments.fig5.run_fig5`
Figure 6        :func:`repro.experiments.dataset_a.run_fig6`
Figure 7        :func:`repro.experiments.dataset_a.run_fig7`
Figure 8        :func:`repro.experiments.dataset_a.run_fig8`
Figure 9        :func:`repro.experiments.fig9.run_fig9`
Section 3       :func:`repro.experiments.caching.run_caching_experiment`
Section 2 Eq.1  :func:`repro.experiments.validation.run_validation`
Section 6       :func:`repro.experiments.interactive.run_interactive`
Ablations       :mod:`repro.experiments.ablation`
==============  ==========================================================
"""

from repro.experiments.ablation import (
    run_cache_ablation,
    run_idle_reset_ablation,
    run_loss_ablation,
    run_placement_ablation,
    run_split_tcp_ablation,
)
from repro.experiments.cache_lab import run_cache_lab
from repro.experiments.caching import run_caching_experiment
from repro.experiments.common import ExperimentScale
from repro.experiments.dataset_a import (
    run_dataset_a_experiment,
    run_fig6,
    run_fig7,
    run_fig8,
)
from repro.experiments.fig3 import run_fig3
from repro.experiments.keyword_effects import run_keyword_effects
from repro.experiments.residential import run_residential
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig9 import run_fig9
from repro.experiments.interactive import run_interactive
from repro.experiments.validation import run_validation

__all__ = [
    "ExperimentScale",
    "run_cache_ablation",
    "run_cache_lab",
    "run_caching_experiment",
    "run_dataset_a_experiment",
    "run_fig3",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "run_idle_reset_ablation",
    "run_interactive",
    "run_keyword_effects",
    "run_loss_ablation",
    "run_placement_ablation",
    "run_residential",
    "run_split_tcp_ablation",
    "run_validation",
]
