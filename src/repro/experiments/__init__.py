"""Experiment readers regenerating the paper's figures and statistics.

The simulated grids are scenario groups of
:mod:`repro.scenarios.presets`; the modules here read their results.
One module per evaluation artefact: :mod:`~repro.experiments.fig7`
(dissemination performance), :mod:`~repro.experiments.fig8`
(computational cost), :mod:`~repro.experiments.textstats` (in-text
statistics TXT1-TXT4), :mod:`~repro.experiments.ablations` (design-
choice isolation).  :mod:`~repro.experiments.scale` selects workload
sizes via the ``LTNC_SCALE`` environment variable.
"""
