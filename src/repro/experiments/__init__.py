"""The paper's evaluation: one runner per artifact and the claims it
checks.

``python -m repro.experiments.run <artifact>|all [--scale smoke|paper]``
regenerates each table and figure (:mod:`repro.experiments.artifacts`)
and checks its claims.  Scale knobs live in
:class:`repro.experiments.config.ExperimentConfig`.
"""
