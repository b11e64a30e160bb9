"""Setuptools metadata for source and editable installs.

The execution environment is fully offline and has no ``wheel``/PEP 517
toolchain, so all metadata lives here (no pyproject.toml) and the legacy
``setup.py``-driven paths — ``pip install -e .`` where supported, or
plain ``PYTHONPATH=src`` — are the supported ways to use the library.
"""

from setuptools import find_packages, setup

setup(
    name="repro-hvac",
    version="1.1.0",
    description=(
        "Reproduction of 'Deep Reinforcement Learning for Building HVAC "
        "Control' (DAC 2017): simulator, DQN stack, SoA fleet engine, "
        "experiment store, serving tier, telemetry, and workload replay"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
    entry_points={"console_scripts": ["repro-hvac=repro.cli:main"]},
)
