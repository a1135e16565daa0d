"""Setup script for the ``repro`` package.

A classic setup.py (rather than PEP 517/660 metadata) is used on purpose:
the reproduction environment is fully offline and has no ``wheel`` package,
so the legacy ``pip install -e .`` code path is the one that works
everywhere.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description=(
        "Multidimensional ontological contexts in Datalog+/- for data quality "
        "assessment (reproduction of Milani, Bertossi & Ariyan, 2014)"
    ),
    author="Reproduction Authors",
    license="MIT",
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=[],
    extras_require={
        "test": ["pytest", "hypothesis", "pytest-benchmark"],
    },
)
