"""Setuptools entry point.

The pyproject.toml metadata is authoritative; this file exists so that
``pip install -e .`` works in offline environments whose setuptools lacks the
PEP 660 editable-wheel path (no ``wheel`` package available).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Focal-plane compressive sampling from time-encoded pixels "
        "(reproduction of Trevisi et al., DATE 2018)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy"],
)
