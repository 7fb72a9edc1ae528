"""Setuptools entry point.

A ``setup.py`` is kept (and ``[build-system]`` deliberately omitted from
``pyproject.toml``) so that ``pip install -e .`` works through the
legacy ``setup.py develop`` path on machines without the ``wheel``
package or network access.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "On-demand connection management for OpenSHMEM and OpenSHMEM+MPI "
        "— simulated reproduction of Chakraborty et al., IPDPS-W 2015"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.21"],
)
