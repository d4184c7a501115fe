"""Setuptools entry point.

Kept alongside pyproject.toml so that editable installs work on environments
whose setuptools/pip cannot build PEP 660 editable wheels offline (no
``wheel`` package available).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.1.0",
    description=(
        "SecDDR reproduction: low-cost secure memories by protecting the DDR interface (DSN 2023)"
    ),
    author="SecDDR reproduction authors",
    license="MIT",
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy"],
    extras_require={
        "dev": ["pytest", "hypothesis", "networkx"],
    },
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ],
    },
)
