"""Package metadata for the NegotiaToR (SIGCOMM 2024) reproduction.

Kept as a plain setup.py (no [build-system] table) so pip falls back to the
legacy, non-isolated build path and `pip install -e .` works offline.
"""

from setuptools import find_packages, setup

setup(
    name="negotiator-repro",
    version="0.2.0",
    description=(
        "Reproduction of 'NegotiaToR: Towards A Simple Yet Effective "
        "On-demand Reconfigurable Datacenter Network'"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={
        # The tier-1 suite needs only pytest + hypothesis.
        "test": ["pytest", "hypothesis"],
    },
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
