"""Packaging for the H-ORAM reproduction (src layout; numpy is its one runtime dependency)."""

from pathlib import Path

from setuptools import find_packages, setup

_here = Path(__file__).resolve().parent
_readme = _here / "README.md"

setup(
    name="horam-repro",
    version="0.3.0",
    description=(
        "Reproduction of H-ORAM: A Cacheable ORAM Interface for Efficient "
        "I/O Accesses (DAC 2019)"
    ),
    long_description=_readme.read_text(encoding="utf-8") if _readme.exists() else "",
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={
        "console_scripts": [
            "horam-bench=repro.bench.runner:main",
        ],
    },
    extras_require={
        "test": ["pytest", "hypothesis", "pytest-cov"],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Security :: Cryptography",
        "Topic :: Scientific/Engineering",
    ],
)
