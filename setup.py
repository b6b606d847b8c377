"""Setup shim.

The sandbox this repository is developed in has no network access and no
``wheel`` package, so PEP 517 editable installs (which need
``bdist_wheel``) fail.  Keeping a classic ``setup.py`` lets
``pip install -e . --no-build-isolation`` take the legacy
``setup.py develop`` path, which works offline.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Compositional memory systems for multimedia communicating tasks "
        "(DATE 2005) - full reproduction"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy>=1.24", "scipy>=1.10"],
)
