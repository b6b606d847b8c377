"""Setup shim.

``pip install -e .`` works where pip can fetch its build tools, as CI
does.  Offline, with no ``wheel`` package, it fails (``invalid command
'bdist_wheel'``), with or without ``--no-build-isolation``; there,
``python setup.py develop`` installs the package, or
``export PYTHONPATH=src`` does without an install.
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
