"""Package metadata and install script.

``pip install -e .`` installs the ``repro`` package from ``src/``.  NumPy
is the only import-time dependency; SciPy is loaded only by the functions
that call it, so it is the ``scipy`` extra (``pip install -e .[scipy]``).
On an offline machine without the ``wheel`` package, which pip's editable
builds need, ``python setup.py develop --no-deps`` installs the same link.
The version is read from ``src/repro/__init__.py``, its one home.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(),
                     re.MULTILINE).group(1)

setup(
    name="repro",
    version=_VERSION,
    description=("Statistical library characterization using belief "
                 "propagation across multiple technology nodes"),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={"scipy": ["scipy"]},
)
