"""Package metadata for ``repro``.

PEP 660 editable installs (``pip install -e .``) need the ``wheel``
package; where it is missing, ``python setup.py develop`` registers
the package instead.  NumPy is the one runtime dependency: the
flat-snapshot timing, pricing and power kernels are vectorized with it.
The version is read from ``src/repro/__init__.py``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'__version__ = "([^"]+)"', INIT.read_text()).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy>=1.24"],
)
