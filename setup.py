"""Setup shim for environments without the `wheel` package.

`pip install -e .` needs wheel for PEP-517 editable installs; this shim
lets `python setup.py develop` work offline as a fallback.  The package
lives under `src/`; numpy is required (workload generation and the
turbo backend draw on it).
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
