"""Setup shim for environments without the `wheel` package.

`pip install -e .` needs wheel for PEP-517 editable installs; this shim
lets `python setup.py develop` work offline as a fallback.  The package
lives under `src/`; numpy is required (workload generation and the
turbo backend draw on it).  The default native backend needs a C
compiler and the interpreter's headers at first use.
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
    # the native backend compiles its C drain from the installed source
    package_data={"repro.sim.native": ["*.c"]},
    install_requires=["numpy"],
)
