"""Command-line interface: subcommand entry point, run manifests, SVG charts.

The entry point is ``gridgap.cli.main``, left out of this package's imports
so that ``python -m gridgap.cli.main`` runs the module exactly once.
"""

from .manifest import MANIFEST_NAME, RunRecorder, sha256_file

__all__ = ["MANIFEST_NAME", "RunRecorder", "sha256_file"]
