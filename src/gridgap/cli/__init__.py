"""Command-line interface: subcommand entry point, run manifests, SVG charts.

The entry point is ``gridgap.cli.main.main``, which ``python -m gridgap`` and
the ``gridgap`` console script run.
"""

from .manifest import MANIFEST_NAME, RunRecorder, sha256_file

__all__ = ["MANIFEST_NAME", "RunRecorder", "sha256_file"]
