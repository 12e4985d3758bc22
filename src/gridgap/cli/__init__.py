"""Command-line interface: subcommand entry point, run manifests, SVG charts."""

from .main import EXIT_ERROR, EXIT_GAPS, EXIT_NO_MODEL, EXIT_OK, build_parser, main
from .manifest import MANIFEST_NAME, RunRecorder, sha256_file

__all__ = [
    "EXIT_ERROR",
    "EXIT_GAPS",
    "EXIT_NO_MODEL",
    "EXIT_OK",
    "MANIFEST_NAME",
    "RunRecorder",
    "build_parser",
    "main",
    "sha256_file",
]
