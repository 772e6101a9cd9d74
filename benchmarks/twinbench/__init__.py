"""twinbench — the repository's end-to-end + per-layer benchmark (see README.md)."""
