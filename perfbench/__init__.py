"""End-to-end benchmark of the axisym command line (see perfbench/README.md)."""
