"""Exact solver and verification lab for doubly reflected backward equations
with predictable barriers on finite filtered probability spaces."""
