"""Measurement and trace utilities for the evaluation harness."""
