"""Directional rotary position embedding: kernels, attention engines,
complexity ledgers, and a toy trajectory-generation pipeline."""
