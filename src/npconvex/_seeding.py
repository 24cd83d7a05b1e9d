"""Deterministic RNG derivation.

A single 64-bit master seed fans out to independent streams keyed by
(component name, trial index).  The component name is hashed with
sha256 so adding a new component never perturbs existing streams.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from .errors import check_count

_MASK = (1 << 63) - 1


def component_key(name: str) -> int:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & _MASK


def rng_for(seed: int, component: str, index: int = 0) -> np.random.Generator:
    """PCG64 generator for one (seed, component, index) triple; seed >= 0."""
    seed = int(check_count(seed, "seed", 0))
    ss = np.random.SeedSequence([seed & _MASK, component_key(component), int(index)])
    return np.random.default_rng(ss)


def worker_count() -> int:
    """Worker cap honouring the NP_THREADS environment variable."""
    raw = os.environ.get("NP_THREADS", "").strip()
    if raw:
        try:
            k = int(raw)
            if k >= 1:
                return k
        except ValueError:
            pass
    return os.cpu_count() or 1
