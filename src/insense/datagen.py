"""Synthetic sensing-matrix ensembles and CSV ingestion.

Generators are pure functions of their spec: the same spec always yields
a byte-identical matrix (PCG64 streams, see the seeding module).  The
file format is plain CSV, one row per sensor, no header; the reader also
tolerates a single leading comment line starting with '#'.
"""

import math

import numpy as np

from dataclasses import asdict, dataclass

from .exceptions import MatrixParseError
from .metrics import as_integer, as_sensing_matrix
from .seeding import seeded_rng

KINDS = ("gaussian", "uniform01", "bernoulli01", "identity-gaussian", "uniform-gaussian")


@dataclass
class EnsembleSpec:
    """One synthetic matrix: its distribution, shape, and seed.

    identity-gaussian stacks an n x n identity atop an n x n Gaussian
    block (d = 2n).  uniform-gaussian stacks `gaussian_rows` Gaussian rows
    atop uniform [0,1) rows.  signed switches bernoulli01 from {0,1} to
    {-1,1} draws, and no other kind takes it.  d, n, seed and gaussian_rows
    must be integers and signed a bool; anything else raises a ValueError.
    """

    kind: str
    d: int
    n: int
    seed: int = 0
    gaussian_rows: int = 10
    signed: bool = False

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        for name in ("d", "n", "seed", "gaussian_rows"):
            setattr(self, name, as_integer(getattr(self, name), name))
        if not isinstance(self.signed, bool):
            raise ValueError(f"signed must be true or false, got {self.signed!r}")
        if self.signed and self.kind != "bernoulli01":
            raise ValueError(f"signed applies only to bernoulli01, not {self.kind}")
        if self.d < 1 or self.n < 2:
            raise ValueError(f"need d >= 1 and n >= 2, got {self.d}x{self.n}")
        if self.kind == "identity-gaussian" and self.d != 2 * self.n:
            raise ValueError(f"identity-gaussian needs d = 2n, got d={self.d}, n={self.n}")
        if self.kind == "uniform-gaussian" and not 1 <= self.gaussian_rows < self.d:
            raise ValueError(
                f"uniform-gaussian needs 1 <= gaussian_rows < d, got {self.gaussian_rows}"
            )


def generate(spec):
    """Matrix for the ensemble; deterministic under the spec's seed."""
    rng = seeded_rng(spec.seed)
    d, n = spec.d, spec.n
    if spec.kind == "gaussian":
        return rng.standard_normal((d, n))
    if spec.kind == "uniform01":
        return rng.random((d, n))
    if spec.kind == "bernoulli01":
        bits = rng.integers(0, 2, size=(d, n)).astype(float)
        return 2.0 * bits - 1.0 if spec.signed else bits
    if spec.kind == "identity-gaussian":
        return np.vstack([np.eye(n), rng.standard_normal((n, n))])
    g = spec.gaussian_rows
    return np.vstack([rng.standard_normal((g, n)), rng.random((d - g, n))])


def block_layout(spec):
    """Half-open row ranges of the ensemble's structural blocks."""
    if spec.kind == "identity-gaussian":
        return {"identity": (0, spec.n), "gaussian": (spec.n, spec.d)}
    if spec.kind == "uniform-gaussian":
        return {"gaussian": (0, spec.gaussian_rows), "uniform": (spec.gaussian_rows, spec.d)}
    return {spec.kind: (0, spec.d)}


def manifest(spec):
    """JSON-ready record of the spec and its block boundaries."""
    return {"spec": asdict(spec), "blocks": {k: list(v) for k, v in block_layout(spec).items()}}


def save_matrix(path, phi, header=None):
    """Write `phi` as CSV with full double precision (%.17g round-trips).

    `header`, when given, becomes a single leading '#' comment line, so
    it must not contain a line break (load_matrix reads one such line).
    """
    phi = as_sensing_matrix(phi)
    if header and header.splitlines() != [header]:
        raise ValueError(f"header must be a single line, got {header!r}")
    with open(path, "w") as fh:
        if header:
            fh.write(f"# {header}\n")
        np.savetxt(fh, phi, delimiter=",", fmt="%.17g")


def load_matrix(path):
    """Dense matrix from a CSV file, one row per sensor.

    Skips one optional leading '#' line and blank lines, then parses
    comma-separated decimals.  Raises MatrixParseError naming the
    offending 0-based row and column for ragged, non-numeric or
    non-finite input (nan, inf, or a decimal past the float range).
    """
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    if lines and lines[0].lstrip().startswith("#"):
        lines = lines[1:]
    rows = []
    for line in lines:
        if not line.strip():
            continue
        r = len(rows)
        values = []
        for c, token in enumerate(line.split(",")):
            try:
                values.append(float(token))
            except ValueError:
                raise MatrixParseError(
                    f"non-numeric value {token.strip()!r} at row {r}, column {c}",
                    row=r,
                    col=c,
                ) from None
            if not math.isfinite(values[-1]):
                raise MatrixParseError(
                    f"non-finite value {token.strip()!r} at row {r}, column {c}", row=r, col=c
                )
        if rows and len(values) != len(rows[0]):
            raise MatrixParseError(
                f"ragged row {r}: {len(values)} values, expected {len(rows[0])}", row=r
            )
        rows.append(values)
    if not rows:
        raise MatrixParseError(f"no data rows in {path}")
    return as_sensing_matrix(np.asarray(rows))
