"""Bundled example systems and JSON (de)serialization of system files.

System files are JSON documents of the form::

    {
      "label": "rauzy",
      "matrices": [[["p/q", ...] x3] x3, ...],
      "probabilities": ["p/q", ...],
      "conjugator": [["p/q", ...] x3]      # optional
    }

Unknown keys are rejected so schema drift shows up as an error instead of
silently changing results.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .linalg import Matrix3
from .semigroup import SystemSpec

_SYSTEM_KEYS = {"label", "matrices", "probabilities", "conjugator"}


def rauzy_alphabet() -> tuple[Matrix3, Matrix3, Matrix3]:
    """The three parabolic generators of the Rauzy gasket."""
    a1 = Matrix3.from_rows([[1, 1, 1], [0, 1, 0], [0, 0, 1]])
    a2 = Matrix3.from_rows([[1, 0, 0], [1, 1, 1], [0, 0, 1]])
    a3 = Matrix3.from_rows([[1, 0, 0], [0, 1, 0], [1, 1, 1]])
    return a1, a2, a3


def rauzy_system() -> SystemSpec:
    return SystemSpec.uniform("rauzy", rauzy_alphabet())


def triple9_system() -> SystemSpec:
    """Three identical copies of diag(9, 1, 1/9): analytically solvable."""
    d = Matrix3.diagonal(9, 1, Fraction(1, 9))
    return SystemSpec.uniform("triple9", (d, d, d))


def gamma_letter(i: int, j: int, n: int) -> Matrix3:
    """The subsystem letter ``A_i^n A_j`` (0-based ``i != j``), in closed form.

    Row ``i`` carries ``(.., n+1 at i, n at j, 2n at k ..)``, row ``j`` is all
    ones and row ``k`` is the unit row.
    """
    if i == j:
        raise ValueError("gamma letters need i != j")
    if n < 1:
        raise ValueError("gamma letters need n >= 1")
    k = 3 - i - j
    rows = [[0, 0, 0] for _ in range(3)]
    rows[i][i] = n + 1
    rows[i][j] = n
    rows[i][k] = 2 * n
    rows[j] = [1, 1, 1]
    rows[k][k] = 1
    return Matrix3.from_rows(rows)


def positivizing_conjugator(eps: Fraction = Fraction(1, 5)) -> Matrix3:
    """The symmetric conjugator with 1 on the diagonal and ``-eps`` off it."""
    e = Fraction(eps)
    return Matrix3.from_rows(
        [[1, -e, -e], [-e, 1, -e], [-e, -e, 1]]
    )


def rauzy_curve_derivatives() -> tuple[Matrix3, ...]:
    """Tangent matrices of the six one-parameter families ``A_i^x A_j`` at 0.

    Every entry of :func:`gamma_letter` is affine in ``n``, so each tangent
    is the exact difference of two consecutive letters.
    """
    return tuple(gamma_letter(i, j, 2) - gamma_letter(i, j, 1)
                 for i in range(3) for j in range(3) if i != j)


# ---------------------------------------------------------------------------
# JSON i/o

def system_to_dict(sys: SystemSpec) -> dict:
    doc = {
        "label": sys.label,
        "matrices": [a.to_strings() for a in sys.alphabet],
        "probabilities": [str(p) for p in sys.probabilities],
    }
    if sys.conjugator is not None:
        doc["conjugator"] = sys.conjugator.to_strings()
    return doc


def system_from_dict(doc: dict) -> SystemSpec:
    if not isinstance(doc, dict):
        raise ValueError("a system file holds one JSON object")
    unknown = set(doc) - _SYSTEM_KEYS
    if unknown:
        raise ValueError(f"unknown system fields: {sorted(unknown)}")
    for key in ("label", "matrices", "probabilities"):
        if key not in doc:
            raise ValueError(f"system file missing field {key!r}")
    try:
        alphabet = tuple(Matrix3.from_rows(m) for m in doc["matrices"])
        probs = tuple(Fraction(p) for p in doc["probabilities"])
        conj = Matrix3.from_rows(doc["conjugator"]) if "conjugator" in doc else None
    except (TypeError, OverflowError) as exc:  # a number or null entry or row; an infinity
        raise ValueError(f"malformed system file: {exc}") from None
    return SystemSpec(doc["label"], alphabet, probs, conj)


def save_system(sys: SystemSpec, path: str | Path) -> None:
    Path(path).write_text(json.dumps(system_to_dict(sys), indent=2) + "\n")


def load_system(path: str | Path) -> SystemSpec:
    """Load a system file; bare names fall back to the bundled catalogue."""
    p = Path(path)
    if p.exists():
        return system_from_dict(json.loads(p.read_text()))
    name = p.name.removesuffix(".json")
    bundled = {"rauzy": rauzy_system, "triple9": triple9_system}
    if name not in bundled:
        raise FileNotFoundError(f"no system file at {path} and no bundled system {name!r}")
    if p.parent != Path("."):
        raise FileNotFoundError(f"no system file at {path}; the bundled system {name!r} "
                                f"is found only by a name without a directory, "
                                f"such as {p.name!r}")
    return bundled[name]()
