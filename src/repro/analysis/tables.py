"""Regeneration of the paper's Table 1 (and its boundary maps).

Table 1 lists the necessary-and-sufficient identifier conditions for
the four model combinations.  :func:`table1_text` renders the same
table from the predicates in :mod:`repro.analysis.bounds`;
:func:`boundary_map` renders, for a fixed ``(n, t)``, which ``ell`` are
solvable per model -- the numeric view the benchmarks validate run by
run.
"""

from __future__ import annotations

from repro.analysis.bounds import solvable
from repro.core.errors import ConfigurationError
from repro.core.params import Synchrony, SystemParams


def condition_strings() -> dict[tuple[str, str], str]:
    """The symbolic conditions exactly as Table 1 states them."""
    return {
        ("synchronous", "innumerate"): "ell > 3t",
        ("synchronous", "numerate"): "ell > 3t (ell > t for restricted Byzantine)",
        ("partially_synchronous", "innumerate"): "2*ell > n + 3t",
        ("partially_synchronous", "numerate"):
            "2*ell > n + 3t (ell > t for restricted Byzantine)",
    }


def table1_text() -> str:
    """Render Table 1 as fixed-width text."""
    conditions = condition_strings()
    col1 = "Synchronous"
    col2 = "Partially synchronous"
    rows = [
        ("Innumerate processes",
         conditions[("synchronous", "innumerate")],
         conditions[("partially_synchronous", "innumerate")]),
        ("Numerate processes",
         conditions[("synchronous", "numerate")],
         conditions[("partially_synchronous", "numerate")]),
    ]
    w0 = max(len(r[0]) for r in rows) + 2
    w1 = max(len(col1), max(len(r[1]) for r in rows)) + 2
    w2 = max(len(col2), max(len(r[2]) for r in rows)) + 2
    lines = [
        " " * w0 + col1.ljust(w1) + col2.ljust(w2),
        "-" * (w0 + w1 + w2),
    ]
    for name, sync_cond, psync_cond in rows:
        lines.append(name.ljust(w0) + sync_cond.ljust(w1) + psync_cond.ljust(w2))
    lines.append("-" * (w0 + w1 + w2))
    lines.append("In all cases, n must be greater than 3t.")
    return "\n".join(lines)


def boundary_map(n: int, t: int) -> str:
    """Per-``ell`` solvability grid for fixed ``(n, t)``, all four models.

    ``S`` marks solvable, ``.`` unsolvable; columns are ``ell = 1..n``.

    Raises:
        ConfigurationError: When ``n < 1`` or ``t < 0``.
    """
    if n < 1:
        raise ConfigurationError(f"n must be >= 1, got {n}")
    if t < 0:
        raise ConfigurationError(f"t must be >= 0, got {t}")
    models = [
        ("sync  unrestricted        ", Synchrony.SYNCHRONOUS, False, False),
        ("sync  restricted+numerate ", Synchrony.SYNCHRONOUS, True, True),
        ("psync unrestricted        ", Synchrony.PARTIALLY_SYNCHRONOUS, False, False),
        ("psync restricted+numerate ", Synchrony.PARTIALLY_SYNCHRONOUS, True, True),
    ]
    header = "ell:              " + " ".join(f"{ell:2d}" for ell in range(1, n + 1))
    lines = [f"n={n}, t={t}", header]
    for label, synchrony, numerate, restricted in models:
        marks = []
        for ell in range(1, n + 1):
            params = SystemParams(
                n=n, ell=ell, t=t,
                synchrony=synchrony, numerate=numerate, restricted=restricted,
            )
            marks.append(" S" if solvable(params) else " .")
        lines.append(label + "".join(marks))
    return "\n".join(lines)
