"""The figure registry: every reproducible paper artifact, keyed by name.

``repro reproduce --figures ...``, the experiment service, and the docs all
resolve figure keys through this registry, so the set of reproducible
artifacts is defined in exactly one place.  Unknown keys raise
:class:`~repro.errors.UnknownFigureError` with a closest-match suggestion,
matching the configuration and workload registries.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.errors import UnknownFigureError
from repro.figures.spec import FigureSpec

__all__ = ["FIGURES", "register_figure", "figure_names", "get_figure", "resolve_figures"]

#: All registered specs in paper order (tables, figures, then the
#: section-level analyses and ablations).  Populated by
#: :mod:`repro.figures.paper` at import time.
FIGURES: Dict[str, FigureSpec] = {}


def register_figure(spec: FigureSpec, replace_existing: bool = False) -> FigureSpec:
    """Add ``spec`` to the registry (the paper's specs register on import)."""
    if spec.key in FIGURES and not replace_existing:
        raise ValueError(
            "figure %r is already registered; pass replace_existing=True to replace it"
            % spec.key
        )
    FIGURES[spec.key] = spec
    return spec


def figure_names() -> List[str]:
    """Registered figure keys, in paper order."""
    return list(FIGURES)


def get_figure(key: str) -> FigureSpec:
    """The spec registered under ``key`` (UnknownFigureError otherwise)."""
    try:
        return FIGURES[key]
    except KeyError:
        raise UnknownFigureError(key, FIGURES) from None


def resolve_figures(keys: Optional[Iterable[str]] = None) -> List[FigureSpec]:
    """The specs for ``keys`` (validating each), or every spec when None."""
    if keys is None:
        return list(FIGURES.values())
    return [get_figure(key) for key in keys]
