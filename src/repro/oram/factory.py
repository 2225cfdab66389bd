"""Build any baseline by name: thin wrappers that make a stack recipe.

Every scheme is built by :func:`repro.core.recipe.build` from a
:class:`~repro.core.recipe.StackRecipe`, which sizes its hierarchy; the
functions here only map the historical keyword surfaces onto a recipe
(``memory_blocks`` is the recipe's ``mem_blocks``, devices go by
``storage_device`` / ``memory_device``).
"""

from __future__ import annotations

from repro.core.recipe import CLASSIC_BASELINES, build, recipe_from_kwargs

#: Baseline protocols by short name.
BASELINES = CLASSIC_BASELINES

#: Classic schemes that ignore the memory budget (every other baseline
#: needs one).
_NO_MEMORY = ("plain",)


def baseline_names() -> list[str]:
    """The valid :func:`build_baseline` names, sorted."""
    return sorted(BASELINES)


def build_baseline(
    name: str,
    n_blocks: int,
    memory_blocks: int | None = None,
    **kwargs,
):
    """Build any baseline by name with one normalized signature.

    The classic scheme in ``_NO_MEMORY`` accepts and ignores
    ``memory_blocks`` so callers can sweep one geometry across every
    scheme; the others need it.
    """
    if name not in BASELINES:
        raise ValueError(
            f"unknown baseline {name!r} (valid: {', '.join(baseline_names())})"
        )
    if memory_blocks is None and name not in _NO_MEMORY:
        raise ValueError(f"{name} baseline needs memory_blocks")
    return build(recipe_from_kwargs(name, n_blocks, memory_blocks, **kwargs))


def build_path_oram(n_blocks: int, memory_blocks: int, **kwargs):
    """The tree-top-cached baseline on its own hierarchy."""
    return build_baseline("path", n_blocks, memory_blocks, **kwargs)


def build_plain(n_blocks: int, **kwargs):
    """The unprotected baseline (encrypted, pattern-leaking)."""
    return build_baseline("plain", n_blocks, **kwargs)
