"""Deletion-ball sizes of q-ary words: exact computation and sharp bounds.

Every public name is exported here but loaded lazily: the first access to
``delball.<name>`` (or ``from delball import <name>``) imports the one
submodule that defines it, so ``import delball`` and the command line load
only the modules they use.  The submodules that define them resolve the
same way, as ``delball.bounds`` and so on.  ``delball.cli`` resolves its
layer entry points through this table too.

``COLUMN_ORDER`` and ``BOUND_COLUMNS`` (all but ``exact``) are defined
here rather than in ``bounds``, whose reports they order, so that the
command line's help can name the columns without loading ``bounds``.
"""

BOUND_COLUMNS = (
    "lev_lower",
    "lev_upper",
    "hr_lower",
    "hr_upper",
    "ch_upper",
    "new_lower",
    "new_upper",
)
COLUMN_ORDER = ("exact", *BOUND_COLUMNS)

_EXPORTS = {
    name: module
    for module, names in (
        (
            "balanced",
            "BalancedBallCalculator StepProfile ball_closed ball_recursive composition_count "
            "enumerate_step_profiles sequence_count step_alphabet",
        ),
        ("bounds", "BoundReport calabi_hartnett_max report_for_word sweep_reports"),
        ("exact", "ball_size ball_size_all"),
        ("oracles", "EnumerationBudgetError canonical_ball_size enumerate_ball"),
        (
            "ops",
            "ChainStep apply_permutation balance_step balancing_chain cyclicize insert_symbol "
            "reduce_to_binary",
        ),
        (
            "words",
            "RunProfile Word balanced_tail_word balanced_word canonical_profile canonical_word "
            "cyclic_word encode_runs parse_run_profile parse_word",
        ),
    )
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    """Import the submodule that defines ``name`` (or is named ``name``) and return it.

    ``__import__`` is the import statement's own path, so ``-X importtime``
    lists the submodule, which it does not for ``importlib.import_module``.
    """
    module = _EXPORTS.get(name)
    if module is None and name not in _EXPORTS.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    submodule = __import__(f"{__name__}.{module or name}", fromlist=[name])
    if module is None:
        return submodule  # bound on the package by the import
    value = getattr(submodule, name)
    globals()[name] = value
    return value
