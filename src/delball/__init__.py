"""Deletion-ball sizes of q-ary words: exact computation and sharp bounds.

Every public name is exported here but loaded lazily: the first access to
``delball.<name>`` (or ``from delball import <name>``) imports the one
submodule that defines it, so ``import delball`` and the command line load
only the modules they use.  The submodules that define them resolve the
same way, as ``delball.bounds`` and so on.
"""

_EXPORTS = {
    name: module
    for module, names in (
        (
            "balanced",
            "BalancedBallCalculator StepProfile ball_closed ball_recursive composition_count "
            "enumerate_step_profiles restricted_sequence_count sequence_count step_alphabet "
            "tail_ball_closed tail_ball_recursive",
        ),
        ("binomials", "binomial"),
        (
            "bounds",
            "BoundReport balanced_upper_bound calabi_hartnett_max hirschberg_regnier_bounds "
            "levenshtein_bounds report_for_params report_for_word sweep_reports "
            "unbalanced_lower_bound",
        ),
        ("exact", "EnumerationBudgetError ball_size ball_size_all canonical_ball_size enumerate_ball"),
        (
            "ops",
            "ChainStep apply_permutation balance_step balancing_chain cyclicize insert_symbol "
            "reduce_to_binary",
        ),
        (
            "words",
            "RunProfile Word balanced_tail_word balanced_word canonical_profile canonical_word "
            "cyclic_word encode_runs parse_run_profile parse_word unbalanced_binary_word",
        ),
    )
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    """Import the submodule that defines ``name`` (or is named ``name``) and return it."""
    module = _EXPORTS.get(name)
    if module is None and name not in _EXPORTS.values():
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    if module is None:
        return import_module(f"{__name__}.{name}")  # binds itself on the package
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
