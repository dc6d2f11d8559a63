"""Bundled reference problems: ``EXAMPLES`` maps each name to the command
that runs it, the verdict it must give and a one-line description
(``construct+rays`` runs both commands on one config; the first gives the
verdict).  The problem itself is the ``.cfg`` file of the same name in the
package's ``examples`` directory, whose comments describe it."""

from pathlib import Path

EXAMPLES = {  # name -> (command, expect, description)
    "isotropic-exp": (
        "construct", "certified", "isotropic exponential coefficients; construction certifies"
    ),
    "cubic-exp": (
        "construct", "certified", "cubic exponential coefficients on a domain off the axes"
    ),
    "disk-trap": (
        "construct+rays",
        "no_admissible_index",
        "radially growing coefficients; no admissible axis, ray fan attached",
    ),
    "curvature-signchange": (
        "curvature", "sign_changing", "admissible coefficients whose curvature changes sign"
    ),
}


def config_text(name: str) -> str:
    """The run configuration of the bundled problem ``name``."""
    return (Path(__file__).parent / "examples" / f"{name}.cfg").read_text(encoding="utf-8")
