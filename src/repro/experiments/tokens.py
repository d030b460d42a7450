"""The shared ``name@key=value,...`` token grammar.

Scenario selections (``--scenario churn@rate=0.1``) and system selections
(``--system jini@k=8,mode=gossip``) use the same CLI token shape: a bare
name, optionally followed by ``@`` and a comma-separated list of
``key=value`` options.  This module is the single implementation of that
grammar — :func:`parse_token` and :func:`canonical_token` are wrapped by
``parse_scenario``/``scenario_token`` in :mod:`repro.experiments.scenarios`
and ``parse_system``/``system_token`` in :mod:`repro.protocols.registry`,
so quoting, whitespace tolerance and error wording can never drift between
the two front ends.

Grammar rules (shared, by construction, with the scenario grammar that
predates this module):

* values parse as ``true``/``false``, int, float, or fall back to string;
* canonical tokens sort options by key and format floats via ``repr``, so
  equal selections always produce equal tokens — the property cell keys and
  checkpoint identities rely on;
* a selection without options is just the bare name;
* surrounding whitespace around names, keys and values is tolerated on
  input and absent from canonical output;
* :func:`validate_options` types every option by its default: a value must
  have its default's type, except that an int is accepted (and converted)
  where the default is a float.

The ``label`` argument ("scenario", "system") only parameterises error
messages; the grammar itself is identical for every front end.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple


def format_option_value(value: Any) -> str:
    """Canonical text of one option value (bools lowercase, floats via ``repr``)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_option_value(text: str) -> Any:
    """Parse one option value: ``true``/``false``, int, float, or string."""
    lowered = text.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


#: How a type mismatch names the expected type, keyed by the default's type.
_TYPE_NAMES = {bool: "a bool", int: "an integer", float: "a number", str: "a string"}


def validate_options(
    label: str, name: str, defaults: Mapping[str, Any], options: Mapping[str, Any]
) -> Dict[str, Any]:
    """Merge ``options`` over ``defaults``, rejecting unknown names and mistyped values.

    A value must have its default's type, except that an int is accepted, and
    converted, where the default is a float.  The merged dict is for the
    builder; canonical tokens come from the unmerged ``options``.
    """
    unknown = sorted(set(options) - set(defaults))
    if unknown:
        raise ValueError(
            f"{label} {name!r} does not accept option(s) {', '.join(unknown)}; "
            f"known options: {', '.join(sorted(defaults)) or '(none)'}"
        )
    merged = dict(defaults)
    for key, value in options.items():
        kind = type(defaults[key])
        if kind is float and type(value) is int:
            value = float(value)
        elif type(value) is not kind:
            expected = _TYPE_NAMES.get(kind, kind.__name__)
            raise ValueError(f"{label} option {name}@{key} must be {expected}, got {value!r}")
        merged[key] = value
    return merged


def canonical_token(name: str, options: Mapping[str, Any]) -> str:
    """Canonical ``name@key=value,...`` token of a (name, options) selection.

    Options are sorted by name and values formatted canonically (floats via
    ``repr``), so equal selections always produce equal tokens.  A selection
    without options is just the bare name.
    """
    if not options:
        return name
    parts = ",".join(f"{key}={format_option_value(options[key])}" for key in sorted(options))
    return f"{name}@{parts}"


def parse_token(text: str, label: str = "token") -> Tuple[str, Dict[str, Any]]:
    """Parse one ``name@key=value,...`` token into its name and options.

    ``label`` names the token kind in error messages ("scenario", "system")
    and nothing else — the grammar is label-independent.  The name is *not*
    resolved against any registry here; callers validate it so the error can
    carry the known names.
    """
    name, sep, option_text = text.partition("@")
    name = name.strip()
    if not name:
        raise ValueError(f"{label} token {text!r} has no name")
    options: Dict[str, Any] = {}
    if sep:
        if not option_text.strip():
            raise ValueError(f"{label} token {text!r} has a dangling '@'")
        for item in option_text.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq or not key or not value.strip():
                raise ValueError(
                    f"{label} option {item!r} must look like key=value (in token {text!r})"
                )
            if key in options:
                raise ValueError(f"duplicate {label} option {key!r} in token {text!r}")
            options[key] = parse_option_value(value.strip())
    return name, options


def split_token_list(text: str) -> List[str]:
    """Split a comma-separated list of tokens, keeping option lists intact.

    The ``--system`` flag accepts comma-separated lists (``frodo3,upnp``)
    *and* parameterised tokens whose option lists themselves contain commas
    (``jini@k=8,mode=gossip``).  The two are disambiguated by shape: a
    comma-separated segment containing ``=`` but no ``@`` continues the
    preceding token's option list (a bare system name can never contain
    ``=``), anything else starts a new token.

    >>> split_token_list("upnp,jini@k=8,mode=gossip,frodo3")
    ['upnp', 'jini@k=8,mode=gossip', 'frodo3']
    """
    tokens: List[str] = []
    for segment in text.split(","):
        if "=" in segment and "@" not in segment and tokens:
            tokens[-1] += "," + segment.strip()
        elif segment.strip():
            tokens.append(segment.strip())
    return tokens
