"""Named selections: the ``name@key=value,...`` token grammar and its registry.

Scenario selections (``--scenario churn@rate=0.1``) and system selections
(``--system jini@k=8,mode=gossip``) use the same CLI token shape: a bare
name, optionally followed by ``@`` and a comma-separated list of
``key=value`` options.  This module is the single implementation of that
grammar and of resolving a token against a table of named entries:
:data:`repro.protocols.registry.SYSTEMS` and
:data:`repro.experiments.scenarios.SCENARIOS` are both :class:`Registry`
instances, so lookup, option typing, canonical tokens, aliases and error
wording can never drift between the two front ends.  It sits at the
package top level so that both registries import it without importing
each other's package.

Grammar rules:

* values parse as ``true``/``false``, int, float, or fall back to string;
* canonical tokens sort options by key and format floats via ``repr``, so
  equal selections always produce equal tokens — the property cell keys and
  checkpoint identities rely on;
* a selection without options is just the bare name;
* surrounding whitespace around names, keys and values is tolerated on
  input and absent from canonical output;
* :func:`validate_options` types every option by its default: a value must
  have its default's type, except that an int is accepted (and converted)
  where the default is a float, and a float must be finite.

Range checks belong to the entry (a Jini ``k`` of at least 1, a scenario
window that ends before the run's deadline):
:meth:`ScenarioSpec.validate <repro.experiments.scenario.ScenarioSpec.validate>`
runs them on the options :meth:`Registry.resolve` merged.

The ``label``/``kind`` argument ("scenario", "system") only parameterises
error messages; the grammar itself is identical for every front end.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, Iterator, List, Mapping, NamedTuple, Tuple


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
    converted, where the default is a float; a float must be finite (every
    range check compares, and NaN passes every comparison).  The merged dict
    is for the builder; canonical tokens come from the unmerged ``options``.
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
        if kind is float and not math.isfinite(value):
            raise ValueError(f"{label} option {name}@{key} must be finite, got {value!r}")
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
    looked up here; :meth:`Registry.resolve` does, so the error can carry
    the known names.
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


# --------------------------------------------------------------------------- registry
class UnknownNameError(KeyError):
    """A name that no entry of a :class:`Registry` carries."""

    def __init__(self, kind: str, name: str, known: List[str]) -> None:
        super().__init__(name)
        self.kind = kind
        self.name = name
        self.known = known

    def __str__(self) -> str:
        return (
            f"unknown {self.kind} {self.name!r}; "
            f"registered {self.kind}s: {', '.join(self.known) or '(none)'}"
        )


class Resolved(NamedTuple):
    """A token resolved against a :class:`Registry`."""

    #: The entry the token names.
    entry: Any
    #: The token's options, typed and merged over the entry's defaults.
    options: Dict[str, Any]
    #: Canonical token of the selection (cell keys, seeds, JSON output):
    #: the options as written, never the merged ones, so a bare name stays
    #: bare.
    token: str


class Registry:
    """A table of named entries, built once, resolved from tokens.

    Every entry carries a ``name``, a ``defaults`` mapping (its typed
    options; empty when it takes none) and an ``alias_of`` token ("" unless
    the entry is an alias).  An alias row's defaults are the options of the
    token it stands for, and it accepts no option of its own, so a legacy
    name can never drift from the selection it historically made.
    Iteration and :meth:`names` follow name order.
    """

    def __init__(self, kind: str, entries: Iterable[Any]) -> None:
        #: What an entry is ("system", "scenario"); error messages use it.
        self.kind = kind
        table: Dict[str, Any] = {}
        for entry in entries:
            if entry.name in table:
                raise ValueError(f"{kind} {entry.name!r} is registered twice")
            table[entry.name] = entry
        self._entries = dict(sorted(table.items()))

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._entries.values())

    def names(self) -> List[str]:
        """Every entry name, sorted."""
        return list(self._entries)

    def get(self, name: str) -> Any:
        """The entry of a *bare* name; raises :class:`UnknownNameError`."""
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownNameError(self.kind, name, self.names()) from None

    def resolve(self, token: str) -> Resolved:
        """Resolve a bare name or a ``name@key=value,...`` token.

        Looks the name up, types the options against the entry's defaults
        and canonicalises the token, so equal selections resolve to equal
        tokens.  An alias rejects any explicit option.
        """
        name, options = parse_token(token, self.kind)
        entry = self.get(name)
        if options and entry.alias_of:
            raise ValueError(
                f"{self.kind} {name!r} is a frozen alias of {entry.alias_of!r} "
                f"and accepts no options (use {entry.alias_of.partition('@')[0]!r} "
                f"with explicit parameters instead)"
            )
        merged = validate_options(self.kind, name, entry.defaults, options)
        return Resolved(entry, merged, canonical_token(name, options))
