"""Reading a command line against a table of verbs.

argparse is not used: building its parsers (and the gettext and locale
imports it makes) cost a few milliseconds per process, more than the work
of most requests.

A table maps each verb to ``(handler, summary, positionals, options)``.  A
positional is ``(name, convert, choices, help)`` and an option ``(flag,
arity, convert, choices, default, help)``: the arity is 0 for a switch, 1
for one value and ``"+"`` for one or more, and ``convert`` turns a token
into its value, raising ``ValueError`` with the message to print, before
the value is checked against ``choices`` (None for any).  ``parse`` reads
argv against the table, and the usage lines and help are printed from it
too, so the table is the only description of the arguments.

The program's own words, ``about``, are ``(prog, description, epilog)``:
its name, the text under the top-level usage and the text closing every
help.
"""

from __future__ import annotations

import re
import sys
from types import SimpleNamespace
from typing import Dict, Optional, Sequence

EXIT_HELP = 0
EXIT_USAGE = 2

_HELP = ("--help", "-h")
_HELP_COLUMN = 30  # longer option or choice texts put their help on the next line
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


def _choices_text(choices) -> str:
    return "{" + ",".join(choices) + "}"


def _option_text(option) -> str:
    flag, arity, _, choices, _, _ = option
    if arity == 0:
        return flag
    value = _choices_text(choices) if choices else flag[2:].upper()
    return f"{flag} {value}" + (f" [{value} ...]" if arity == "+" else "")


def _positional_text(positional) -> str:
    name, _, choices, _ = positional
    return _choices_text(choices) if choices else name


def _usage(prog: str, verbs: Dict, command: Optional[str]) -> str:
    """The usage line of ``command``, or of the program when None."""
    if command is None:
        return f"usage: {prog} [-h] command ..."
    _, _, positionals, options = verbs[command]
    words = [f"[{_option_text(option)}]" for option in options]
    words.extend(_positional_text(positional) for positional in positionals)
    return f"usage: {prog} {command} [-h] " + " ".join(words)


def _help_text(about: Sequence[str], verbs: Dict, command: Optional[str]) -> str:
    """The help of ``command``, or of the program when None."""
    prog, description, epilog = about
    if command is None:
        sections = [("verbs", [(name, entry[1]) for name, entry in verbs.items()])]
        lines = [_usage(prog, verbs, None), "", description]
    else:
        _, summary, positionals, options = verbs[command]
        sections = [
            ("positional arguments", [(_positional_text(p), p[3]) for p in positionals]),
            (
                "options",
                [("-h, --help", "show this help and exit")]
                + [(_option_text(o), o[5]) for o in options],
            ),
        ]
        lines = [_usage(prog, verbs, command), "", summary]
    width = min(max(len(left) for _, rows in sections for left, _ in rows), _HELP_COLUMN)
    for title, rows in sections:
        lines += ["", f"{title}:"]
        for left, text in rows:
            if len(left) > width and text:
                lines += [f"  {left}", f"  {'':<{width}}  {text}"]
            else:
                lines.append(f"  {left:<{width}}  {text or ''}".rstrip())
    return "\n".join(lines + ["", epilog])


def _is_flag(token: str) -> bool:
    """Whether ``token`` names an option: a dash, and not a negative number."""
    return token[:1] == "-" and token != "-" and not _NEGATIVE_NUMBER.fullmatch(token)


def _read(name: str, convert, choices, token: str):
    """``token`` converted, then checked against ``choices``."""
    try:
        value = convert(token)
    except ValueError as exc:
        raise ValueError(f"argument {name}: {exc}") from None
    if choices is not None and value not in choices:
        shown = ", ".join(map(repr, choices))
        raise ValueError(f"argument {name}: invalid choice: {value!r} (choose from {shown})")
    return value


def _option(token: str, options: Dict[str, tuple]):
    """The option that ``token`` (without any ``=value``) names, exactly or
    by a unique prefix of a long flag; ``_HELP`` for help and None for a
    flag that the verb does not read."""
    if token in _HELP:
        return _HELP
    if token in options:
        return options[token]
    if token[:2] != "--" or token == "--":
        return None
    names = [flag for flag in (*options, "--help") if flag.startswith(token)]
    if len(names) > 1:
        raise ValueError(f"ambiguous option: {token} could match {', '.join(names)}")
    if not names:
        return None
    return _HELP if names[0] == "--help" else options[names[0]]


def parse(argv: Sequence[str], verbs: Dict, about: Sequence[str]) -> SimpleNamespace:
    """The request in ``argv``, read against ``verbs``: a namespace with
    ``command``, ``handler`` and one attribute per positional and option.

    Tokens are read left to right, as argparse reads them.  ``-h``/``--help``
    prints help and exits 0; a usage error prints the verb's usage line and
    one ``error:`` line on stderr and exits 2.  An option takes its value
    from ``--flag=value`` or from the tokens after it (a token after ``--``,
    or one that is a negative number, is never a flag); a flag the verb does
    not read, or a positional too many, is an unrecognized argument."""
    command = argv[0] if argv else None
    try:
        if command not in verbs:
            first, command = command, None  # an error prints the program's usage
            if first is None:
                raise ValueError("the following arguments are required: command")
            if _option(first.partition("=")[0], {}) is _HELP:
                print(_help_text(about, verbs, None))
                raise SystemExit(EXIT_HELP)
            raise ValueError(f"invalid verb: {first!r} (choose from {', '.join(map(repr, verbs))})")
        handler, _, positionals, options = verbs[command]
        args = SimpleNamespace(command=command, handler=handler)
        for option in options:
            setattr(args, option[0][2:], option[4])
        flags = {option[0]: option for option in options}
        tokens = argv[1:]
        filled, extras, only_values, i = 0, [], False, 0
        while i < len(tokens):
            token = tokens[i]
            i += 1
            if only_values or not _is_flag(token):
                if filled == len(positionals):
                    extras.append(token)
                else:
                    name, convert, choices, _ = positionals[filled]
                    setattr(args, name, _read(name, convert, choices, token))
                    filled += 1
                continue
            if token == "--":
                only_values = True
                continue
            name, given, inline = token.partition("=")
            option = _option(name, flags)
            if option is _HELP:
                print(_help_text(about, verbs, command))
                raise SystemExit(EXIT_HELP)
            if option is None:
                extras.append(token)
                continue
            flag, arity, convert, choices, _, _ = option
            if arity == 0:
                if given:
                    raise ValueError(f"argument {flag}: ignored explicit argument {inline!r}")
                setattr(args, flag[2:], True)
                continue
            if given:
                values = [inline]
            else:
                start = i
                while i < len(tokens) and not _is_flag(tokens[i]) and (arity == "+" or i == start):
                    i += 1
                values = tokens[start:i]
            if not values:
                expected = "at least one argument" if arity == "+" else "one argument"
                raise ValueError(f"argument {flag}: expected {expected}")
            values = [_read(flag, convert, choices, value) for value in values]
            setattr(args, flag[2:], values if arity == "+" else values[0])
        if filled < len(positionals):
            missing = ", ".join(p[0] for p in positionals[filled:])
            raise ValueError(f"the following arguments are required: {missing}")
        if extras:
            raise ValueError(f"unrecognized arguments: {' '.join(extras)}")
    except ValueError as exc:
        print(_usage(about[0], verbs, command), f"error: {exc}", sep="\n", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None
    return args
