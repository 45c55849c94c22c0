"""Every flag a CLI command accepts is one that command reads.

For each subcommand of ``interlace.cli.build_parser()``, every option
``dest`` it defines (its positional ``input`` and the ``help`` and
``func`` entries aside) must appear as ``args.<dest>`` in the source of
the ``cmd_*`` function it dispatches to.  A flag that is accepted and
then ignored fails here, naming the command and the flag.  The flag
set of each command is pinned as well.
"""

import argparse
import inspect

from interlace.cli import build_parser


def _subparsers() -> dict:
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_every_flag_is_read_by_its_command():
    unread = []
    for name, parser in sorted(_subparsers().items()):
        source = inspect.getsource(parser.get_default("func"))
        unread += [f"{name} {action.option_strings[0]}" for action in parser._actions
                   if action.dest not in ("help", "func", "input")
                   and f"args.{action.dest}" not in source]
    assert not unread, "flags accepted but never read: " + ", ".join(unread)


def test_each_command_takes_exactly_its_flags():
    flags = {name: {opt for action in parser._actions for opt in action.option_strings
                    if opt not in ("-h", "--help")}
             for name, parser in _subparsers().items()}
    assert flags == {"ri": {"-k", "--mode", "--tol", "--out"},
                     "weaver": {"--mode", "--tol", "--budget", "--out"},
                     "lift": {"--iterations", "--budget", "--out"},
                     "mixedchar": {"--mode", "--out"}}
