"""Count calls to a croft_forge function under every name the package binds it to."""

import sys


def count_calls(monkeypatch, module, name: str) -> list:
    """Replace ``module.name`` wherever a croft_forge module binds it by a
    wrapper that records each call's arguments; returns the record."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "croft_forge" or mod_name.startswith("croft_forge."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls
