"""Desk-scale multimodal pipeline mechanics.

Aspect-preserving resize planning under pixel budgets, 2D rotary
position embeddings and block-diagonal packed attention, probabilistic
visual tokens with an embedding table, first-fit-decreasing sequence
packing with waste reporting, thinking-mode chat templating, and DPO /
GRPO training objectives, all with oracle-backed verification.

Each name is imported from the submodule that defines it and lists it
in its `__all__`, as in `from navit_pack.geometry import plan_resize`.
Submodules load on first use (`navit_pack.packing` works after a bare
`import navit_pack`), so importing the package, or running the CLI's
data-path subcommands, does not load numpy or the encoder, objective
and self-check modules.
"""

from importlib import import_module

__version__ = "0.1.0"


def __getattr__(name: str):
    if not name.startswith("_"):
        try:
            return import_module(f".{name}", __name__)
        except ModuleNotFoundError as e:
            if e.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
