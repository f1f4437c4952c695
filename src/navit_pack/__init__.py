"""Desk-scale multimodal pipeline mechanics.

Aspect-preserving resize planning under pixel budgets, 2D rotary
position embeddings and block-diagonal packed attention, probabilistic
visual tokens with an embedding table, first-fit-decreasing sequence
packing with waste reporting, thinking-mode chat templating, and DPO /
GRPO training objectives, all with oracle-backed verification.

The names below are imported from their submodules on first access, so
importing the package (or the CLI's data-path subcommands) does not
load numpy or the encoder, objective and self-check modules.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "chat": (
        "ChatMessage",
        "ImagePart",
        "MalformedThinkBlock",
        "RenderedPrompt",
        "Role",
        "TextPart",
        "ThinkingOutput",
        "UnresolvedImageRef",
        "parse_thinking",
        "render",
    ),
    "encoder": (
        "AttentionParams",
        "LearnedPosTable",
        "PatchSequence",
        "RopeConfig",
        "apply_rope_2d",
        "block_diag_forward",
        "interpolate_pos_table",
        "rope_dot_relative",
    ),
    "errors": ("LengthMismatch", "NonFiniteInput", "ShapeMismatch"),
    "geometry": (
        "BudgetInfeasible",
        "ImageSize",
        "Phase",
        "PixelBudget",
        "ResizePlan",
        "phase_budget",
        "plan_resize",
    ),
    "objectives": (
        "AnswerKind",
        "DpoConfig",
        "GroupTooSmall",
        "PreferenceGroup",
        "UnknownAnswerLetter",
        "UnparseableNumeric",
        "dpo_losses",
        "grpo_advantages_rows",
        "mcq_to_fill_in_blank",
        "pair_indices",
        "verify_answer",
    ),
    "packing": (
        "ManifestError",
        "ManifestRecord",
        "NaiveBaseline",
        "PackedSequence",
        "PackingReport",
        "SampleRecord",
        "SampleTooLong",
        "build_attention_metadata",
        "naive_batch_waste",
        "pack_ffd",
        "packing_report",
        "parse_manifest_line",
        "sample_from_record",
    ),
}

# Exported name -> the submodule that defines it.
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        if not name.startswith("_"):  # a submodule itself, as `navit_pack.vet`
            try:
                return import_module(f".{name}", __name__)
            except ModuleNotFoundError as e:
                if e.name != f"{__name__}.{name}":
                    raise
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
