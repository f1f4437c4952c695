"""The value types' shared contract: repr, type-strict equality, no order
or arithmetic, hash, immutability, copies that equal the original, and
every value built through its constructor."""

import ast
import copy
import operator
import pickle
from pathlib import Path

import numpy as np
import pytest

from navit_pack import chat, cli_chat, encoder, geometry, objectives, packing, selfcheck, vet
from navit_pack.errors import NonFiniteInput, ShapeMismatch
from navit_pack.records import ManifestError

SIZE = geometry.ImageSize(3, 4)
PLAN_TEXT = (
    "ResizePlan(source=ImageSize(width=3, height=4), grid_rows=2, grid_cols=3, patch_size=16)"
)
ONE = np.ones((1, 1))

# One value of each value type, with its repr. Some share their fields
# with a value of another type: `TextPart("hi")`, `ImagePart("hi")` and
# `TextSpan("hi")`.
VALUES = [
    (SIZE, "ImageSize(width=3, height=4)"),
    (
        geometry.PixelBudget(256, 1024, 16),
        "PixelBudget(min_pixels=256, max_pixels=1024, patch_size=16)",
    ),
    (geometry.ResizePlan(SIZE, 2, 3, 16), PLAN_TEXT),
    (
        packing.ManifestRecord("a", 3, (SIZE,)),
        "ManifestRecord(id='a', text_tokens=3, images=(ImageSize(width=3, height=4),))",
    ),
    (
        packing.SampleRecord("a", 3, (geometry.ResizePlan(SIZE, 2, 3, 16),)),
        f"SampleRecord(id='a', text_tokens=3, image_plans=({PLAN_TEXT},), total_tokens=9)",
    ),
    (
        packing.PackedSequence(8, (("a", 3), ("b", 2))),
        "PackedSequence(capacity=8, lengths=(('a', 3), ('b', 2)))",
    ),
    (
        packing.PackingReport(1, 1, 8, 0.25, 0.5, 1.0),
        "PackingReport(n_samples=1, n_sequences=1, capacity=8, packed_pad_fraction=0.25, "
        "naive_pad_fraction=0.5, useful_token_speedup_proxy=1.0)",
    ),
    (chat.TextPart("hi"), "TextPart(text='hi')"),
    (chat.ImagePart("hi"), "ImagePart(image_id='hi')"),
    (
        chat.ChatMessage(chat.Role.USER, (chat.TextPart("hi"), chat.ImagePart("img"))),
        "ChatMessage(role=<Role.USER: 'user'>, parts=(TextPart(text='hi'), "
        "ImagePart(image_id='img')))",
    ),
    (chat.TextSpan("hi"), "TextSpan(text='hi')"),
    (chat.ImageSpan("hi", 4), "ImageSpan(image_id='hi', token_count=4)"),
    (
        chat.RenderedPrompt((chat.TextSpan("hi"), chat.ImageSpan("img", 4))),
        "RenderedPrompt(token_stream=(TextSpan(text='hi'), "
        "ImageSpan(image_id='img', token_count=4)))",
    ),
    (chat.ThinkingOutput(None, "hi"), "ThinkingOutput(thinking=None, answer='hi')"),
    (encoder.RopeConfig(4), "RopeConfig(d_head=4)"),
    (
        encoder.LearnedPosTable(1, 1, np.ones((1, 2))),
        "LearnedPosTable(grid_rows=1, grid_cols=1, table=array([[1., 1.]]))",
    ),
    (
        encoder.PatchSequence(np.ones((1, 2)), np.zeros((1, 2), dtype=int), (0, 1)),
        "PatchSequence(embeddings=array([[1., 1.]]), positions=array([[0, 0]]), "
        "sample_boundaries=(0, 1))",
    ),
    (
        encoder.AttentionParams(ONE, ONE, ONE, ONE),
        "AttentionParams(wq=array([[1.]]), wk=array([[1.]]), wv=array([[1.]]), "
        "wo=array([[1.]]))",
    ),
    (
        vet.VisualHead(np.ones((1, 2))),
        "VisualHead(projection=array([[1., 1.]]))",
    ),
    (vet.ProbVisualToken(np.array([0.5, 0.5])), "ProbVisualToken(probs=array([0.5, 0.5]))"),
    (vet.VisualEmbeddingTable(np.ones((1, 2))), "VisualEmbeddingTable(table=array([[1., 1.]]))"),
    (
        vet.VetGradients(ONE, ONE, ONE),
        "VetGradients(d_features=array([[1.]]), d_projection=array([[1.]]), "
        "d_table=array([[1.]]))",
    ),
    (
        objectives.PreferenceGroup("q", ("a", "b"), (0.0, 1.0), (0.0, 1.0), (1.0, 0.0)),
        "PreferenceGroup(query_id='q', responses=('a', 'b'), logprob_policy=(0.0, 1.0), "
        "logprob_reference=(0.0, 1.0), scores=(1.0, 0.0))",
    ),
    (objectives.DpoConfig(), "DpoConfig(beta=0.1, nll_weight=0.0)"),
    (
        selfcheck.CheckResult("ffd-opt", True, "ok"),
        "CheckResult(name='ffd-opt', passed=True, detail='ok')",
    ),
]

# For each type whose constructor checks its fields: a `_replace` it
# refuses, with the constructor's error.
BAD_REPLACE = {
    geometry.ImageSize: ({"width": 0}, ValueError, r"image sides must be >= 1, got 0x4"),
    geometry.PixelBudget: ({"patch_size": 0}, ValueError, r"patch_size must be >= 1, got 0"),
    geometry.ResizePlan: ({"grid_rows": 0}, ValueError, r"grid must have at least one patch .*"),
    packing.SampleRecord: ({"text_tokens": -1}, ValueError, r"sample 'a' has negative .*"),
    packing.PackedSequence: ({"capacity": 4}, ValueError, r"lengths 5 exceed capacity 4"),
    chat.ChatMessage: ({"parts": ()}, ValueError, r"parts must be non-empty"),
    encoder.RopeConfig: ({"d_head": 6}, ValueError, r"d_head must be a positive .*, got 6"),
    encoder.LearnedPosTable: ({"grid_rows": 2}, ShapeMismatch, r"table has \(1, 2\) rows, .* 2"),
    encoder.PatchSequence: (
        {"sample_boundaries": (0, 2)}, ValueError, r"boundaries must run 0\.\.1, got \(0, 2\)"
    ),
    encoder.AttentionParams: (
        {"wo": np.ones((2, 1))}, ShapeMismatch, r"wo has shape \(2, 1\), expected \(1, 1\)"
    ),
    vet.VisualHead: (
        {"projection": np.full((1, 2), np.nan)}, NonFiniteInput, r"projection contains .*"
    ),
    vet.ProbVisualToken: (
        {"probs": np.array([0.7, 0.7])}, ValueError, r"probabilities must sum to 1, got 1\.4"
    ),
    vet.VisualEmbeddingTable: (
        {"table": np.full((1, 2), np.inf)}, NonFiniteInput, r"embedding table contains .*"
    ),
    objectives.PreferenceGroup: (
        {"responses": ("a", "a")}, ValueError, r"group 'q' has duplicate responses"
    ),
    objectives.DpoConfig: ({"beta": 0.0}, ValueError, r"beta must be positive, got 0\.0"),
}

NAN, INF = float("nan"), float("inf")
IMAGE_X = '{"id": "x", "width": 1, "height": 1}'

# Library calls that must be refused, each naming its own fault: (call,
# error type, message).
REFUSALS = {
    "empty ProbVisualToken": (
        lambda: vet.ProbVisualToken(np.array([])),
        ShapeMismatch,
        r"probs must be a non-empty vector, got shape \(0,\)",
    ),
    "SampleRecord negative text only": (
        lambda: packing.SampleRecord("a", -1), ValueError, r"sample 'a' has negative text_tokens"
    ),
    "AttentionParams 1-D wq": (
        lambda: encoder.AttentionParams(np.zeros(3), ONE, ONE, ONE),
        ShapeMismatch,
        r"wq must be 2D, got shape \(3,\)",
    ),
    "AttentionParams inf wq": (
        lambda: encoder.AttentionParams(np.array([[INF]]), ONE, ONE, ONE),
        NonFiniteInput,
        r"wq contains non-finite entries",
    ),
    "AttentionParams nan wo": (
        lambda: encoder.AttentionParams(ONE, ONE, ONE, np.array([[NAN]])),
        NonFiniteInput,
        r"wo contains non-finite entries",
    ),
    "RopeConfig float d_head": (
        lambda: encoder.RopeConfig(8.0), TypeError, r"d_head must be an integer, got 8\.0"
    ),
    "DpoConfig nan nll_weight": (
        lambda: objectives.DpoConfig(0.1, NAN),
        NonFiniteInput,
        r"nll_weight must be finite, got nan",
    ),
    "DpoConfig inf beta": (
        lambda: objectives.DpoConfig(INF, 0.0), NonFiniteInput, r"beta must be finite, got inf"
    ),
    "pair_indices nan margin": (
        lambda: objectives.pair_indices([1.0, 0.0], NAN),
        NonFiniteInput,
        r"margin must be finite, got nan",
    ),
    "pair_indices inf margin": (
        lambda: objectives.pair_indices([1.0, 0.0], INF),
        NonFiniteInput,
        r"margin must be finite, got inf",
    ),
    "pair_indices nan score": (
        lambda: objectives.pair_indices([1.0, NAN, 0.0]),
        NonFiniteInput,
        r"score 1 must be finite, got nan",
    ),
    "pair_indices inf score": (
        lambda: objectives.pair_indices([INF, 0.0]), NonFiniteInput, r"score 0 must be finite, got inf"
    ),
    "PatchSequence nan embedding": (
        lambda: encoder.PatchSequence(np.full((1, 2), NAN), np.zeros((1, 2), dtype=int), (0, 1)),
        NonFiniteInput,
        r"embeddings contain non-finite entries",
    ),
    "PatchSequence nan position": (
        lambda: encoder.PatchSequence(np.ones((1, 2)), np.array([[NAN, 0.0]]), (0, 1)),
        NonFiniteInput,
        r"positions contain non-finite entries",
    ),
    "PatchSequence 1-D embeddings": (
        lambda: encoder.PatchSequence(np.ones(2), np.zeros((2, 2)), (0, 2)),
        ShapeMismatch,
        r"embeddings must be 2D, got shape \(2,\)",
    ),
    "PatchSequence positions shape": (
        lambda: encoder.PatchSequence(np.ones((2, 2)), np.zeros((2, 3)), (0, 2)),
        ShapeMismatch,
        r"positions shape \(2, 3\) != \(2, 2\)",
    ),
    "PatchSequence negative position": (
        lambda: encoder.PatchSequence(np.ones((1, 2)), np.array([[0, -1]]), (0, 1)),
        ValueError,
        r"positions must be non-negative",
    ),
    "LearnedPosTable empty grid": (
        lambda: encoder.LearnedPosTable(0, 1, np.ones((0, 2))),
        ValueError,
        r"grid must have at least one cell per side",
    ),
    "ProbVisualToken 2-D": (
        lambda: vet.ProbVisualToken(np.full((1, 2), 0.5)),
        ShapeMismatch,
        r"probs must be a non-empty vector, got shape \(1, 2\)",
    ),
    "VisualEmbeddingTable 1-D": (
        lambda: vet.VisualEmbeddingTable(np.ones(2)),
        ShapeMismatch,
        r"table must be 2D, got shape \(2,\)",
    ),
    "vet_embed_grad upstream shape": (
        lambda: vet.vet_embed_grad(
            ONE, vet.VisualHead(np.ones((1, 2))), vet.VisualEmbeddingTable(np.ones((2, 3))), ONE
        ),
        ShapeMismatch,
        r"upstream shape \(1, 1\) != \(d_embed,\) = \(3,\)",
    ),
    "PackedSequence capacity": (
        lambda: packing.PackedSequence(0, ()), ValueError, r"capacity must be >= 1, got 0"
    ),
    "pack_ffd capacity": (
        lambda: packing.pack_ffd([], 0), ValueError, r"capacity must be >= 1, got 0"
    ),
    "pair_indices negative margin": (
        lambda: objectives.pair_indices([1.0, 0.0], -1.0),
        ValueError,
        r"margin must be non-negative, got -1\.0",
    ),
    "phase_budget unknown phase": (
        lambda: geometry.phase_budget("P1"), ValueError, r"unknown phase: 'P1'"
    ),
    "verify_answer unknown kind": (
        lambda: objectives.verify_answer(chat.ThinkingOutput(None, "a"), "a", "exact"),
        ValueError,
        r"unknown answer kind: 'exact'",
    ),
    "chat duplicate image id": (
        lambda: cli_chat._parse_conversation(f'{{"images": [{IMAGE_X}, {IMAGE_X}]}}'),
        ManifestError,
        r"duplicate image id 'x'",
    ),
    "chat message with no parts": (
        lambda: cli_chat._parse_conversation('{"messages": [{"role": "user", "parts": []}]}'),
        ManifestError,
        r"message 0: parts must be non-empty",
    ),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS)
def test_refusals_name_their_fault(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


def test_rope_config_takes_python_and_numpy_integers():
    assert encoder.RopeConfig(np.int64(8)) == encoder.RopeConfig(8)


@pytest.mark.parametrize("value, text", VALUES, ids=[type(v).__name__ for v, _ in VALUES])
def test_value_type_contract(value, text):
    assert repr(value) == text

    # Equal only to a value of the same type: not to a plain tuple of its
    # fields, a subclass, or another value type.
    assert value != tuple(value) and tuple(value) != value
    assert not value == tuple(value)
    subclass = type("Sub", (type(value),), {"__slots__": ()})
    assert value != tuple.__new__(subclass, tuple(value))
    for other, _ in VALUES:
        if type(other) is not type(value):
            assert value != other and not value == other

    # No order and no `+` or `*`, with a value or a plain tuple on either
    # side; iteration and indexing stay, for `_asdict` and `_replace`.
    for other in (value, tuple(value), (1,), SIZE, 2):
        for op in (operator.lt, operator.le, operator.gt, operator.ge, operator.add, operator.mul):
            for a, b in [(value, other), (other, value)]:
                with pytest.raises(TypeError):
                    op(a, b)
    assert list(value) == [value[i] for i in range(len(value))]

    # A value that holds an array is unhashable, as the array is.
    digest = None if "array(" in text else hash(value)
    # A copy, and a `_replace` of no field, go through the constructor with
    # the fields the copy stores.
    copies = (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value)))
    for twin in (*copies, value._replace(), type(value)._make(value)):
        assert type(twin) is type(value) and repr(twin) == text
        if digest is not None:
            assert twin == value and hash(twin) == digest

    first_field = text[text.index("(") + 1 : text.index("=")]
    with pytest.raises(AttributeError):
        setattr(value, first_field, None)
    with pytest.raises(AttributeError):
        value.extra = None
    assert repr(value) == text

    if type(value) in BAD_REPLACE:
        fields, error, message = BAD_REPLACE[type(value)]
        with pytest.raises(error, match=f"^{message}$"):
            value._replace(**fields)


def test_replace_and_make_recompute_the_sample_total():
    sample = packing.SampleRecord("a", 3)
    assert sample._replace(text_tokens=5) == packing.SampleRecord("a", 5)
    assert sample._replace(text_tokens=5).total_tokens == 5
    with pytest.raises(ValueError, match="^sample 'b' has zero tokens$"):
        packing.SampleRecord._make(("b", 0, (), 0))
    # The stored total is derived: a given one is replaced, not kept.
    assert packing.SampleRecord._make(("a", 3, (), 99)).total_tokens == 3
    with pytest.raises(TypeError, match="^Expected 4 arguments, got 3$"):
        packing.SampleRecord._make(("a", 3, ()))


# Two equal values of each type that holds an array, built from distinct
# arrays of two or more elements, which have no one truth value.
ARRAY_TWINS = [
    lambda: encoder.PatchSequence(np.ones((2, 2)), np.zeros((2, 2), dtype=int), (0, 2)),
    lambda: encoder.AttentionParams(*[np.ones((2, 2))] * 4),
    lambda: encoder.LearnedPosTable(1, 1, np.ones((1, 2))),
    lambda: vet.VisualHead(np.ones((2, 3))),
    lambda: vet.ProbVisualToken(np.array([0.5, 0.5])),
    lambda: vet.VisualEmbeddingTable(np.ones((2, 3))),
    lambda: vet.VetGradients(*[np.ones((2, 2))] * 3),
]


@pytest.mark.parametrize("build", ARRAY_TWINS, ids=lambda b: type(b()).__name__)
def test_array_values_refuse_equality_with_their_own_type(build):
    value, twin = build(), build()
    name = type(value).__name__
    for op in (operator.eq, operator.ne):
        with pytest.raises(TypeError, match=f"^{name} holds an array: it has no == or !=$"):
            op(value, twin)
    # With another type or a plain tuple, it is unequal, as every value is.
    assert value != tuple(value) and value != SIZE and not value == 2


def _tuple_new_sites(path: Path) -> list[str]:
    """`module.function` for each use of `tuple.__new__` in the file at `path`."""
    sites = []

    def visit(node, function):
        if isinstance(node, ast.FunctionDef):
            function = node.name
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "__new__"
            and isinstance(node.value, ast.Name)
            and node.value.id == "tuple"
        ):
            sites.append(f"{path.stem}.{function}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return sites


def test_values_are_built_only_by_their_constructors():
    """A value's checks live in its `__new__`, so `tuple.__new__`, which
    skips them, is used only there. The one exception is `vet.head_forward`:
    its rows are distributions by construction, `bench/encode_job.py` takes
    its list of tokens, and a per-row check cost a fifth of a traced
    `encode` job."""
    sites = [
        site
        for path in sorted(Path(vet.__file__).parent.glob("*.py"))
        for site in _tuple_new_sites(path)
    ]
    assert "objectives.__new__" in sites
    assert [site for site in sites if not site.endswith(".__new__")] == ["vet.head_forward"]
