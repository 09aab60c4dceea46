"""``config-mutation`` — library functions never mutate caller configs.

PR 3 fixed a real bug of this class: the ``policy=`` override path wrote
through to the *caller's* ``chain_config``, so one run's overrides leaked
into the next run's config object.  Config dataclasses
(``DecentralizedConfig`` and the ``ChainSpec`` / ``FaultSpec`` /
``ParticipationSpec`` it holds, ``ScenarioSpec``, ``TrainConfig``,
``PeerConfig``, …) are inputs: a function that wants a variant makes its
own copy with ``dataclasses.replace(config, ...)``.

The rule flags attribute assignment (plain, augmented, annotated — and
``del``) on any function *parameter* that is recognizably a config: its
annotation names a config dataclass, or its name is ``config``/``cfg``/
``spec`` (optionally with a prefix, e.g. ``chain_config``).  Local
construction followed by mutation (``cfg = TrainConfig(); cfg.epochs = 2``)
is builder-pattern code on an object the function owns and never flags.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.engine import Finding, LintContext, LintRule

CONFIG_TYPES = {
    "DecentralizedConfig",
    "ScenarioSpec",
    "ChainSpec",
    "FaultSpec",
    "ParticipationSpec",
    "CohortSpec",
    "AdversarySpec",
    "HeterogeneitySpec",
    "TrainConfig",
    "PeerConfig",
    "NodeConfig",
    "GenesisSpec",
    "SyntheticSpec",
}

CONFIG_NAMES = {"config", "cfg", "spec"}


def _annotation_names(annotation: ast.AST) -> set[str]:
    """Terminal identifiers appearing anywhere in an annotation.

    Handles ``ChainSpec``, ``spec.ChainSpec``, ``Optional[ChainSpec]``,
    and string annotations (``"ChainSpec"``).
    """
    names: set[str] = set()
    for sub in ast.walk(annotation):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                names |= _annotation_names(ast.parse(sub.value, mode="eval"))
            except SyntaxError:
                pass
    return names


def _looks_like_config_name(name: str) -> bool:
    lowered = name.lower()
    return lowered in CONFIG_NAMES or any(
        lowered.endswith("_" + suffix) for suffix in CONFIG_NAMES
    )


def _config_params(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> dict[str, str]:
    """Parameter name -> why it is considered a config."""
    params: dict[str, str] = {}
    args = fn.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        if arg.arg == "self" or arg.arg == "cls":
            continue
        if arg.annotation is not None:
            hits = _annotation_names(arg.annotation) & CONFIG_TYPES
            if hits:
                params[arg.arg] = f"annotated {sorted(hits)[0]}"
                continue
        if _looks_like_config_name(arg.arg):
            params[arg.arg] = "config-named parameter"
    return params


class ConfigMutationRule(LintRule):
    rule_id = "config-mutation"
    category = "immutability"
    description = (
        "no attribute assignment on config-dataclass parameters; copy "
        "with dataclasses.replace(...) instead"
    )
    rationale = (
        "the PR-3 `chain_config` mutation bug: overrides written through "
        "a parameter leaked into the caller's config object"
    )

    def applies_to(self, path: str) -> bool:
        return path.startswith("src/")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for fn in ast.walk(ctx.tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            params = _config_params(fn)
            if not params:
                continue
            yield from self._check_body(ctx, fn, params)

    def _check_body(self, ctx, fn, params) -> Iterator[Finding]:
        # Do not descend into nested defs: they re-bind their own params
        # and are visited independently by the outer walk.
        stack = list(fn.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for target, verb in _mutation_targets(node):
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id in params
                ):
                    name = target.value.id
                    yield self.finding(
                        ctx,
                        target,
                        f"{verb} `{name}.{target.attr}` mutates the caller's "
                        f"config ({params[name]}) — use "
                        f"dataclasses.replace({name}, ...) instead",
                    )
            stack.extend(ast.iter_child_nodes(node))


def _mutation_targets(node: ast.AST) -> list[tuple[ast.AST, str]]:
    if isinstance(node, ast.Assign):
        out = []
        for t in node.targets:
            for el in ast.walk(t):  # tuple-unpacking targets included
                if isinstance(el, ast.Attribute) and isinstance(el.ctx, ast.Store):
                    out.append((el, "assignment to"))
        return out
    if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        return [(node.target, "assignment to")]
    if isinstance(node, ast.Delete):
        return [
            (t, "deletion of")
            for t in node.targets
            if isinstance(t, ast.Attribute) and isinstance(t.ctx, ast.Del)
        ]
    return []
