"""``retry-discipline`` — no silently swallowed gateway failures.

The fault harness works because gateway errors are *typed*
(:class:`~repro.errors.TransientGatewayError`,
:class:`~repro.errors.GatewayTimeoutError`,
:class:`~repro.errors.GatewayUnavailableError`) and handled by name:
the resilient layer retries what is retryable, and the round driver
degrades on what is not.  A bare ``except:`` — or an
``except Exception: pass`` — around a gateway call defeats both: it
swallows the typed signal, hides injected faults from the resilience
counters, and turns a reproducible degradation into a silent wrong
answer.

The rule flags ``try`` blocks whose body calls through a gateway
(any ``*.gateway.<method>(...)`` / ``gateway.<method>(...)`` chain)
and whose handlers either catch everything bare, or catch
``Exception``/``BaseException`` only to ``pass``.  Catching a *specific*
error type — even with a ``pass`` body, like
``except TransactionRejectedError: pass`` — is exactly the discipline
the rule wants, and is never flagged.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.engine import Finding, LintContext, LintRule
from repro.devtools.lint.rules.common import dotted_chain

#: Exception names too broad to swallow silently around a gateway call.
BROAD_EXCEPTIONS = {"Exception", "BaseException"}


def _calls_gateway(stmts: list[ast.stmt]) -> bool:
    """True iff any statement calls through a ``gateway`` attribute chain."""
    for stmt in stmts:
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            chain = dotted_chain(node.func)
            if chain is not None and "gateway" in chain[:-1]:
                return True
    return False


def _broad_names(handler_type: ast.expr) -> set[str]:
    """Broad exception names a handler clause catches (empty if none)."""
    exprs = (
        handler_type.elts if isinstance(handler_type, ast.Tuple) else [handler_type]
    )
    names = set()
    for expr in exprs:
        if isinstance(expr, ast.Name) and expr.id in BROAD_EXCEPTIONS:
            names.add(expr.id)
    return names


def _swallows(body: list[ast.stmt]) -> bool:
    """True iff the handler body does nothing (``pass`` / ``...`` only)."""
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) \
                and stmt.value.value is Ellipsis:
            continue
        return False
    return True


class RetryDisciplineRule(LintRule):
    rule_id = "retry-discipline"
    category = "robustness"
    description = (
        "no bare `except:` and no swallowed `except Exception: pass` around "
        "gateway calls — catch the typed gateway errors by name"
    )
    rationale = (
        "gateway failures carry typed retry/degrade semantics; a blanket "
        "swallow hides injected faults from the resilience counters and "
        "turns reproducible degradation into silent wrong answers"
    )

    def applies_to(self, path: str) -> bool:
        return path.startswith("src/repro/")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Try):
                continue
            if not _calls_gateway(node.body):
                continue
            for handler in node.handlers:
                if handler.type is None:
                    yield self.finding(
                        ctx,
                        handler,
                        "bare `except:` around a gateway call — catch the "
                        "typed gateway errors (TransientGatewayError, "
                        "GatewayTimeoutError, GatewayUnavailableError) by name",
                    )
                    continue
                broad = _broad_names(handler.type)
                if broad and _swallows(handler.body):
                    yield self.finding(
                        ctx,
                        handler,
                        f"`except {'/'.join(sorted(broad))}: pass` swallows a "
                        "gateway failure — catch the typed gateway errors by "
                        "name, or handle the failure instead of discarding it",
                    )
