"""Rule framework: each rule module exposes NAME, CONTRACT and
run(ctx) -> None, emitting findings through the shared RuleContext
(which applies waivers centrally)."""

from ..report import Finding


class RuleContext:
    def __init__(self, model, waivers, scope_prefixes, rules=None):
        self.model = model
        self.waivers = waivers
        self._scope = tuple(scope_prefixes)
        self.findings = []
        self._enabled = set(rules) if rules else None

    def enabled(self, rule_name):
        return self._enabled is None or rule_name in self._enabled

    def in_scope(self, rel):
        if not self._scope:
            return True
        return any(
            rel == p or rel.startswith(p.rstrip("/") + "/")
            for p in self._scope
        )

    def emit(self, rel, line, rule, message, contract=""):
        if self.waivers.suppresses(rel, line, rule):
            return
        self.findings.append(
            Finding(
                file=rel,
                line=line,
                rule=rule,
                message=message,
                contract=contract,
            )
        )

    def emit_unwaivable(self, rel, line, rule, message, contract=""):
        self.findings.append(
            Finding(
                file=rel,
                line=line,
                rule=rule,
                message=message,
                contract=contract,
            )
        )


def all_rules():
    from . import (
        determinism,
        simerror,
        uninit_member,
    )

    return [
        determinism,
        uninit_member,
        simerror,
    ]
