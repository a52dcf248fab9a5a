#!/usr/bin/env python3
"""Fail when the reference docs and the sources drift apart.

The name inventories (enum members, kTag* constants, Event::kNoActor) come
from the static protocol model (tools/proto_model.py) instead of ad-hoc
regexes, so this script and the static-analysis layer can never disagree
about what exists in the sources. The PROTOCOL.md *tables* (per-kind
"Used by" column, home-transition rows/columns) are gated separately by
`run_static_checks.py` against the same model; here we keep the cheaper
mention-level checks that cover all docs:

  1. Forward: every DirState, MsgKind, and kTag* name must be mentioned in
     docs/PROTOCOL.md; every Mutation member must be mentioned in
     docs/MODELCHECK.md.
  2. Reverse: every `kSomething` token used in a checked doc must exist in
     the union of the code-side names — a renamed or deleted state,
     message, or mutation makes the doc reference fail here.
  3. Every `<dir>/<path>:<line>` anchor (dir in src/tools/tests/bench)
     must point at an existing file. When the anchor names a symbol — the
     form is `src/foo.cpp:123` (`symbol`) — and that symbol is a function
     the model knows in that file, the anchored line must fall inside the
     function's exact [start, end] span; for symbols the model has no span
     for (members, constants, types) the +/-40-line window still applies.
     Any anchor problem exits 1.

Run from the repository root:  python3 scripts/check_doc_drift.py
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import proto_model  # noqa: E402

DOCS = [
    ROOT / "docs" / "PROTOCOL.md",
    ROOT / "docs" / "MODELCHECK.md",
    ROOT / "docs" / "VERIFICATION.md",
]
# Anchor-checked only (no reverse kToken check: prose docs legitimately use
# kLRC/kNever-style tokens that are not protocol states or message kinds).
ANCHOR_ONLY_DOCS = [
    ROOT / "DESIGN.md",
]
ANCHOR_SLACK = 40  # window for symbols without a model-known span


def check_forward(
    doc: Path, doc_text: str, names: set[str], what: str
) -> list[str]:
    rel = doc.relative_to(ROOT)
    return [
        f"{what} {name} is not documented in {rel}"
        for name in sorted(names)
        if re.search(r"\b" + name + r"\b", doc_text) is None
    ]


def check_reverse(doc: Path, doc_text: str, known: set[str]) -> list[str]:
    rel = doc.relative_to(ROOT)
    errors = []
    for lineno, line in enumerate(doc_text.splitlines(), start=1):
        for tok in re.findall(r"\b(k[A-Z][A-Za-z0-9]*)\b", line):
            if tok not in known:
                errors.append(
                    f"{rel}:{lineno}: {tok} does not exist in the "
                    "sources (renamed or removed?)"
                )
    return errors


ANCHOR_RE = re.compile(
    r"`((?:src|tools|tests|bench)/[A-Za-z0-9_/.]+\.(?:cpp|hpp)):(\d+)`"
    r"(?:\s*\(`([A-Za-z_][A-Za-z0-9_]*)`\))?"
)


def function_spans(model_json: dict) -> dict[tuple[str, str], list[tuple[int, int]]]:
    """(file, unqualified name) -> [(start, end), ...] from the model."""
    spans: dict[tuple[str, str], list[tuple[int, int]]] = {}
    for qualname, loc in model_json["functions"].items():
        leaf = qualname.rsplit("::", 1)[-1]
        spans.setdefault((loc["file"], leaf), []).append(
            (loc["start"], loc["end"])
        )
    return spans


def check_anchors(
    doc: Path,
    doc_text: str,
    spans: dict[tuple[str, str], list[tuple[int, int]]],
) -> list[str]:
    rel = doc.relative_to(ROOT)
    errors = []
    for lineno, line in enumerate(doc_text.splitlines(), start=1):
        for path_str, line_str, symbol in ANCHOR_RE.findall(line):
            target = ROOT / path_str
            if not target.is_file():
                errors.append(
                    f"{rel}:{lineno}: anchor {path_str} does not exist"
                )
                continue
            src_lines = target.read_text().splitlines()
            n = int(line_str)
            if n < 1 or n > len(src_lines):
                errors.append(
                    f"{rel}:{lineno}: anchor {path_str}:{n} is past "
                    f"the end of the file ({len(src_lines)} lines)"
                )
                continue
            if not symbol:
                continue
            known_spans = spans.get((path_str, symbol))
            if known_spans:
                if not any(lo <= n <= hi for lo, hi in known_spans):
                    where = ", ".join(f"{lo}-{hi}" for lo, hi in known_spans)
                    errors.append(
                        f"{rel}:{lineno}: anchor {path_str}:{n} names "
                        f"`{symbol}` but that function spans line(s) "
                        f"{where}"
                    )
                continue
            lo = max(0, n - 1 - ANCHOR_SLACK)
            hi = min(len(src_lines), n + ANCHOR_SLACK)
            window = "\n".join(src_lines[lo:hi])
            if re.search(r"\b" + re.escape(symbol) + r"\b", window) is None:
                errors.append(
                    f"{rel}:{lineno}: anchor {path_str}:{n} "
                    f"names `{symbol}` but it is not within "
                    f"{ANCHOR_SLACK} lines of that location"
                )
    return errors


def main() -> int:
    texts = {}
    for doc in DOCS:
        if not doc.is_file():
            sys.exit(
                f"error: {doc.relative_to(ROOT)} not found "
                "(run from the repo root)"
            )
        texts[doc] = doc.read_text()

    model_json, findings = proto_model.build_protocol_model(ROOT)
    gating = proto_model.gating(findings)
    if gating:
        # Anchor/inventory checks against a broken model would lie; make
        # the extraction failure itself the reported drift.
        print(f"doc drift: protocol model has {len(gating)} gating finding(s)")
        for f in gating:
            print(f"  [{f['rule']}] {f['msg']}")
        return 1

    enums = {k: set(v) - {"kCount"} for k, v in model_json["enums"].items()}
    dir_states = enums["DirState"]
    msg_kinds = enums["MsgKind"]
    mutations = enums["Mutation"]
    tags = set(model_json["tags"])
    consts = set(model_json["consts"])
    known = dir_states | msg_kinds | mutations | tags | consts
    spans = function_spans(model_json)

    proto_doc, mc_doc, _ = DOCS
    errors = []
    errors += check_forward(proto_doc, texts[proto_doc], dir_states,
                            "directory state")
    errors += check_forward(proto_doc, texts[proto_doc], msg_kinds,
                            "message kind")
    errors += check_forward(proto_doc, texts[proto_doc], tags, "protocol tag")
    # Every deliberate mutation must be documented where the explorer's
    # catching power is claimed (kNone is the off switch, not a mutation).
    errors += check_forward(mc_doc, texts[mc_doc], mutations - {"kNone"},
                            "protocol mutation")
    for doc in DOCS:
        errors += check_reverse(doc, texts[doc], known)
        errors += check_anchors(doc, texts[doc], spans)
    for doc in ANCHOR_ONLY_DOCS:
        if not doc.is_file():
            sys.exit(f"error: {doc.relative_to(ROOT)} not found")
        texts[doc] = doc.read_text()
        errors += check_anchors(doc, texts[doc], spans)

    if errors:
        print(f"doc drift: {len(errors)} problem(s)")
        for e in errors:
            print("  " + e)
        return 1

    n_anchors = sum(len(ANCHOR_RE.findall(t)) for t in texts.values())
    print(
        f"doc drift: OK ({len(dir_states)} states, {len(msg_kinds)} message "
        f"kinds, {len(tags)} tags, {len(mutations) - 1} mutations, "
        f"{n_anchors} anchors checked)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
