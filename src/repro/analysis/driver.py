"""FlexLint run orchestration: cache, baseline.

The per-file pass (syntax rules + flow rules) is pure: its findings
depend only on the file's bytes and the :class:`LintConfig`.  That
makes it cacheable by content hash — the cache file maps ``path ->
{hash, findings, index}`` under an environment key derived from the
analysis version and config, so a config or rule change invalidates
everything at once while an ordinary edit re-lints only the touched
files.  Misses are analyzed serially: ``ast.parse`` holds the GIL, and
concurrent parses corrupt CPython 3.11's interpreter-wide AST depth.

The cross-file pass (FXL009) is recomputed every run from the per-file
:class:`~repro.analysis.project.ModuleIndex` entries, which are JSON in
the cache — a full-tree warm run does zero re-parses.

Baselines let a new rule land without a big-bang cleanup: each entry
pins one finding by a *fingerprint* (rule, path, the stripped source
line text, and the occurrence index of that combination) so entries
survive unrelated line drift.  A baselined finding is reported but does
not fail the run; ``--update-baseline`` rewrites the file from the
currently active findings.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.flexlint import (
    Finding,
    LintConfig,
    iter_py_files,
    lint_source,
)
from repro.analysis.project import ModuleIndex, index_source

__all__ = [
    "ANALYSIS_VERSION",
    "RunStats",
    "RunResult",
    "run",
    "fingerprint",
    "load_baseline",
    "write_baseline",
]

#: Bump to invalidate every cache entry (rule semantics changed).
ANALYSIS_VERSION = "2.0.0"

CACHE_VERSION = 1
BASELINE_VERSION = 1


@dataclass
class RunStats:
    """Cache accounting for one run."""

    files: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RunResult:
    """Everything one orchestrated lint run produced."""

    findings: List[Finding]
    stats: RunStats

    @property
    def active(self) -> List[Finding]:
        return [f for f in self.findings if f.active]


def _env_key(config: LintConfig) -> str:
    payload = f"{ANALYSIS_VERSION}|{repr(config)}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _norm(path: str) -> str:
    return path.replace(os.sep, "/")


# ---------------------------------------------------------------------------
# Baseline fingerprints
# ---------------------------------------------------------------------------

def fingerprint(finding: Finding, source: str, occurrence: int) -> str:
    """Stable identity of one finding: rule + path + the stripped text
    of the flagged line + the occurrence index among identical triples.
    Line *numbers* are deliberately excluded so unrelated edits above
    the finding do not orphan the baseline entry."""
    lines = source.splitlines()
    text = lines[finding.line - 1].strip() if 0 < finding.line <= len(lines) else ""
    payload = f"{finding.rule}|{_norm(finding.path)}|{text}|{occurrence}"
    return hashlib.sha1(payload.encode("utf-8")).hexdigest()


def _fingerprints(
    findings: Sequence[Finding], sources: Dict[str, str]
) -> List[str]:
    counts: Dict[Tuple[str, str, str], int] = {}
    out: List[str] = []
    for f in findings:
        source = sources.get(f.path, "")
        lines = source.splitlines()
        text = lines[f.line - 1].strip() if 0 < f.line <= len(lines) else ""
        key = (f.rule, _norm(f.path), text)
        occurrence = counts.get(key, 0)
        counts[key] = occurrence + 1
        out.append(fingerprint(f, source, occurrence))
    return out


def load_baseline(path: str) -> Dict[str, str]:
    """``fingerprint -> reason`` from a baseline file (empty if absent
    or unreadable — a corrupt baseline must not hide findings)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return {}
    out: Dict[str, str] = {}
    for entry in data.get("entries", ()):
        fp = entry.get("fingerprint")
        if isinstance(fp, str):
            out[fp] = str(entry.get("reason", "")) or "baselined"
    return out


def write_baseline(
    path: str, findings: Sequence[Finding], sources: Dict[str, str]
) -> int:
    """Write a baseline pinning every currently active finding."""
    active = [f for f in findings if f.active]
    fps = _fingerprints(active, sources)
    entries = [
        {
            "fingerprint": fp,
            "rule": f.rule,
            "path": _norm(f.path),
            "reason": f"accepted at baseline creation: {f.message}"[:160],
        }
        for f, fp in sorted(
            zip(active, fps), key=lambda pair: (pair[0].path, pair[0].line)
        )
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {"version": BASELINE_VERSION, "tool": "flexlint", "entries": entries},
            fh, indent=2, sort_keys=True,
        )
        fh.write("\n")
    return len(entries)


def apply_baseline(
    findings: List[Finding], sources: Dict[str, str], baseline: Dict[str, str]
) -> List[Finding]:
    if not baseline:
        return findings
    fps = _fingerprints(findings, sources)
    out: List[Finding] = []
    for f, fp in zip(findings, fps):
        reason = baseline.get(fp)
        if reason is not None and f.active:
            out.append(replace(f, baselined=True, baseline_reason=reason))
        else:
            out.append(f)
    return out


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------

def _load_cache(path: Optional[str], env: str) -> Dict[str, dict]:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return {}
    if data.get("version") != CACHE_VERSION or data.get("env") != env:
        return {}
    files = data.get("files")
    return files if isinstance(files, dict) else {}


def _write_cache(path: Optional[str], env: str, files: Dict[str, dict]) -> None:
    if path is None:
        return
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(
                {"version": CACHE_VERSION, "env": env, "files": files},
                fh, sort_keys=True,
            )
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


# ---------------------------------------------------------------------------
# The orchestrated run
# ---------------------------------------------------------------------------

def run(
    paths: Sequence[str],
    config: Optional[LintConfig] = None,
    cache_path: Optional[str] = None,
    baseline_path: Optional[str] = None,
    update_baseline: bool = False,
) -> RunResult:
    """Lint ``paths`` with caching, the cross-file pass, and baseline
    suppression applied — the CLI's engine."""
    cfg = config or LintConfig()
    env = _env_key(cfg)
    files = iter_py_files(paths)
    stats = RunStats(files=len(files))

    cache = _load_cache(cache_path, env)
    new_cache: Dict[str, dict] = {}
    sources: Dict[str, str] = {}
    findings: List[Finding] = []
    indexes: Dict[str, ModuleIndex] = {}

    for path in files:
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            findings.append(
                Finding("FXL000", path, 0, 0, f"unreadable file: {exc}")
            )
            continue
        digest = hashlib.sha256(raw).hexdigest()
        source = raw.decode("utf-8", errors="replace")
        sources[path] = source
        entry = cache.get(_norm(path))
        if entry is not None and entry.get("hash") == digest:
            stats.cache_hits += 1
            cached = [Finding.from_dict(d) for d in entry.get("findings", ())]
            findings.extend(cached)
            if entry.get("index") is not None:
                indexes[path] = ModuleIndex.from_dict(path, entry["index"])
            new_cache[_norm(path)] = entry
        else:
            stats.cache_misses += 1
            file_findings = lint_source(source, path=path, config=cfg)
            try:
                index = index_source(source, path)
            except SyntaxError:
                index = None  # lint_source already reported FXL000
            findings.extend(file_findings)
            if index is not None:
                indexes[path] = index
            new_cache[_norm(path)] = {
                "hash": digest,
                "findings": [f.to_dict() for f in file_findings],
                "index": index.to_dict() if index is not None else None,
            }

    # Cross-file pass over the assembled index (cheap; never cached).
    from repro.analysis.flowrules import check_dispatch
    from repro.analysis.project import ProjectIndex

    project = ProjectIndex()
    for index in indexes.values():
        project.add(index)
    cross = sorted(check_dispatch(project, cfg), key=lambda f: (f.path, f.line))
    if cross:
        from repro.analysis.flexlint import _apply_waivers

        by_path: Dict[str, List[Finding]] = {}
        for f in cross:
            by_path.setdefault(f.path, []).append(f)
        for path, group in by_path.items():
            findings.extend(_apply_waivers(group, sources.get(path, "")))

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    if update_baseline and baseline_path:
        write_baseline(baseline_path, findings, sources)
    if baseline_path:
        findings = apply_baseline(
            findings, sources, load_baseline(baseline_path)
        )

    _write_cache(cache_path, env, new_cache)
    return RunResult(findings=findings, stats=stats)
